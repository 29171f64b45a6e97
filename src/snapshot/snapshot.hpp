// Byzantine-tolerant single-writer atomic snapshot, signature-free
// (n > 3f) — the Cohen–Keidar [5] object, translated per the paper's §1
// claim: every place their algorithm relies on a signature property, we
// use an authenticated register property instead.
//
// Structure (translation of Afek et al. [1] + CK's Byzantine hardening):
//  * segment_i  — authenticated register (writer p_i): holds ⟨seq, value⟩.
//    Authenticity of any claimed component is checkable by ANY process via
//    Verify — that is what signatures provided in [5].
//  * scans_i    — authenticated register (writer p_i): holds the embedded
//    scan p_i took during its last update (the classic helping mechanism).
//
//  update(v): s := scan(); scans_i.write(s); segment_i.write(⟨seq+1, v⟩).
//  scan(): double-collect until two identical collects (linearizes in the
//  gap); if some segment moves twice, adopt its embedded scan — but only
//  after (a) the scan register's Read returned it (authentic, Observation
//  19), (b) every component individually passes that segment's Verify
//  (genuinely written values only — no fabricated components), and
//  (c) it lies within this scan's observation window (component-wise
//  between the first and the latest collect).
//
// Liveness caveat (documented, docs/ARCHITECTURE.md design note 7): a Byzantine updater that
// churns forever while publishing non-adoptable embedded scans can starve
// scan() — Cohen–Keidar's signed original bounds this with signed embedded
// scans; our window check (c) rejects exactly the fabrications their
// signatures prevent, at the cost of retrying. Tests bound Byzantine churn.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/authenticated_register.hpp"
#include "core/types.hpp"
#include "core/version_gate.hpp"
#include "registers/space.hpp"
#include "runtime/process.hpp"

namespace swsig::snapshot {

// One snapshot component: sequence number + value.
struct Cell {
  std::uint64_t seq = 0;
  std::uint64_t value = 0;
  friend auto operator<=>(const Cell&, const Cell&) = default;
};

// A full scan result, one cell per process (index 0 unused).
using Scan = std::vector<Cell>;

class AtomicSnapshot {
 public:
  struct Config {
    int n = 4;
    int f = 1;  // needs n > 3f
    std::uint64_t v0 = 0;
  };

  AtomicSnapshot(registers::Space& space, Config config)
      : space_(&space), cfg_(config), epoch_gate_(config.n) {
    core::check_resilience(cfg_.n, cfg_.f);
    for (int i = 0; i <= cfg_.n; ++i) {
      segments_.push_back(nullptr);
      scans_.push_back(nullptr);
      seq_.push_back(0);
    }
    for (int i = 1; i <= cfg_.n; ++i) {
      SegReg::Config sc;
      sc.n = cfg_.n;
      sc.f = cfg_.f;
      sc.v0 = Cell{0, cfg_.v0};
      segments_[static_cast<std::size_t>(i)] =
          std::make_unique<Remapped<SegReg>>(space, sc, i);
      ScanReg::Config rc;
      rc.n = cfg_.n;
      rc.f = cfg_.f;
      rc.v0 = Scan{};
      scans_[static_cast<std::size_t>(i)] =
          std::make_unique<Remapped<ScanReg>>(space, rc, i);
    }
  }

  const Config& config() const { return cfg_; }

  // Update the caller's segment (single-writer per segment).
  void update(std::uint64_t value) {
    const int self = runtime::ThisProcess::id();
    require_pid(self);
    const Scan s = scan();  // embedded scan (helping)
    scans_[static_cast<std::size_t>(self)]->write(s);
    auto& seq = seq_[static_cast<std::size_t>(self)];
    ++seq;
    segments_[static_cast<std::size_t>(self)]->write(Cell{seq, value});
  }

  // Linearizable scan.
  Scan scan() {
    const int self = runtime::ThisProcess::id();
    require_pid(self);
    const Scan first = collect(self);
    Scan prev = first;
    std::vector<int> moved(static_cast<std::size_t>(cfg_.n) + 1, 0);
    for (;;) {
      Scan cur = collect(self);
      if (cur == prev) return cur;  // clean double collect
      for (int i = 1; i <= cfg_.n; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        if (cur[idx].seq != prev[idx].seq) {
          ++moved[idx];
          if (moved[idx] >= 2) {
            // Segment i moved twice during our scan: its embedded scan was
            // taken entirely inside our window. Adopt it if it validates.
            const auto adopted = try_adopt(self, i, first, cur);
            if (adopted) return *adopted;
          }
        }
      }
      prev = std::move(cur);
    }
  }

  // Reads one segment (authenticated read: verified value or v0).
  Cell read_segment(int i) {
    const int self = runtime::ThisProcess::id();
    require_pid(self);
    return segments_[static_cast<std::size_t>(i)]->read(self);
  }

  bool help_round() {
    const int self = runtime::ThisProcess::id();
    // Epoch gate (free mode): helping can only become necessary
    // after some register in the space was written (an updater's segment,
    // an embedded scan, a reader's round counter — all are writes). If the
    // space-wide write epoch is unchanged since this process's last round,
    // skip the 2n inner helping rounds outright.
    if (!epoch_gate_.changed(*space_, self)) return false;
    bool any = false;
    for (int i = 1; i <= cfg_.n; ++i) {
      any |= segments_[static_cast<std::size_t>(i)]->help(self);
      any |= scans_[static_cast<std::size_t>(i)]->help(self);
    }
    return any;
  }

 private:
  using SegReg = core::AuthenticatedRegister<Cell>;
  using ScanReg = core::AuthenticatedRegister<Scan>;

  // Identity-relabeled register: register-internal p1 is the segment owner
  // (the algorithms fix the writer as p1; the relabeling pi <-> p_owner is
  // sound by symmetry, as in broadcast/reliable_broadcast.hpp).
  template <typename Reg>
  struct Remapped {
    Remapped(registers::Space& space, typename Reg::Config rc, int owner_pid)
        : owner(owner_pid), reg(space, rc) {}

    int mapped(int pid) const {
      if (pid == owner) return 1;
      if (pid == 1) return owner;
      return pid;
    }

    void write(typename Reg::Value v) {
      runtime::ThisProcess::Binder bind(1);
      reg.write(v);
    }

    typename Reg::Value read(int real_pid) {
      runtime::ThisProcess::Binder bind(mapped(real_pid));
      if (mapped(real_pid) == 1) {
        // Owner reads its own register: take the highest stamped entry
        // (the owner knows its own writes; v0 if none).
        const auto r = reg.raw().writer_set->read();
        if (r.empty()) return reg.config().v0;
        return r.back().second;
      }
      return reg.read();
    }

    bool verify(int real_pid, const typename Reg::Value& v) {
      runtime::ThisProcess::Binder bind(mapped(real_pid));
      if (mapped(real_pid) == 1) {
        const auto r = reg.raw().writer_set->read();
        for (const auto& [seq, value] : r)
          if (value == v) return true;
        return v == reg.config().v0;
      }
      return reg.verify(v);
    }

    bool help(int real_pid) {
      runtime::ThisProcess::Binder bind(mapped(real_pid));
      return reg.help_round();
    }

    int owner;
    Reg reg;
  };

  void require_pid(int pid) const {
    if (pid < 1 || pid > cfg_.n)
      throw std::logic_error("snapshot ops need a thread bound to p1..pn");
  }

  Scan collect(int self) {
    Scan s(static_cast<std::size_t>(cfg_.n) + 1);
    for (int i = 1; i <= cfg_.n; ++i)
      s[static_cast<std::size_t>(i)] =
          segments_[static_cast<std::size_t>(i)]->read(self);
    return s;
  }

  // Validation gates (a)-(c) from the header comment.
  std::optional<Scan> try_adopt(int self, int mover, const Scan& first,
                                const Scan& latest) {
    const Scan s = scans_[static_cast<std::size_t>(mover)]->read(self);
    if (s.size() != static_cast<std::size_t>(cfg_.n) + 1) return std::nullopt;
    for (int j = 1; j <= cfg_.n; ++j) {
      const auto idx = static_cast<std::size_t>(j);
      // (b) every component is a genuinely written value of segment j.
      if (!segments_[idx]->verify(self, s[idx])) return std::nullopt;
      // (c) within our observation window.
      if (s[idx].seq < first[idx].seq || s[idx].seq > latest[idx].seq)
        return std::nullopt;
    }
    return s;
  }

  registers::Space* space_;
  Config cfg_;
  std::vector<std::unique_ptr<Remapped<SegReg>>> segments_;
  std::vector<std::unique_ptr<Remapped<ScanReg>>> scans_;
  std::vector<std::uint64_t> seq_;  // per-process writer counters
  core::detail::SpaceEpochGate epoch_gate_;
};

}  // namespace swsig::snapshot
