// Reusable Byzantine behaviors.
//
// A Byzantine process in this library is an ordinary thread bound to its
// ProcessId running *arbitrary* code — but the register substrate still
// enforces the write-port axiom, so everything here operates only on the
// adversary's own registers (exactly the paper's fault model, §3).
//
// The behaviors target the helping protocol shared by Algorithms 1-3:
//   * DenyingHelper    — answers every asker with the empty witness set:
//                        "I have never witnessed anything" (the denial the
//                        paper's title refers to, and the post-reset
//                        behavior of the Theorem-29 attack).
//   * VoteFlipHelper   — alternates between claiming and denying a target
//                        value across rounds, the §5.1 strawman-breaking
//                        behavior (defeated by the set0-reset mechanism).
//   * erase_*          — wipes the adversary's own registers back to their
//                        initial states ("deny that it ever wrote v", §1).
#pragma once

#include <map>
#include <optional>

#include "core/authenticated_register.hpp"
#include "core/shared_set.hpp"
#include "core/sticky_register.hpp"
#include "core/types.hpp"
#include "core/verifiable_register.hpp"
#include "runtime/process.hpp"

namespace swsig::byzantine {

// Answers every asker with an empty witness set. Works for all three
// algorithms (their HelpTuple first components all default-construct to
// "witness of nothing"). Runs as the process the thread is bound to.
template <typename Alg>
class DenyingHelper {
 public:
  explicit DenyingHelper(Alg& alg) : alg_(&alg) {}

  // One round; returns true if it answered someone.
  bool round() {
    const int j = runtime::ThisProcess::id();
    auto raw = alg_->raw();
    bool helped = false;
    for (int k = 2; k <= alg_->config().n; ++k) {
      const core::RoundCounter ck = (*raw.round)[k]->read();
      if (ck > prev_[k]) {
        (*raw.channel)[j][k]->write(typename Alg::HelpTuple{{}, ck});
        prev_[k] = ck;
        helped = true;
      }
    }
    return helped;
  }

 private:
  Alg* alg_;
  std::map<int, core::RoundCounter> prev_;
};

// Alternates answers about a single target value: witness in odd rounds,
// denier in even rounds. This is the collusion pattern from §5.1 that
// forces f < k < 2f+1 "Yes" counts against a naive quorum-based Verify.
template <typename Alg>
class VoteFlipHelper {
 public:
  using V = typename Alg::Value;

  VoteFlipHelper(Alg& alg, V target) : alg_(&alg), target_(std::move(target)) {}

  bool round() {
    const int j = runtime::ThisProcess::id();
    auto raw = alg_->raw();
    bool helped = false;
    for (int k = 2; k <= alg_->config().n; ++k) {
      const core::RoundCounter ck = (*raw.round)[k]->read();
      if (ck > prev_[k]) {
        typename Alg::HelpTuple answer{{}, ck};
        if (flip_) insert_target(answer.first);
        (*raw.channel)[j][k]->write(answer);
        prev_[k] = ck;
        flip_ = !flip_;
        helped = true;
      }
    }
    return helped;
  }

 private:
  void insert_target(core::SharedSet<V>& s) { s.insert(target_); }
  void insert_target(std::optional<V>& s) { s = target_; }

  Alg* alg_;
  V target_;
  bool flip_ = true;
  std::map<int, core::RoundCounter> prev_;
};

// Wipes the calling process's registers of a verifiable register instance
// back to initial state — the "reset" step of the Theorem-29 attack. Must
// be called by a thread bound to the register-owning process.
template <typename V>
void erase_verifiable_registers(core::VerifiableRegister<V>& alg) {
  const int b = runtime::ThisProcess::id();
  auto raw = alg.raw();
  (*raw.witness)[b]->write({});
  for (int k = 2; k <= alg.config().n; ++k)
    (*raw.channel)[b][k]->write({{}, 0});
  if (b == 1) raw.last_value->write(alg.config().v0);
}

// Same for an authenticated register: the writer erases every stamped value
// (including the initial one, if it wants to be maximally hostile).
template <typename V>
void erase_authenticated_registers(core::AuthenticatedRegister<V>& alg) {
  const int b = runtime::ThisProcess::id();
  auto raw = alg.raw();
  if (b == 1) raw.writer_set->write({});
  if (b >= 2) (*raw.witness)[b]->write({});
  for (int k = 2; k <= alg.config().n; ++k)
    (*raw.channel)[b][k]->write({{}, 0});
}

// Sticky register: the adversary erases its echo + witness registers.
template <typename V>
void erase_sticky_registers(core::StickyRegister<V>& alg) {
  const int b = runtime::ThisProcess::id();
  auto raw = alg.raw();
  (*raw.echo)[b]->write(std::nullopt);
  (*raw.witness)[b]->write(std::nullopt);
  for (int k = 2; k <= alg.config().n; ++k)
    (*raw.channel)[b][k]->write({std::nullopt, 0});
}

}  // namespace swsig::byzantine
