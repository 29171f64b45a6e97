// The witness step shared by Algorithm 1 (L31-32) and Algorithm 2 (L33-34):
// p_j becomes a witness of every value the writer signed (v ∈ r_1) or that
// at least f+1 of r_1..r_n already hold.
//
// Literal (deterministic) runs keep the paper's step sequence: one update of
// R_j per qualifying value, in value order, whether or not R_j already
// holds it. Free runs write R_j at most once per round (design note 17):
// only values outside r_j can change it, so only those are tallied, and
// every qualifying one is adopted in a single update — |adopt| back-to-back
// L32 writes with no step in between, a legal schedule of Help().
//
// Free runs also adopt by delta. Witness sets are core::SharedSet, whose
// lineage (shared_set.hpp) names the values a set gained since an older
// version of it. Per helper p_j, WitnessTally keeps the r_i it last merged
// for every i, and a tally of the values r_j lacks: which processes held
// each, and whether r_1 did. A round merges only what each r_i gained
// since, so a round whose inputs did not change costs O(n). An r_i that
// does not extend the version last merged — a Byzantine R_i rewritten, or
// a set built from scratch — takes the full linear merge against r_j,
// after the tally forgets what that i held before; an r_j that does not
// extend its last version (R_j wiped) restarts the tally.
//
// The tally counts a holder while its set extends the version that showed
// the value, so still holds it, and forgets that holder when its set does
// not extend. Its holders are therefore those of the current sets, as in
// L31-32, and its memory follows the live sets: a Byzantine R_i rewritten
// with fresh values leaves nothing behind. An honest witness set only
// grows, so only a Byzantine one is ever forgotten. The signed flag alone
// outlives a rewrite of R_1, which is sound: a Byzantine register may
// report any value at any time, so the schedule in which r_1 still showed
// v is a legal one.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

namespace swsig::core::detail {

// Delta adoption state of one helper p_j; used only by p_j's Help() thread.
template <typename Set>
class WitnessTally {
 public:
  using V = typename Set::value_type;

  explicit WitnessTally(int n) : seen_(static_cast<std::size_t>(n) + 1) {}

  // L31-32 / L33-34 for p_j: `r` holds the sets just read, indexed by pid
  // (r[1] is the writer's set), and `rj` is p_j's witness register R_j.
  template <typename Reg>
  void adopt(Reg& rj, const std::vector<Set>& r, int j, int f, bool literal) {
    if (literal) return adopt_literal(rj, r, f);
    const Set& mine = r[static_cast<std::size_t>(j)];
    std::vector<V> touched;
    if (!mine.for_each_added_since(seen_[static_cast<std::size_t>(j)],
                                   [&](const V& v) { lacking_.erase(v); }))
      reset();  // R_j lost values: count every r_i afresh
    seen_[static_cast<std::size_t>(j)] = mine;
    for (std::size_t i = 1; i < r.size(); ++i) {
      if (static_cast<int>(i) == j) continue;
      const Set& ri = r[i];
      Set& last = seen_[i];
      if (ri.shares_storage_with(last)) continue;  // nothing new
      const auto held = [&](const V& v) {
        Tally& t = lacking_[v];
        t.holders.insert(static_cast<int>(i));
        t.is_signed = t.is_signed || i == 1;
        touched.push_back(v);
      };
      if (!ri.for_each_added_since(last, [&](const V& v) {
            if (!mine.contains(v)) held(v);
          })) {
        forget(static_cast<int>(i));
        merge_outside(ri, mine, held);
      }
      last = ri;
    }
    // Only a touched entry can have started to qualify.
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    std::erase_if(touched, [&](const V& v) {
      const Tally& t = lacking_.find(v)->second;
      return !t.is_signed && t.holders.size() < f + 1;
    });
    if (touched.empty()) return;
    try {
      rj.update([&](Set& s) { s.insert(touched.begin(), touched.end()); });
    } catch (...) {
      reset();  // the touched values would not be looked at again
      throw;
    }
  }

  // Values tallied as lacking from r_j (for tests: bounded by the live
  // sets, not by the history of writes).
  std::size_t tallied() const { return lacking_.size(); }

 private:
  // A set of pids, one word per 64 of them; no allocation while n < 64.
  class Holders {
   public:
    void insert(int pid) {
      const auto k = static_cast<std::size_t>(pid / 64);
      if (k == 0) {
        low_ |= bit(pid);
        return;
      }
      if (high_.size() < k) high_.resize(k);
      high_[k - 1] |= bit(pid);
    }
    void erase(int pid) {
      const auto k = static_cast<std::size_t>(pid / 64);
      if (k == 0)
        low_ &= ~bit(pid);
      else if (k <= high_.size())
        high_[k - 1] &= ~bit(pid);
    }
    int size() const {
      int count = std::popcount(low_);
      for (std::uint64_t w : high_) count += std::popcount(w);
      return count;
    }

   private:
    static std::uint64_t bit(int pid) { return std::uint64_t{1} << (pid % 64); }

    std::uint64_t low_ = 0;              // pids 0..63
    std::vector<std::uint64_t> high_;  // pids 64.., only when n >= 64
  };

  struct Tally {
    Holders holders;
    bool is_signed = false;  // some r_1 held it
  };

  void reset() {
    lacking_.clear();
    std::fill(seen_.begin(), seen_.end(), Set());
  }

  // r_i no longer extends what was counted for it: drop i as a holder
  // everywhere, and every entry nobody else holds. A touched entry keeps
  // the holder that touched it, since each i is merged once per round.
  void forget(int i) {
    for (auto it = lacking_.begin(); it != lacking_.end();) {
      it->second.holders.erase(i);
      it = it->second.holders.size() == 0 ? lacking_.erase(it) : std::next(it);
    }
  }

  // The paper's loop: every value any r_i holds, counted from scratch.
  template <typename Reg>
  static void adopt_literal(Reg& rj, const std::vector<Set>& r, int f) {
    std::map<V, int> count;  // candidate value -> number of witnesses
    for (std::size_t i = 1; i < r.size(); ++i)
      for (const V& v : r[i]) ++count[v];
    for (const auto& [v, c] : count)
      if (r[1].contains(v) || c >= f + 1)
        rj.update([&](Set& s) { s.insert(v); });
  }

  // Calls held(v) for every v of ri outside mine: one linear merge.
  template <typename Held>
  static void merge_outside(const Set& ri, const Set& mine, Held& held) {
    auto a = ri.begin();
    auto b = mine.begin();
    while (a != ri.end()) {
      if (b == mine.end() || *a < *b) {
        held(*a);
        ++a;
      } else if (*b < *a) {
        ++b;
      } else {
        ++a;
        ++b;
      }
    }
  }

  std::vector<Set> seen_;     // by pid: the r_i last merged
  std::map<V, Tally> lacking_;  // values r_j lacks -> who held them
};

}  // namespace swsig::core::detail
