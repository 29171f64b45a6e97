// The witness step shared by Algorithm 1 (L31-32) and Algorithm 2 (L33-34):
// p_j becomes a witness of every value the writer signed (v ∈ r_1) or that
// at least f+1 of r_1..r_n already hold.
#pragma once

#include <map>
#include <vector>

namespace swsig::core::detail {

// `r` holds the sets just read, indexed by pid (r[1] is the writer's set),
// and `rj` is p_j's witness register R_j. Literal (deterministic) runs keep
// the paper's step sequence: one update of R_j per qualifying value, in
// value order, whether or not R_j already holds it. Free runs write R_j at
// most once (design note 17): only values outside r_j can change it, so
// each r_i is merged linearly against r_j and just the values r_j lacks
// are tallied, then every qualifying one is adopted in a single update —
// |adopt| back-to-back L32 writes with no step in between, a legal
// schedule of Help().
template <typename Reg, typename Set>
void adopt_witnessed(Reg& rj, const std::vector<Set>& r, int j, int f,
                     bool literal) {
  using V = typename Set::value_type;
  const int n = static_cast<int>(r.size()) - 1;
  if (literal) {
    std::map<V, int> count;  // candidate value -> number of witnesses
    for (int i = 1; i <= n; ++i)
      for (const V& v : r[static_cast<std::size_t>(i)]) ++count[v];
    for (const auto& [v, c] : count)
      if (r[1].contains(v) || c >= f + 1)
        rj.update([&](Set& s) { s.insert(v); });
    return;
  }
  struct Tally {
    int holders = 0;
    bool is_signed = false;  // v ∈ r_1
  };
  const Set& mine = r[static_cast<std::size_t>(j)];
  std::map<V, Tally> outside;  // values r_j lacks -> who holds them
  for (int i = 1; i <= n; ++i) {
    const Set& ri = r[static_cast<std::size_t>(i)];
    if (ri.shares_storage_with(mine)) continue;  // i = j, or a copy of r_j
    auto a = ri.begin();
    auto b = mine.begin();
    while (a != ri.end()) {
      if (b == mine.end() || *a < *b) {
        Tally& t = outside[*a];
        ++t.holders;
        t.is_signed = t.is_signed || i == 1;
        ++a;
      } else if (*b < *a) {
        ++b;
      } else {
        ++a;
        ++b;
      }
    }
  }
  std::vector<V> adopt;
  for (const auto& [v, t] : outside)
    if (t.is_signed || t.holders >= f + 1) adopt.push_back(v);
  if (!adopt.empty())
    rj.update([&](Set& s) { s.insert(adopt.begin(), adopt.end()); });
}

}  // namespace swsig::core::detail
