// A set of process ids in one 64-bit word: the voter sets of every quorum
// tally in the message-passing stack — the ladder's echoes and accepts, a
// read's repliers and each pair's vouchers, a write's ACKs and a fence's
// ABACKs. Inserting and counting are a bit-or and a popcount, with no
// allocation, which is why a space of n processes needs n <= kMaxN
// (pids 1..n fit bits 1..63).
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace swsig::msgpass::detail {

class PidSet {
 public:
  static constexpr int kMaxN = 63;

  // Adds pid; true iff it was not there yet (a duplicate voter counts
  // once).
  bool insert(int pid) {
    const std::uint64_t bit = bit_of(pid);
    const bool fresh = (bits_ & bit) == 0;
    bits_ |= bit;
    return fresh;
  }

  int size() const { return std::popcount(bits_); }

 private:
  static std::uint64_t bit_of(int pid) {
    if (pid < 0 || pid > kMaxN)
      throw std::out_of_range("PidSet: pid " + std::to_string(pid) +
                              " outside 0.." + std::to_string(kMaxN));
    return std::uint64_t{1} << pid;
  }

  std::uint64_t bits_ = 0;
};

// Throws std::invalid_argument unless `what` (a space or broadcast of n
// processes) fits the tallies.
inline void require_tally_fits(int n, const char* what) {
  if (n <= PidSet::kMaxN) return;
  throw std::invalid_argument(std::string(what) + ": n = " +
                              std::to_string(n) + " exceeds the limit of " +
                              std::to_string(PidSet::kMaxN) +
                              " processes (quorum tallies are 64-bit pid "
                              "sets)");
}

}  // namespace swsig::msgpass::detail
