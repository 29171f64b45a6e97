// Seqlock-based single-writer register for trivially copyable payloads.
//
// Originally the ablation substrate for experiment T10a (mutex vs seqlock
// register cost); now the default storage engine behind Swmr/Swsr for
// trivially copyable payloads (registers/storage.hpp). Readers never block
// the writer; a read retries while a write is in flight. The payload is
// stored as relaxed atomic words bracketed by acquire/release fences on the
// sequence counter — the classic data-race-free seqlock recipe (per C++
// Core Guidelines CP.100 we only hand-roll this because measuring it *is*
// the experiment).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <type_traits>

namespace swsig::registers {

template <typename T>
  requires std::is_trivially_copyable_v<T>
class SeqlockRegister {
 public:
  explicit SeqlockRegister(T initial = T{}) { unsafe_store(initial); }

  // Single writer.
  void write(const T& v) {
    const std::uint64_t s = seq_.load(std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_relaxed);  // odd: write in flight
    std::atomic_thread_fence(std::memory_order_release);
    store_words(v);
    seq_.store(s + 2, std::memory_order_release);  // even: stable
  }

  // Any number of readers. A storming writer can keep the sequence odd or
  // moving; after kSpinLimit raw retries the reader yields between attempts
  // (bounded backoff) so it cannot monopolize the writer's core and still
  // makes progress — every completed write leaves a stable even window.
  T read() const {
    int spins = 0;
    for (;;) {
      const std::uint64_t s1 = seq_.load(std::memory_order_acquire);
      if (!(s1 & 1)) {  // even: no write in flight
        T out = load_words();
        std::atomic_thread_fence(std::memory_order_acquire);
        const std::uint64_t s2 = seq_.load(std::memory_order_relaxed);
        if (s1 == s2) return out;
      }
      if (++spins > kSpinLimit) std::this_thread::yield();
    }
  }

  // Number of completed writes; monotone. A changed version implies the
  // stored value may differ; an unchanged version implies no write has
  // completed since (a write in flight shows up once it completes).
  std::uint64_t version() const {
    return seq_.load(std::memory_order_acquire) >> 1;
  }
  // The sequence counter itself: odd while a write is in flight.
  const std::atomic<std::uint64_t>& sequence() const { return seq_; }

 private:
  static constexpr int kSpinLimit = 64;
  static constexpr std::size_t kWords = (sizeof(T) + 7) / 8;

  void unsafe_store(const T& v) { store_words(v); }

  void store_words(const T& v) {
    std::array<std::uint64_t, kWords> buf{};
    std::memcpy(buf.data(), &v, sizeof(T));
    for (std::size_t i = 0; i < kWords; ++i)
      words_[i].store(buf[i], std::memory_order_relaxed);
  }

  T load_words() const {
    std::array<std::uint64_t, kWords> buf{};
    for (std::size_t i = 0; i < kWords; ++i)
      buf[i] = words_[i].load(std::memory_order_relaxed);
    T out;
    std::memcpy(&out, buf.data(), sizeof(T));
    return out;
  }

  std::atomic<std::uint64_t> seq_{0};
  std::array<std::atomic<std::uint64_t>, kWords> words_{};
};

}  // namespace swsig::registers
