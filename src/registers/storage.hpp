// Storage engines behind Swmr/Swsr, selected at compile time by the
// RegisterStorage<T> trait:
//
//  * SeqlockStorage<T> — lock-free read side (registers/seqlock.hpp) for
//    trivially copyable T. Readers never block and never block the writer.
//    The model's write ports (enforced in Space::Enforcement::kEnforcing)
//    give a single writing *process*; a light writer-side mutex serializes
//    that process's op and Help() threads, which may both write (e.g. the
//    sticky register's E_1).
//  * MutexStorage<T>   — fallback for payloads with non-trivial copies
//    (sets, maps, strings): one mutex per register, as before.
//
// Both engines expose the same concept:
//   T load() const;                 // linearizable read
//   void store(T v);                // linearizable write (single writer)
//   T apply(fn);                    // owner read-modify-write, returns copy
//   std::uint64_t version() const;  // completed writes, monotone
//   const std::atomic<std::uint64_t>& write_counter() const;
//
// write_counter(), which version() derives from, grows by each write's
// completion. The wakeup gate (Space::await_change) reads it: "unchanged"
// implies "no write completed", so a poller may skip a re-read.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <utility>

#include "registers/seqlock.hpp"

namespace swsig::registers {

template <typename T>
class MutexStorage {
 public:
  explicit MutexStorage(T initial) : value_(std::move(initial)) {}

  T load() const {
    std::scoped_lock lock(mu_);
    return value_;
  }

  void store(T v) {
    {
      std::scoped_lock lock(mu_);
      value_ = std::move(v);
    }
    version_.fetch_add(1, std::memory_order_release);
  }

  template <typename F>
  T apply(F&& fn) {
    T out;
    {
      std::scoped_lock lock(mu_);
      fn(value_);
      out = value_;
    }
    version_.fetch_add(1, std::memory_order_release);
    return out;
  }

  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  const std::atomic<std::uint64_t>& write_counter() const { return version_; }

 private:
  mutable std::mutex mu_;
  T value_;
  std::atomic<std::uint64_t> version_{0};
};

template <typename T>
  requires std::is_trivially_copyable_v<T>
class SeqlockStorage {
 public:
  explicit SeqlockStorage(T initial) : cell_(initial) {}

  T load() const { return cell_.read(); }

  void store(T v) {
    // The model has a single writing *process*, but that process may write
    // from two threads (its op thread and its Help() thread — e.g. the
    // sticky register's E_1, written at L2 and updated at L27). The writer
    // mutex serializes those; readers never touch it.
    std::scoped_lock lock(writer_mu_);
    cell_.write(v);
  }

  template <typename F>
  T apply(F&& fn) {
    // Owner read-modify-write, atomic against the owner's other writing
    // thread via the writer mutex (see store()); atomic for readers
    // because the write publishes the new value in one seqlock window.
    std::scoped_lock lock(writer_mu_);
    T v = cell_.read();  // no write in flight: we hold the writer mutex
    fn(v);
    cell_.write(v);
    return v;
  }

  std::uint64_t version() const { return cell_.version(); }
  const auto& write_counter() const { return cell_.sequence(); }

 private:
  std::mutex writer_mu_;
  SeqlockRegister<T> cell_;
};

// Trait: the storage engine Swmr<T>/Swsr<T> use by default. A constrained
// partial specialization (not std::conditional_t) so SeqlockStorage<T> is
// never even named for payloads that cannot satisfy its constraint.
template <typename T>
struct RegisterStorage {
  using type = MutexStorage<T>;
};

template <typename T>
  requires std::is_trivially_copyable_v<T>
struct RegisterStorage<T> {
  using type = SeqlockStorage<T>;
};

}  // namespace swsig::registers
