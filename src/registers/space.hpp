// Register space: factory and home of all shared registers of one system
// instance. Routes every access through the StepController (the asynchrony
// model's preemption points), meters accesses, and enforces port ownership.
//
// Hot-path design (docs/ARCHITECTURE.md, "Storage engines & the free-mode
// fast path"):
//  * Storage is selected per payload type by RegisterStorage<T>: a seqlock
//    (lock-free read side) for trivially copyable T, a mutex otherwise.
//  * In free mode the step gate is devirtualized: Space caches whether its
//    controller is a FreeStepController at construction, and before_read/
//    before_write become a single relaxed fetch-add on a per-thread shard
//    (the metered access doubles as the step count — the controller pulls
//    the meters in steps()). Deterministic mode is byte-identical to the
//    virtual path: every access still parks on StepController::step().
//  * Every register carries a monotone write counter (the wakeup gate's
//    input), and the Space keeps a write epoch + condvar so idle helpers
//    can park until some register in the space is written.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "registers/errors.hpp"
#include "registers/metrics.hpp"
#include "registers/storage.hpp"
#include "runtime/process.hpp"
#include "runtime/step_controller.hpp"

namespace swsig::registers {

template <typename T, typename Storage = typename RegisterStorage<T>::type>
class Swmr;
template <typename T, typename Storage = typename RegisterStorage<T>::type>
class Swsr;

class Space {
 public:
  enum class Enforcement {
    kEnforcing,   // port violations throw PortViolation
    kPermissive,  // port checks disabled (micro-benchmarks only)
  };

  // The step gate is devirtualized when the controller is free-mode.
  explicit Space(runtime::StepController& controller,
                 Enforcement mode = Enforcement::kEnforcing);
  ~Space();

  // Register-type aliases so algorithms can be parameterized over the
  // register substrate (shared memory here, message-passing emulation in
  // msgpass::EmulatedSpace).
  template <typename T>
  using SwmrFor = Swmr<T>;
  template <typename T>
  using SwsrFor = Swsr<T>;

  Space(const Space&) = delete;
  Space& operator=(const Space&) = delete;

  // Creates a single-writer multi-reader register owned by `owner`.
  // The returned reference lives as long as the Space.
  template <typename T>
  Swmr<T>& make_swmr(runtime::ProcessId owner, T initial, std::string name);

  // Creates a single-writer single-reader register (owner writes, exactly
  // `reader` may read).
  template <typename T>
  Swsr<T>& make_swsr(runtime::ProcessId owner, runtime::ProcessId reader,
                     T initial, std::string name);

  runtime::StepController& controller() { return *controller_; }
  Metrics& metrics() { return metrics_; }
  bool enforcing() const { return mode_ == Enforcement::kEnforcing; }

  // True when accesses take the devirtualized free-mode fast path. The
  // gated paths in the algorithms key off this: they skip metered reads,
  // which changes the exact step sequence, so they must never run under a
  // deterministic controller.
  bool free_mode() const { return free_ != nullptr; }

  // ------------------------------------------------------- the wakeup gate
  // (docs/ARCHITECTURE.md, "The wakeup gate"; msgpass::EmulatedSpace has
  // the other implementation). A watched register is any Swmr/Swsr (a
  // pointer converts), by its write counter. A record is one list's length
  // and counter sum; counters only grow, so an unchanged sum means no
  // watched register was written.
  struct Watched {
    template <typename Reg>
    Watched(const Reg* reg) : counter(&reg->write_counter()) {}
    const std::atomic<std::uint64_t>* counter;
  };
  struct Seen {
    std::size_t count = static_cast<std::size_t>(-1);  // no record yet
    std::uint64_t sum = 0;
  };
  // The gate never blocks here (the bound is ignored): composite objects
  // sweep n × slots inner help rounds, which must not stall, and
  // FreeSystem parks on the write epoch itself.
  static constexpr std::chrono::milliseconds kGateBound{0};

  // True when a watched register was written since `seen` recorded it, or
  // there is no record; false, exactly, when none was. Records the counters
  // it sampled: sampled before the caller's read, a counter never hides a
  // newer write. Inline: composite helpers call it n × slots times a sweep.
  bool await_change(Seen& seen, std::span<const Watched> watched,
                    std::chrono::milliseconds /*bound*/) {
    Seen saw{watched.size(), 0};
    for (const Watched& w : watched)
      saw.sum += w.counter->load(std::memory_order_acquire);
    if (saw.count == seen.count && saw.sum == seen.sum) return false;
    seen = saw;  // only on a change: helpers' records sit side by side
    return true;
  }

  // Gate + meter, called by registers on every access. In free mode this
  // is a single relaxed fetch-add on a per-thread shard: the metered access
  // *is* the step (FreeStepController::steps() sums the meters).
  void before_read() {
    if (!free_) controller_->step();
    metrics_.on_read();
  }
  void before_write() {
    if (!free_) controller_->step();
    metrics_.on_write();
  }

  // ------------------------------------------------- write epoch / parking
  // Bumped after every completed register write in this space; helpers park
  // on it instead of busy-polling (core::FreeSystem). notify_write() is
  // called by the registers post-store, so a waiter that observes a changed
  // epoch also observes the written value.
  std::uint64_t write_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  // Missed-wakeup safety is the classic store-load (Dekker) argument over
  // the seq_cst total order: the notifier bumps the epoch then reads
  // waiters_; the waiter raises waiters_ then reads the epoch (both
  // predicate evaluations run under wait_mu_). Either the notifier's
  // waiters_ read sees the raised count — then it takes wait_mu_ (i.e.
  // serializes after the waiter's predicate check / atomically-released
  // sleep) and notifies — or the waiter's epoch read is ordered after the
  // bump and sees the new epoch, so it never sleeps.
  void notify_write() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) > 0) {
      std::scoped_lock lock(wait_mu_);
      wait_cv_.notify_all();
    }
  }

  // Blocks until write_epoch() != seen or the timeout elapses; returns the
  // current epoch.
  std::uint64_t wait_write_epoch(std::uint64_t seen,
                                 std::chrono::microseconds timeout) {
    std::unique_lock lock(wait_mu_);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    wait_cv_.wait_for(lock, timeout, [&] {
      return epoch_.load(std::memory_order_seq_cst) != seen;
    });
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    return write_epoch();
  }

  std::size_t register_count() const;

 private:
  struct RegisterBase {
    virtual ~RegisterBase() = default;
  };
  template <typename T>
  struct Holder;

  runtime::StepController* controller_;
  runtime::FreeStepController* free_ = nullptr;  // cached as_free()
  Enforcement mode_;
  Metrics metrics_;

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> waiters_{0};
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;

  mutable std::mutex mu_;  // guards registry_ during construction only
  std::vector<std::unique_ptr<RegisterBase>> registry_;
};

// ---------------------------------------------------------- Swmr, Swsr

// What both register kinds share: the owner's write port, the storage
// engine and its counters. Linearizability comes from the storage engine:
// a seqlock read/write window for trivially copyable payloads (readers
// retry, never block), one critical section on a mutex otherwise. In
// deterministic mode accesses are additionally serialized by the step
// gate.
template <typename T, typename Storage, bool kSingleReader>
class OwnedRegister {
 public:
  // Writable only by the owner.
  void write(T v) {
    check_port("write to", "owned by", owner_);
    space_->before_write();
    storage_.store(std::move(v));
    space_->notify_write();
  }

  // Completed writes to this register; monotone. Reading it, or the counter
  // the wakeup gate watches (Space::Watched), is no register access in the
  // model (no step, no meter): it lets pollers skip re-reads.
  std::uint64_t version() const { return storage_.version(); }
  const auto& write_counter() const { return storage_.write_counter(); }

  runtime::ProcessId owner() const { return owner_; }
  const std::string& name() const { return name_; }

 protected:
  OwnedRegister(Space& space, runtime::ProcessId owner, T initial,
                std::string name)
      : space_(&space),
        owner_(owner),
        name_(std::move(name)),
        storage_(std::move(initial)) {}

  // In enforcing mode, access `op` by any process but `allowed` throws.
  void check_port(const char* op, const char* role,
                  runtime::ProcessId allowed) const {
    if (!space_->enforcing() || runtime::ThisProcess::id() == allowed) return;
    throw PortViolation(std::string(op) +
                        (kSingleReader ? " SWSR '" : " SWMR '") + name_ +
                        "' " + role + " p" + std::to_string(allowed) +
                        " attempted by p" +
                        std::to_string(runtime::ThisProcess::id()));
  }

  Space* space_;
  runtime::ProcessId owner_;
  std::string name_;
  Storage storage_;
};

// Atomic single-writer multi-reader register.
template <typename T, typename Storage>
class Swmr : public OwnedRegister<T, Storage, false> {
 public:
  Swmr(Space& space, runtime::ProcessId owner, T initial, std::string name)
      : Swmr::OwnedRegister(space, owner, std::move(initial),
                            std::move(name)) {}

  // Readable by any process.
  T read() const {
    this->space_->before_read();
    return this->storage_.load();
  }

  // Atomic owner read-modify-write: applies `fn` to the stored value as one
  // linearizable step and returns a copy of the result. In the paper a
  // process's operation steps and Help() steps are sequential (§3.3), so an
  // owner read-then-write can never be interleaved by the same process; we
  // split those onto two threads, and update() restores that per-process
  // step atomicity (docs/ARCHITECTURE.md, design note 2). Other processes only
  // ever read this register, so to them update() is indistinguishable from
  // a plain write.
  template <typename F>
  T update(F&& fn) {
    this->check_port("update of", "owned by", this->owner_);
    this->space_->before_write();
    T result = this->storage_.apply(std::forward<F>(fn));
    this->space_->notify_write();
    return result;
  }
};

// Atomic single-writer single-reader register: exactly `reader` may read.
template <typename T, typename Storage>
class Swsr : public OwnedRegister<T, Storage, true> {
 public:
  Swsr(Space& space, runtime::ProcessId owner, runtime::ProcessId reader,
       T initial, std::string name)
      : Swsr::OwnedRegister(space, owner, std::move(initial), std::move(name)),
        reader_(reader) {}

  T read() const {
    this->check_port("read of", "readable by", reader_);
    this->space_->before_read();
    return this->storage_.load();
  }

  runtime::ProcessId reader() const { return reader_; }

 private:
  runtime::ProcessId reader_;
};

// --------------------------------------------------------------- factories

template <typename T>
struct Space::Holder : Space::RegisterBase {
  template <typename... Args>
  explicit Holder(Args&&... args) : reg(std::forward<Args>(args)...) {}
  T reg;
};

template <typename T>
Swmr<T>& Space::make_swmr(runtime::ProcessId owner, T initial,
                          std::string name) {
  std::scoped_lock lock(mu_);
  auto holder = std::make_unique<Holder<Swmr<T>>>(*this, owner,
                                                  std::move(initial),
                                                  std::move(name));
  auto& reg = holder->reg;
  registry_.push_back(std::move(holder));
  return reg;
}

template <typename T>
Swsr<T>& Space::make_swsr(runtime::ProcessId owner, runtime::ProcessId reader,
                          T initial, std::string name) {
  std::scoped_lock lock(mu_);
  auto holder = std::make_unique<Holder<Swsr<T>>>(
      *this, owner, reader, std::move(initial), std::move(name));
  auto& reg = holder->reg;
  registry_.push_back(std::move(holder));
  return reg;
}

}  // namespace swsig::registers
