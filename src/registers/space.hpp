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
//  * Every register carries a monotone version() (completed writes), and
//    the Space keeps a write epoch + condvar so idle helpers can park until
//    some register in the space is written (version-gated wakeup).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
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
  // version-gated skip paths in the algorithms key off this: they are
  // observationally equivalent but change the exact step sequence, so they
  // must never run under a deterministic (or forced-virtual) controller.
  bool free_mode() const { return free_ != nullptr; }

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

// ------------------------------------------------------------------- Swmr

// Atomic single-writer multi-reader register. Linearizability comes from
// the storage engine: a seqlock read/write window for trivially copyable
// payloads (readers retry, never block), one critical section on a mutex
// otherwise. In deterministic mode accesses are additionally serialized by
// the step gate.
template <typename T, typename Storage>
class Swmr {
 public:
  Swmr(Space& space, runtime::ProcessId owner, T initial, std::string name)
      : space_(&space),
        owner_(owner),
        name_(std::move(name)),
        storage_(std::move(initial)) {}

  // Readable by any process.
  T read() const {
    space_->before_read();
    return storage_.load();
  }

  // Writable only by the owner.
  void write(T v) {
    if (space_->enforcing() && runtime::ThisProcess::id() != owner_) {
      throw PortViolation("write to SWMR '" + name_ + "' owned by p" +
                          std::to_string(owner_) + " attempted by p" +
                          std::to_string(runtime::ThisProcess::id()));
    }
    space_->before_write();
    storage_.store(std::move(v));
    space_->notify_write();
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
    if (space_->enforcing() && runtime::ThisProcess::id() != owner_) {
      throw PortViolation("update of SWMR '" + name_ + "' owned by p" +
                          std::to_string(owner_) + " attempted by p" +
                          std::to_string(runtime::ThisProcess::id()));
    }
    space_->before_write();
    T result = storage_.apply(std::forward<F>(fn));
    space_->notify_write();
    return result;
  }

  // Completed writes to this register; monotone. Reading the version is not
  // a register access in the model (no step, no meter): it exists so
  // pollers can skip re-reads that would observably return the same value.
  std::uint64_t version() const { return storage_.version(); }

  runtime::ProcessId owner() const { return owner_; }
  const std::string& name() const { return name_; }

 private:
  Space* space_;
  runtime::ProcessId owner_;
  std::string name_;
  Storage storage_;
};

// ------------------------------------------------------------------- Swsr

// Atomic single-writer single-reader register.
template <typename T, typename Storage>
class Swsr {
 public:
  Swsr(Space& space, runtime::ProcessId owner, runtime::ProcessId reader,
       T initial, std::string name)
      : space_(&space),
        owner_(owner),
        reader_(reader),
        name_(std::move(name)),
        storage_(std::move(initial)) {}

  T read() const {
    if (space_->enforcing() && runtime::ThisProcess::id() != reader_) {
      throw PortViolation("read of SWSR '" + name_ + "' readable by p" +
                          std::to_string(reader_) + " attempted by p" +
                          std::to_string(runtime::ThisProcess::id()));
    }
    space_->before_read();
    return storage_.load();
  }

  void write(T v) {
    if (space_->enforcing() && runtime::ThisProcess::id() != owner_) {
      throw PortViolation("write to SWSR '" + name_ + "' owned by p" +
                          std::to_string(owner_) + " attempted by p" +
                          std::to_string(runtime::ThisProcess::id()));
    }
    space_->before_write();
    storage_.store(std::move(v));
    space_->notify_write();
  }

  // See Swmr::version().
  std::uint64_t version() const { return storage_.version(); }

  runtime::ProcessId owner() const { return owner_; }
  runtime::ProcessId reader() const { return reader_; }
  const std::string& name() const { return name_; }

 private:
  Space* space_;
  runtime::ProcessId owner_;
  runtime::ProcessId reader_;
  std::string name_;
  Storage storage_;
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
