// TimedSpace: a benchmark-only SpaceT adapter for the traced run.
//
// Algorithm 1 runs over it unchanged; every register call the algorithm
// makes is forwarded to the wrapped msgpass::EmulatedSpace register inside
// a reg.read / reg.write / reg.update span. The adapter exposes neither
// version() nor free_mode(), exactly like the bare substrate, so the
// algorithm's compile-time fast-path choice (kVersionGate) is the same on
// both — fullstack.cpp static_asserts it.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "msgpass/emulated_swmr.hpp"
#include "trace.hpp"

namespace swsig::perfbench {

template <typename T, typename Reg>
class TimedRegister {
 public:
  explicit TimedRegister(Reg& reg) : reg_(&reg) {}

  T read() {
    ScopedSpan span(SpanKind::kRegRead);
    return reg_->read();
  }

  void write(T v) {
    ScopedSpan span(SpanKind::kRegWrite);
    reg_->write(std::move(v));
  }

  template <typename F>
  T update(F&& fn) {
    ScopedSpan span(SpanKind::kRegUpdate);
    return reg_->update(std::forward<F>(fn));
  }

 private:
  Reg* reg_;
};

class TimedSpace {
 public:
  template <typename T>
  using SwmrFor = TimedRegister<T, msgpass::EmulatedSwmr<T>>;
  template <typename T>
  using SwsrFor = TimedRegister<T, msgpass::EmulatedSwsr<T>>;

  explicit TimedSpace(msgpass::EmulatedSpace& inner) : inner_(&inner) {}

  template <typename T>
  SwmrFor<T>& make_swmr(runtime::ProcessId owner, T initial,
                        std::string name) {
    return keep(SwmrFor<T>(
        inner_->make_swmr<T>(owner, std::move(initial), std::move(name))));
  }

  template <typename T>
  SwsrFor<T>& make_swsr(runtime::ProcessId owner, runtime::ProcessId reader,
                        T initial, std::string name) {
    return keep(SwsrFor<T>(inner_->make_swsr<T>(
        owner, reader, std::move(initial), std::move(name))));
  }

 private:
  struct Held {
    virtual ~Held() = default;
  };
  template <typename R>
  struct Holder final : Held {
    explicit Holder(R r) : reg(std::move(r)) {}
    R reg;
  };

  template <typename R>
  R& keep(R reg) {
    auto holder = std::make_unique<Holder<R>>(std::move(reg));
    R& ref = holder->reg;
    held_.push_back(std::move(holder));
    return ref;
  }

  msgpass::EmulatedSpace* inner_;
  std::vector<std::unique_ptr<Held>> held_;  // stable addresses
};

}  // namespace swsig::perfbench
