// Per-process server threads for message-passing protocol objects.
//
// Every msgpass protocol (EmulatedSpace, WitnessBroadcast) runs the same
// skeleton: one thread per process p1..pn, bound to its pid, pulling from
// the shared Network and dispatching to a handler. ServerPool owns that
// skeleton so the protocols only supply the handler body.
#pragma once

#include <functional>
#include <memory>
#include <stop_token>
#include <thread>
#include <utility>
#include <vector>

#include "msgpass/network.hpp"
#include "runtime/process.hpp"

namespace swsig::msgpass::detail {

class ServerPool {
 public:
  using Handler = std::function<void(int self, const Message&)>;

  // Spawns one server thread per process 1..n; each binds its pid, feeds
  // received messages to `handle` and reports each one handled to the
  // network (Network::quiesce). The pool must outlive nothing that
  // `handle` touches — callers stop() it before tearing protocol state down.
  // All n threads share ONE handler instance (the protocols' handlers are
  // stateless closures over their space, and with pipelined owners every
  // server thread multiplexes many concurrent ladders — n identical
  // std::function copies bought nothing).
  ServerPool(Network& net, int n, Handler handle)
      : handle_(std::make_shared<Handler>(std::move(handle))) {
    for (int pid = 1; pid <= n; ++pid) {
      threads_.emplace_back([&net, pid, handle = handle_](std::stop_token st) {
        runtime::ThisProcess::Binder bind(pid);
        while (!st.stop_requested()) {
          auto m = net.recv(st);
          if (!m) continue;
          (*handle)(pid, *m);
          net.handled();
        }
      });
    }
  }

  ~ServerPool() { stop(); }

  ServerPool(const ServerPool&) = delete;
  ServerPool& operator=(const ServerPool&) = delete;

  void stop() {
    for (auto& t : threads_) t.request_stop();
    threads_.clear();
  }

 private:
  std::shared_ptr<Handler> handle_;  // shared by all server threads
  std::vector<std::jthread> threads_;
};

}  // namespace swsig::msgpass::detail
