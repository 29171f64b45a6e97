// Message type for the simulated asynchronous network.
//
// A message is a typed tag (obs::MsgTag, the closed protocol vocabulary)
// plus an immutable, shared payload. The payload is built once by the
// sender and shared by reference across every copy of a broadcast, every
// STATE reply and every server that stores it — this is an in-process
// simulation, so "sending" a value is handing out another reference to the
// same bytes (design note 17 in docs/ARCHITECTURE.md). Channels are
// authenticated: `from` is stamped by the network from the sender's bound
// ProcessId, so a Byzantine process can send arbitrary CONTENT — any type,
// any value, an empty payload — but cannot spoof its identity — the
// standard Byzantine message-passing model ([11], [13]).
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "obs/event.hpp"
#include "runtime/process.hpp"

namespace swsig::msgpass {

// An immutable, reference-counted, type-checked payload. Copying a Payload
// copies a handle, never the value. Receivers read it with get<T>(), which
// returns nullptr for an empty payload or one built from another type — the
// in-process stand-in for a failed deserialization, so endpoints drop it.
class Payload {
 public:
  Payload() = default;

  // Shares an existing handle (a null handle makes an empty payload).
  template <typename T>
  explicit Payload(std::shared_ptr<const T> value)
      : ptr_(std::move(value)), type_(&TypeKey<T>::id) {}

  // Builds the one shared copy of `value`.
  template <typename T>
  static Payload of(T&& value) {
    using U = std::remove_cvref_t<T>;
    return Payload(std::make_shared<const U>(std::forward<T>(value)));
  }

  // The value if this payload holds a T, else nullptr.
  template <typename T>
  const T* get() const {
    return type_ == &TypeKey<T>::id ? static_cast<const T*>(ptr_.get())
                                    : nullptr;
  }

  // A typed handle sharing ownership, or null when get<T>() would be.
  template <typename T>
  std::shared_ptr<const T> share() const {
    if (get<T>() == nullptr) return {};
    return std::static_pointer_cast<const T>(ptr_);
  }

 private:
  // One address per type: a pointer compare, no RTTI string compare.
  template <typename T>
  struct TypeKey {
    static constexpr char id = 0;
  };

  std::shared_ptr<const void> ptr_;
  const char* type_ = nullptr;
};

struct Message {
  runtime::ProcessId from = runtime::kNoProcess;  // stamped by Network::send
  runtime::ProcessId to = runtime::kNoProcess;
  int reg = 0;                             // instance id (dispatch key)
  obs::MsgTag tag = obs::MsgTag::kOther;   // WRITE, ECHO, ACCEPT, ACK, ...
  std::uint64_t sn = 0;                    // sequence number / read id
  Payload payload;                         // shared, interpreted by endpoint
};

}  // namespace swsig::msgpass
