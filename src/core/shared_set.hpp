// Copy-on-write set: the register-held witness sets of Algorithms 1 and 2.
//
// A witness set only grows, and every register read hands out a copy of it.
// With a plain std::set each copy clones the whole history of signed
// values, so a read's cost grows with the run. SharedSet copies share one
// std::set; a mutation clones it only when another copy still refers to it:
//   * inserting a value the set already holds does not clone;
//   * a range insert clones at most once;
//   * == compares the shared storage first, then the contents.
//
// Thread safety is that of a value type: distinct SharedSet objects may be
// used from distinct threads even when they share storage, because the
// shared std::set is never mutated while another copy refers to it. A copy
// can only be made from an object its holder can reach, so a use count of
// one means no other thread can start sharing the storage meanwhile.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <set>
#include <utility>

namespace swsig::core {

template <typename V>
class SharedSet {
 public:
  using Set = std::set<V>;
  using value_type = V;
  using size_type = std::size_t;
  using const_iterator = typename Set::const_iterator;

  SharedSet() = default;
  SharedSet(std::initializer_list<V> init)
      : SharedSet(Set(init.begin(), init.end())) {}
  explicit SharedSet(Set values)
      : set_(values.empty() ? nullptr
                            : std::make_shared<Set>(std::move(values))) {}

  const_iterator begin() const { return view().begin(); }
  const_iterator end() const { return view().end(); }
  size_type size() const { return set_ ? set_->size() : 0; }
  bool empty() const { return size() == 0; }
  bool contains(const V& v) const { return set_ && set_->contains(v); }

  // Inserts v; clones the shared storage only if v is new and another copy
  // still refers to it. Returns true iff v was new.
  bool insert(const V& v) {
    if (contains(v)) return false;
    own().insert(v);
    return true;
  }

  // Inserts [first, last), cloning the shared storage at most once (and
  // not at all when every value is already present).
  template <typename It>
  void insert(It first, It last) {
    first = std::find_if(first, last, [&](const V& v) { return !contains(v); });
    if (first == last) return;
    own().insert(first, last);
  }

  // True iff both copies refer to the same storage (the cheap == case).
  bool shares_storage_with(const SharedSet& other) const {
    return set_ == other.set_;
  }

  friend bool operator==(const SharedSet& a, const SharedSet& b) {
    return a.set_ == b.set_ || a.view() == b.view();
  }

 private:
  static const Set& empty_set() {
    static const Set kEmpty;
    return kEmpty;
  }
  const Set& view() const { return set_ ? *set_ : empty_set(); }

  // The storage, made private to this copy first if it is shared. The
  // acquire fence pairs with the release decrement of the last other
  // holder, so its reads happen before our writes.
  Set& own() {
    if (!set_) {
      set_ = std::make_shared<Set>();
    } else if (set_.use_count() != 1) {
      set_ = std::make_shared<Set>(*set_);
    } else {
      std::atomic_thread_fence(std::memory_order_acquire);
    }
    return *set_;
  }

  std::shared_ptr<Set> set_;  // null = empty
};

}  // namespace swsig::core
