// Persistent set: the register-held witness sets of Algorithms 1 and 2.
//
// A witness set only grows, every register read hands out a copy of it, and
// every Sign (Alg. 1 L5) and adopt (L32) inserts into a copy that the
// register's replicas still hold. SharedSet makes all of that independent
// of the history:
//   * Contents are an immutable AVL tree. A copy is one reference-count
//     increment. An insert copies the O(log N) nodes on the path to the new
//     value (path copying) and shares every other node with the version it
//     came from; inserting a value the set holds allocates nothing.
//   * Lineage: every version also carries the values inserted into it, as
//     an immutable list of delta records, newest first, each stamped with
//     the set's size after it. for_each_added_since(base) walks that list
//     down to base's newest record and so yields exactly the values added
//     since base, in O(added), or reports that this set does not extend
//     base. The list holds values only, never old tree roots, so a live set
//     keeps no old version's tree alive.
//   * == compares storage first, then contents.
//
// The lineage cannot misstate the contents, because both come from one
// immutable root record made by the same insert: the delta list of a set
// is exactly its contents, a record is shared only by versions derived
// from the one that made it, and no public operation can pair a tree with
// another set's list. Code holding a set can only read it, copy it, insert
// into it or replace it — the ways a Byzantine process in this process's
// address space can build one — so "extends" is never forged in-process.
//
// Thread safety is that of a value type, without locks: nodes are never
// mutated after construction, and their reference counts are atomic.
// Releasing the last reference frees a tree recursively (depth <= its
// height, O(log N)) and a delta list iteratively, so a long history never
// recurses once per version.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <set>
#include <utility>

namespace swsig::core {

template <typename V>
class SharedSet {
  struct Node;
  struct Delta;
  struct Root;

  // Owning pointer to an immutable, reference-counted record.
  template <typename T>
  class Ref {
   public:
    Ref() = default;
    explicit Ref(const T* fresh) : p_(fresh) {}  // takes the first reference
    Ref(const Ref& o) : p_(o.p_) {
      if (p_) p_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Ref(Ref&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
    Ref& operator=(Ref o) noexcept {
      std::swap(p_, o.p_);
      return *this;
    }
    ~Ref() { release(p_); }

    const T* get() const { return p_; }
    const T* operator->() const { return p_; }
    explicit operator bool() const { return p_ != nullptr; }
    // Gives up the reference without releasing it.
    const T* leak() { return std::exchange(p_, nullptr); }

   private:
    const T* p_ = nullptr;
  };

 public:
  using value_type = V;
  using size_type = std::size_t;
  class const_iterator;

  SharedSet() = default;
  SharedSet(std::initializer_list<V> init)
      : SharedSet(std::set<V>(init.begin(), init.end())) {}
  explicit SharedSet(const std::set<V>& values) {
    if (values.empty()) return;
    auto it = values.begin();
    Ref<Node> tree = build(it, values.size());
    Ref<Delta> log;
    for (const V& v : values) log = Ref<Delta>(new Delta(std::move(log), v));
    root_ = Ref<Root>(new Root(std::move(tree), std::move(log)));
  }

  const_iterator begin() const { return const_iterator(tree()); }
  const_iterator end() const { return const_iterator(); }
  size_type size() const { return root_ ? root_->log->gen : 0; }
  bool empty() const { return !root_; }

  bool contains(const V& v) const {
    for (const Node* t = tree(); t != nullptr;) {
      if (v < t->value)
        t = t->left.get();
      else if (t->value < v)
        t = t->right.get();
      else
        return true;
    }
    return false;
  }

  // The largest value; the set must not be empty.
  const V& back() const {
    const Node* t = tree();
    while (t->right) t = t->right.get();
    return t->value;
  }

  // Inserts v; returns true iff v was new. O(log N) new nodes, none when v
  // is already present.
  bool insert(const V& v) {
    const size_type before = size();
    insert(&v, &v + 1);
    return size() != before;
  }

  // Inserts [first, last); one new version for the whole range (none when
  // every value is already present).
  template <typename It>
  void insert(It first, It last) {
    Ref<Node> tree = root_ ? root_->tree : Ref<Node>();
    Ref<Delta> log = root_ ? root_->log : Ref<Delta>();
    bool grew = false;
    for (; first != last; ++first) {
      Ref<Node> t = insert_into(tree.get(), *first);
      if (!t) continue;  // already present
      tree = std::move(t);
      log = Ref<Delta>(new Delta(std::move(log), *first));
      grew = true;
    }
    if (grew) root_ = Ref<Root>(new Root(std::move(tree), std::move(log)));
  }

  // If this set extends `base` — it is base, or was made from base by
  // inserts — calls fn(v) for every value added since base, newest first,
  // and returns true. Otherwise calls nothing and returns false. Either
  // way the cost is O(values added since base), not O(size()).
  template <typename Fn>
  bool for_each_added_since(const SharedSet& base, Fn&& fn) const {
    const Delta* stop = base.log();
    const size_type at = base.size();
    const Delta* d = log();
    while (d != nullptr && d->gen > at) d = d->prev.get();
    if (d != stop) return false;
    for (d = log(); d != stop; d = d->prev.get()) fn(d->value);
    return true;
  }

  // True iff both copies are the same version (the cheap == case).
  bool shares_storage_with(const SharedSet& other) const {
    return root_.get() == other.root_.get();
  }

  friend bool operator==(const SharedSet& a, const SharedSet& b) {
    return a.shares_storage_with(b) ||
           (a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin()));
  }

  // In-order iterator. It keeps the path to the current node on a fixed
  // stack: an AVL tree of N nodes is at most 1.44·log2(N + 2) high, under
  // kMaxHeight for any N that fits in memory.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = V;
    using difference_type = std::ptrdiff_t;
    using pointer = const V*;
    using reference = const V&;

    const_iterator() = default;
    const_iterator(const const_iterator& o) : depth_(o.depth_) {
      std::copy_n(o.path_, depth_, path_);
    }
    const_iterator& operator=(const const_iterator& o) {
      depth_ = o.depth_;
      std::copy_n(o.path_, depth_, path_);
      return *this;
    }

    reference operator*() const { return path_[depth_ - 1]->value; }
    pointer operator->() const { return &path_[depth_ - 1]->value; }
    const_iterator& operator++() {
      const Node* right = path_[--depth_]->right.get();
      descend_left(right);
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.depth_ == b.depth_ &&
             (a.depth_ == 0 || a.path_[a.depth_ - 1] == b.path_[b.depth_ - 1]);
    }

   private:
    friend class SharedSet;
    static constexpr int kMaxHeight = 48;

    explicit const_iterator(const Node* root) { descend_left(root); }
    void descend_left(const Node* t) {
      for (; t != nullptr; t = t->left.get()) path_[depth_++] = t;
    }

    const Node* path_[kMaxHeight];  // [0, depth_) live; top is current
    int depth_ = 0;
  };

 private:
  struct Node {
    Node(Ref<Node> l, const V& v, Ref<Node> r)
        : height(static_cast<std::uint8_t>(
              1 + std::max(height_of(l.get()), height_of(r.get())))),
          left(std::move(l)),
          right(std::move(r)),
          value(v) {}
    mutable std::atomic<std::uint32_t> refs{1};
    std::uint8_t height;
    Ref<Node> left, right;
    V value;
  };

  // One inserted value of a lineage, linked to the values inserted before.
  struct Delta {
    Delta(Ref<Delta> p, const V& v)
        : gen(p ? p->gen + 1 : 1), prev(std::move(p)), value(v) {}
    mutable std::atomic<std::uint32_t> refs{1};
    size_type gen;  // size of the set this record's insert produced
    Ref<Delta> prev;
    V value;
  };

  // One version: its contents and its lineage, made together.
  struct Root {
    Root(Ref<Node> t, Ref<Delta> l) : tree(std::move(t)), log(std::move(l)) {}
    mutable std::atomic<std::uint32_t> refs{1};
    Ref<Node> tree;
    Ref<Delta> log;  // never null: an empty set has no Root
  };

  // True iff the caller dropped the last reference and now owns *p.
  template <typename T>
  static bool last_ref(const T* p) {
    return p->refs.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }
  static void release(const Node* p) {
    if (p != nullptr && last_ref(p)) delete p;  // recursion <= tree height
  }
  static void release(const Root* p) {
    if (p != nullptr && last_ref(p)) delete p;
  }
  // A lineage is as long as the history: free it in a loop.
  static void release(const Delta* p) {
    while (p != nullptr && last_ref(p)) {
      const Delta* prev = const_cast<Delta*>(p)->prev.leak();
      delete p;
      p = prev;
    }
  }

  static int height_of(const Node* t) { return t ? t->height : 0; }

  static Ref<Node> node(Ref<Node> l, const V& v, Ref<Node> r) {
    return Ref<Node>(new Node(std::move(l), v, std::move(r)));
  }

  // A node over l, v, r that restores the AVL invariant after one insert
  // made one side two higher than the other.
  static Ref<Node> balance(Ref<Node> l, const V& v, Ref<Node> r) {
    const int hl = height_of(l.get());
    const int hr = height_of(r.get());
    if (hl > hr + 1) {
      const Node& a = *l.get();
      if (height_of(a.left.get()) >= height_of(a.right.get()))
        return node(a.left, a.value, node(a.right, v, std::move(r)));
      const Node& b = *a.right.get();
      return node(node(a.left, a.value, b.left), b.value,
                  node(b.right, v, std::move(r)));
    }
    if (hr > hl + 1) {
      const Node& a = *r.get();
      if (height_of(a.right.get()) >= height_of(a.left.get()))
        return node(node(std::move(l), v, a.left), a.value, a.right);
      const Node& b = *a.left.get();
      return node(node(std::move(l), v, b.left), b.value,
                  node(b.right, a.value, a.right));
    }
    return node(std::move(l), v, std::move(r));
  }

  // t with v inserted, sharing every node off v's path; null if t holds v.
  static Ref<Node> insert_into(const Node* t, const V& v) {
    if (t == nullptr) return node({}, v, {});
    if (v < t->value) {
      Ref<Node> l = insert_into(t->left.get(), v);
      return l ? balance(std::move(l), t->value, t->right) : Ref<Node>();
    }
    if (t->value < v) {
      Ref<Node> r = insert_into(t->right.get(), v);
      return r ? balance(t->left, t->value, std::move(r)) : Ref<Node>();
    }
    return {};
  }

  // A perfectly balanced tree of the next `count` values of a sorted,
  // duplicate-free sequence whose elements outlive the call.
  template <typename It>
  static Ref<Node> build(It& it, size_type count) {
    if (count == 0) return {};
    Ref<Node> l = build(it, count / 2);
    const V& v = *it++;
    Ref<Node> r = build(it, count - count / 2 - 1);
    return node(std::move(l), v, std::move(r));
  }

  const Node* tree() const { return root_ ? root_->tree.get() : nullptr; }
  const Delta* log() const { return root_ ? root_->log.get() : nullptr; }

  Ref<Root> root_;  // null = empty
};

}  // namespace swsig::core
