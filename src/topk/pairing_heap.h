#ifndef RELACC_TOPK_PAIRING_HEAP_H_
#define RELACC_TOPK_PAIRING_HEAP_H_

#include <cstddef>
#include <deque>
#include <utility>

namespace relacc {

/// A max-priority queue with O(1) push/meld and O(log n) amortized pop.
///
/// The paper's TopKCT uses a Brodal queue [Brodal, SODA'96] for its
/// worst-case bounds. TopKCT's cost analysis (Sec. 6.2) is phrased in total
/// operation counts, for which a pairing heap delivers the same amortized
/// complexity with far smaller constants; the structure is swappable (see
/// bench/ablation_queue, which compares against std::priority_queue).
///
/// Compare(a, b) returns true when `a` has *lower* priority than `b`
/// (std::less semantics → max-heap), matching std::priority_queue.
template <typename T, typename Compare>
class PairingHeap {
 public:
  explicit PairingHeap(Compare cmp = Compare()) : cmp_(std::move(cmp)) {}

  bool empty() const { return root_ == nullptr; }
  std::size_t size() const { return size_; }

  /// O(1).
  void Push(T value) {
    Node* node = NewNode(std::move(value));
    root_ = Merge(root_, node);
    ++size_;
  }

  /// Highest-priority element. Precondition: !empty().
  const T& Top() const { return root_->value; }

  /// Removes and returns the highest-priority element. O(log n) amortized.
  T Pop() {
    Node* old_root = root_;
    root_ = MergePairs(old_root->child);
    --size_;
    T out = std::move(old_root->value);
    free_list_.push_back(old_root);
    return out;
  }

  /// Destructive meld: `other` becomes empty. O(1).
  void Meld(PairingHeap* other) {
    root_ = Merge(root_, other->root_);
    size_ += other->size_;
    other->root_ = nullptr;
    other->size_ = 0;
    // Note: nodes of `other` stay owned by other's pool; keep `other`
    // alive while this heap is in use, or use a shared pool. TopKCT only
    // needs single-heap operation; Meld exists for the rank-join substrate.
  }

 private:
  struct Node {
    T value;
    Node* child = nullptr;    ///< leftmost child
    Node* sibling = nullptr;  ///< next sibling
    explicit Node(T v) : value(std::move(v)) {}
  };

  Node* NewNode(T value) {
    if (!free_list_.empty()) {
      Node* n = free_list_.back();
      free_list_.pop_back();
      n->value = std::move(value);
      n->child = nullptr;
      n->sibling = nullptr;
      return n;
    }
    pool_.emplace_back(std::move(value));
    return &pool_.back();
  }

  Node* Merge(Node* a, Node* b) {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    if (cmp_(a->value, b->value)) std::swap(a, b);  // a wins (max at root)
    b->sibling = a->child;
    a->child = b;
    return a;
  }

  /// Two-pass pairing of a sibling list.
  Node* MergePairs(Node* first) {
    if (first == nullptr || first->sibling == nullptr) return first;
    Node* second = first->sibling;
    Node* rest = second->sibling;
    first->sibling = nullptr;
    second->sibling = nullptr;
    return Merge(Merge(first, second), MergePairs(rest));
  }

  Compare cmp_;
  Node* root_ = nullptr;
  std::size_t size_ = 0;
  std::deque<Node> pool_;
  std::deque<Node*> free_list_;
};

}  // namespace relacc

#endif  // RELACC_TOPK_PAIRING_HEAP_H_
