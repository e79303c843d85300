#include "order/partial_order.h"

#include <unordered_map>

namespace relacc {

PartialOrder::PartialOrder(std::vector<TermId> column)
    : n_(static_cast<int>(column.size())),
      stride_((column.size() + 63) / 64),
      column_(std::move(column)) {
  succ_.assign(static_cast<std::size_t>(n_) * stride_, 0);
  pred_.assign(static_cast<std::size_t>(n_) * stride_, 0);
  in_count_.assign(n_, 0);
  if (n_ == 1) greatest_ = 0;  // a singleton instance is trivially greatest
}

namespace {

/// Local interning for the Value convenience ctor: ids carry exactly the
/// equivalence classes of Value::operator== (ValueHash hashes
/// numeric-equal values identically), nulls all map to kNullTermId.
std::vector<TermId> InternColumn(const std::vector<Value>& column) {
  std::vector<TermId> ids;
  ids.reserve(column.size());
  std::unordered_map<Value, TermId, ValueHash> index;
  TermId next = kNullTermId + 1;
  for (const Value& v : column) {
    if (v.is_null()) {
      ids.push_back(kNullTermId);
      continue;
    }
    auto [it, inserted] = index.try_emplace(v, next);
    if (inserted) ++next;
    ids.push_back(it->second);
  }
  return ids;
}

}  // namespace

PartialOrder::PartialOrder(const std::vector<Value>& column)
    : PartialOrder(InternColumn(column)) {}

bool PartialOrder::AddPair(int i, int j,
                           std::vector<std::pair<int, int>>* new_pairs,
                           bool* conflict) {
  if (i == j || TestBit(succ_, i, j)) return false;
  // Sources: i plus everything that reaches i (snapshot — pred_[i] row may
  // gain bits mid-loop only when i is also a target, which the snapshot
  // makes safe). Targets: j plus everything j reaches (that row is stable:
  // it only mutates when the source equals j, where the missing-bit scan
  // is empty). The snapshot buffer is a member so a warmed-up insertion
  // allocates nothing — anchor cascades call AddPair O(n·|dup|) times
  // per chase continuation.
  std::vector<int>& sources = sources_scratch_;
  sources.clear();
  sources.push_back(i);
  {
    const uint64_t* row = &pred_[Row(i)];
    for (std::size_t w = 0; w < stride_; ++w) {
      uint64_t bits = row[w];
      while (bits) {
        const int b = __builtin_ctzll(bits);
        sources.push_back(static_cast<int>(w * 64) + b);
        bits &= bits - 1;
      }
    }
  }

  for (int a : sources) {
    auto consider = [&](int b) {
      if (a == b || TestBit(succ_, a, b)) return;
      SetBit(succ_, a, b);
      SetBit(pred_, b, a);
      if (trail_on_) trail_.emplace_back(a, b);
      if (++in_count_[b] == n_ - 1) {
        if (trail_on_) greatest_trail_.emplace_back(trail_.size(), greatest_);
        greatest_ = b;
      }
      new_pairs->emplace_back(a, b);
      if (TestBit(succ_, b, a) && column_[a] != column_[b]) {
        *conflict = true;
      }
    };
    consider(j);
    // Missing targets for a: succ_[j] \ succ_[a] (word-parallel scan).
    const std::size_t row_a = Row(a);
    const std::size_t row_j = Row(j);
    for (std::size_t w = 0; w < stride_; ++w) {
      uint64_t bits = succ_[row_j + w] & ~succ_[row_a + w];
      while (bits) {
        const int b = __builtin_ctzll(bits);
        consider(static_cast<int>(w * 64) + b);
        bits &= bits - 1;
      }
    }
  }
  // Leave the scratch empty (capacity retained): a copy of this order
  // must not pay for a stale snapshot.
  sources.clear();
  return true;
}

void PartialOrder::UndoTo(Mark mark) {
  while (trail_.size() > mark) {
    const auto [a, b] = trail_.back();
    trail_.pop_back();
    ClearBit(succ_, a, b);
    ClearBit(pred_, b, a);
    --in_count_[b];
  }
  // Replay the greatest-element history backwards; the last assignment is
  // the value in force at the mark.
  while (!greatest_trail_.empty() && greatest_trail_.back().first > mark) {
    greatest_ = greatest_trail_.back().second;
    greatest_trail_.pop_back();
  }
}

PartialOrder PartialOrder::CopyWithoutTrail() const {
  PartialOrder copy(column_);
  copy.succ_ = succ_;
  copy.pred_ = pred_;
  copy.in_count_ = in_count_;
  copy.greatest_ = greatest_;
  return copy;
}

PartialOrder PartialOrder::RestoreClosed(std::vector<TermId> column,
                                         const uint64_t* succ_words) {
  PartialOrder order(std::move(column));
  const std::size_t words = static_cast<std::size_t>(order.n_) * order.stride_;
  order.succ_.assign(succ_words, succ_words + words);
  for (int i = 0; i < order.n_; ++i) {
    const std::size_t row = order.Row(i);
    for (std::size_t w = 0; w < order.stride_; ++w) {
      uint64_t bits = order.succ_[row + w];
      while (bits) {
        const int j = static_cast<int>(w * 64) + __builtin_ctzll(bits);
        bits &= bits - 1;
        order.SetBit(order.pred_, j, i);
        ++order.in_count_[j];
      }
    }
  }
  for (int j = 0; j < order.n_; ++j) {
    if (order.in_count_[j] == order.n_ - 1) {
      order.greatest_ = j;
      break;
    }
  }
  return order;
}

std::size_t PartialOrder::PairCount() const {
  std::size_t total = 0;
  for (uint64_t w : succ_) {
    total += static_cast<std::size_t>(__builtin_popcountll(w));
  }
  return total;
}

}  // namespace relacc
