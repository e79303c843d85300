#ifndef RELACC_CORE_DICTIONARY_H_
#define RELACC_CORE_DICTIONARY_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <unordered_map>

#include "core/value.h"

namespace relacc {

/// Dense id of an interned term. Ids are assigned in first-intern order
/// and never reused; id 0 is reserved for the null value.
using TermId = uint32_t;

/// The id every null Value interns to. Columnar null bitmaps and chase
/// te slots test against this instead of Value::is_null().
inline constexpr TermId kNullTermId = 0;

/// A thread-safe, append-only term dictionary mapping Value <-> TermId
/// (the EDB-layer trick of rule engines over large databases: intern each
/// distinct constant once, then ground and chase on integer ids).
///
/// Interning is type-aware exactly like Value::operator==/Value::Hash:
/// int 3 and double 3.0 compare equal, hash equal, and therefore share
/// one id. The stored representative is the first-interned Value; use
/// MaterializeAs to coerce it back to a schema column type at row-adapter
/// boundaries.
///
/// Concurrency contract:
///  * Intern/Lookup may be called from any number of threads (readers
///    take a shared lock; the insert slow path an exclusive one).
///  * value(id) is lock-free and wait-free for any id obtained from a
///    completed Intern/Lookup: ids index geometric "shelves" (fixed-size
///    arrays published once via atomic pointers), so growth never moves
///    an existing Value and readers never observe a partially built slot.
///  * Ids are stable forever (append-only); nothing is ever deleted.
class Dictionary {
 public:
  Dictionary();
  ~Dictionary();

  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;

  /// Id of `v`, interning it first if new. Null always maps to
  /// kNullTermId. Thread-safe.
  TermId Intern(const Value& v);

  /// Id of `v` if already interned (null -> kNullTermId), else nullopt.
  /// Thread-safe; never inserts.
  std::optional<TermId> Lookup(const Value& v) const;

  /// Bulk-load fast path (the snapshot loader): appends `v` as the next
  /// id WITHOUT touching the hash index — no hashing, one move into the
  /// shelf — and marks the index stale. The next Intern/Lookup rebuilds
  /// it in one pass, so a service that never interns again (the O(1)
  /// warm-start read path) never pays for the index at all. The caller
  /// vouches that `v` is non-null and not already present (the snapshot
  /// stream is distinct by construction and CRC-guarded); a duplicate
  /// would alias two ids and break id stability. Thread-safe, but a
  /// load is normally single-threaded before the dictionary is shared.
  TermId AppendForLoad(Value v);

  /// The interned Value behind `id`. Lock-free; `id` must come from a
  /// completed Intern/Lookup on this dictionary.
  const Value& value(TermId id) const {
    const int s = ShelfOf(id);
    return shelves_[s].load(std::memory_order_acquire)[id - ShelfStart(s)];
  }

  /// Number of assigned ids, including the reserved null slot.
  std::size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Rough heap footprint of the interned terms (shelves + index), for
  /// bench reporting. Not exact; RSS is the ground truth.
  std::size_t ApproxBytes() const;

 private:
  // Shelf s holds kShelfBase << s slots; shelf starts are the geometric
  // prefix sums, so 22 shelves cover the full 32-bit id space.
  static constexpr uint32_t kShelfBaseLog2 = 10;
  static constexpr uint32_t kShelfBase = 1u << kShelfBaseLog2;
  static constexpr int kMaxShelves = 22;

  static int ShelfOf(TermId id) {
    return std::bit_width((id >> kShelfBaseLog2) + 1u) - 1;
  }
  static uint32_t ShelfStart(int s) {
    return ((1u << s) - 1u) << kShelfBaseLog2;
  }
  static uint32_t ShelfCapacity(int s) { return kShelfBase << s; }

  /// Rebuilds index_ from the shelves when AppendForLoad left it stale.
  void RebuildIndex() const;

  std::array<std::atomic<Value*>, kMaxShelves> shelves_;
  std::atomic<std::size_t> size_{0};

  /// Set by AppendForLoad; cleared by RebuildIndex. Checked before the
  /// index is consulted, so bulk-loaded terms are never missed.
  mutable std::atomic<bool> index_stale_{false};

  mutable std::shared_mutex mu_;
  mutable std::unordered_map<Value, TermId, ValueHash> index_;
};

/// Materializes `id` as a Value of the schema column type `as`: numeric
/// representatives are coerced (exactly — cross-type interning only ever
/// merges numerically equal values) so a column declared kInt yields
/// Value::Int even when a double was interned first, so row adapters and
/// chase outcomes carry the boundary values. Non-numeric or
/// non-coercible representatives are returned as stored.
Value MaterializeAs(const Dictionary& dict, TermId id, ValueType as);

}  // namespace relacc

#endif  // RELACC_CORE_DICTIONARY_H_
