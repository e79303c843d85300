#ifndef RELACC_ORDER_PARTIAL_ORDER_H_
#define RELACC_ORDER_PARTIAL_ORDER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/dictionary.h"
#include "core/value.h"

namespace relacc {

/// The accuracy order ⪯_A over the tuples of one entity instance for one
/// attribute A (Sec. 2.1). Stored as a transitively-closed directed graph
/// over tuple indices; the strict order ≺_A is derived:
///     ti ≺_A tj   iff   ti ⪯_A tj  and  ti[A] ≠ tj[A].
///
/// Invariants maintained:
///  * transitivity (closure is taken incrementally on every insertion);
///  * a *conflict* — ti ⪯ tj ∧ tj ⪯ ti with ti[A] ≠ tj[A], i.e. a violation
///    of anti-symmetry of ≺ — is reported to the caller, who treats it as a
///    Church-Rosser violation (an invalid chase step).
///
/// The greatest element (a tuple t with t' ⪯ t for every other t') drives
/// the λ assignment of te[A] (Sec. 2.2); it is maintained in O(1) via
/// in-degree counting.
///
/// Representation: successor and predecessor adjacency bit-matrices in two
/// flat word arrays (row stride = ⌈n/64⌉). The flat layout keeps a copy
/// cheap — two memcpys, not 2n vector allocations — and candidate checks
/// avoid copies entirely: with the trail enabled, every inserted pair
/// (and every greatest-element change) is journaled, so Mark()/UndoTo()
/// roll a probe back in O(pairs inserted since the mark) instead of
/// O(n²/64) words.
class PartialOrder {
 public:
  /// `column` holds the interned term id of ti[A] for every tuple (nulls
  /// as kNullTermId); equal ids mean equal values, which defines
  /// strictness & conflicts. This is the storage-native constructor —
  /// the chase engine hands its dictionary-encoded columns in directly.
  explicit PartialOrder(std::vector<TermId> column);

  /// Convenience over raw Values: interns the column into local ids with
  /// exactly Value::operator== equivalence (cross-type numeric equality
  /// included) and delegates to the TermId constructor.
  explicit PartialOrder(const std::vector<Value>& column);

  int n() const { return n_; }

  /// ti ⪯_A tj? (Irreflexive storage: Reaches(i,i) is false by convention;
  /// reflexivity is immaterial to the chase.)
  bool Reaches(int i, int j) const {
    return i != j && TestBit(succ_, i, j);
  }

  /// ti ≺_A tj, derived per the class comment (id equality == value
  /// equality by the interning contract).
  bool Precedes(int i, int j) const {
    return Reaches(i, j) && column_[i] != column_[j];
  }

  /// Inserts i ⪯ j and transitively closes. Every newly derived pair
  /// (including (i,j) itself) is appended to `new_pairs`. If any new pair
  /// completes a cycle over differing values, *conflict is set (the
  /// structure is left closed but the chase must abort). Returns false —
  /// touching nothing — when the pair is already present or i == j.
  bool AddPair(int i, int j, std::vector<std::pair<int, int>>* new_pairs,
               bool* conflict);

  /// A tuple index t with t' ⪯ t for all t' ≠ t, or -1 if none. When
  /// several exist they carry equal values (otherwise a conflict would have
  /// been reported), so any witness is as good as another.
  int GreatestElement() const { return greatest_; }

  /// Number of ⪯ pairs currently stored (excluding the implicit diagonal).
  std::size_t PairCount() const;

  /// Opaque rollback point for the trail (see EnableTrail).
  using Mark = std::size_t;

  /// Starts journaling insertions so they can be undone. Typically called
  /// once, on the long-lived probe state the candidate check mutates in
  /// place; the all-null base chase never records (nothing undoes it).
  void EnableTrail() { trail_on_ = true; }
  bool trail_enabled() const { return trail_on_; }

  /// A copy of the current order without the journal: trail disabled,
  /// nothing to roll back. For materializing orders out of a
  /// trail-enabled state — e.g. a resume outcome under keep_orders — so
  /// the result matches the trail-free orders of a from-scratch run
  /// instead of paying for (and carrying) a journal nobody will ever
  /// undo.
  PartialOrder CopyWithoutTrail() const;

  /// The transitively-closed successor bit-matrix (n·stride words,
  /// row-major; stride = ⌈n/64⌉) — the only derived state a snapshot
  /// persists: predecessors are its transpose, in-degrees its column
  /// popcounts, and the greatest element the node of full in-degree,
  /// all recomputed by RestoreClosed.
  const std::vector<uint64_t>& successor_words() const { return succ_; }
  std::size_t stride() const { return stride_; }

  /// Rebuilds an order from its column and `n·stride` closed successor
  /// words previously exported with successor_words(): pred_ is the
  /// transpose, in-degrees and the greatest element are re-derived, the
  /// trail starts empty — the construction a snapshot load uses instead
  /// of replaying the chase that produced the pairs. Any full-in-degree
  /// witness is a valid greatest element (several can only coexist with
  /// equal values, hence equal TermIds, so λ is unaffected).
  static PartialOrder RestoreClosed(std::vector<TermId> column,
                                    const uint64_t* succ_words);

  /// Current trail position. Pairs inserted after a mark can be removed
  /// again with UndoTo(mark); marks are positions, so they nest naturally.
  Mark MarkTrail() const { return trail_.size(); }

  /// Rolls back every pair inserted since `mark` — bits, in-degrees and
  /// the greatest element — in O(pairs since mark). Requires the trail to
  /// have been enabled before those insertions.
  void UndoTo(Mark mark);

 private:
  std::size_t Row(int i) const {
    return static_cast<std::size_t>(i) * stride_;
  }
  bool TestBit(const std::vector<uint64_t>& m, int i, int j) const {
    return (m[Row(i) + (static_cast<unsigned>(j) >> 6)] >> (j & 63)) & 1u;
  }
  void SetBit(std::vector<uint64_t>& m, int i, int j) {
    m[Row(i) + (static_cast<unsigned>(j) >> 6)] |= uint64_t{1} << (j & 63);
  }
  void ClearBit(std::vector<uint64_t>& m, int i, int j) {
    m[Row(i) + (static_cast<unsigned>(j) >> 6)] &= ~(uint64_t{1} << (j & 63));
  }

  int n_ = 0;
  std::size_t stride_ = 0;  ///< words per row
  std::vector<TermId> column_;  ///< interned ti[A] per tuple
  std::vector<uint64_t> succ_;  ///< succ bit (i,j) <=> i ⪯ j
  std::vector<uint64_t> pred_;  ///< pred bit (j,i) <=> i ⪯ j
  std::vector<int> in_count_;   ///< predecessors per node
  int greatest_ = -1;

  bool trail_on_ = false;
  /// Reused by AddPair for its source-set snapshot (see the comment
  /// there); holding it here keeps warmed-up insertions allocation-free.
  std::vector<int> sources_scratch_;
  /// Journaled insertions, in order; entry k is pair (a ⪯ b).
  std::vector<std::pair<int32_t, int32_t>> trail_;
  /// (trail size right after the causing insertion, previous greatest).
  std::vector<std::pair<std::size_t, int32_t>> greatest_trail_;
};

}  // namespace relacc

#endif  // RELACC_ORDER_PARTIAL_ORDER_H_
