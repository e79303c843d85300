#ifndef RELACC_TOPK_BATCH_CHECK_H_
#define RELACC_TOPK_BATCH_CHECK_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "chase/chase_engine.h"
#include "chase/specification.h"
#include "rules/grounding.h"
#include "topk/preference.h"
#include "util/thread_pool.h"

namespace relacc {

/// Runs the per-candidate `check` chase (ChaseEngine::CheckCandidate,
/// Sec. 6) for the top-k algorithms, fanned out over a ThreadPool when
/// wider than one. A ChaseEngine holds mutable run state — the
/// probe state that CheckCandidate chases on and rolls back — so engines
/// must not be shared between workers: the checker owns one engine per
/// worker slot, all built over the same (Ie, ground program, config) as
/// the prototype engine and sharing its immutable all-null checkpoint by
/// pointer. Worker engines live as long as the current binding (see
/// Rebind), so within one prototype each worker pays the one-time
/// probe-state copy once, then O(delta) per candidate; the thread pool
/// itself lives as long as the checker and serves every binding.
///
/// Verdicts are returned in candidate order, so callers consuming them in
/// order observe results independent of thread count and scheduling.
class CandidateChecker {
 public:
  /// `prototype` supplies Ie, the ground program and the chase config; it
  /// must outlive the checker (or be replaced via Rebind before the next
  /// CheckAll). `num_threads <= 1` means check inline on `prototype`
  /// itself: no pool and no per-worker engines are built. Implicit, so
  /// the top-k algorithms keep their engine call sites
  /// (`TopKCT(engine, masters, ...)` checks through a width-1 temporary).
  CandidateChecker(const ChaseEngine& prototype,  // NOLINT
                   int num_threads = 1);

  CandidateChecker(const CandidateChecker&) = delete;
  CandidateChecker& operator=(const CandidateChecker&) = delete;
  ~CandidateChecker();

  /// Points the checker at a new prototype — typically the next entity of
  /// a pipeline — keeping the thread pool (the expensive part: C spawned
  /// OS threads) alive across prototypes instead of tearing it down per
  /// entity. Worker engines are bound to (Ie, program, config) and so are
  /// always dropped here and lazily rebuilt over the new prototype on
  /// the next fan-out — never skipped on pointer equality, since
  /// `prototype` may be a new engine reusing a destroyed one's address;
  /// dropping them never touches the previous prototype or its program,
  /// so Rebind is safe to call after those have been destroyed.
  void Rebind(const ChaseEngine& prototype);

  /// The engine the checker is currently bound to; CheckAll verdicts are
  /// against this engine's specification.
  const ChaseEngine& prototype() const { return *prototype_; }

  int num_threads() const { return num_threads_; }

  /// How many candidates to gather before a CheckAll call: enough to keep
  /// every worker busy, small enough to bound the speculative checks past
  /// the k-th accepted target.
  int batch_size() const { return std::max(1, num_threads_ * 4); }

  /// Per-round gather cap for a search that still needs `remaining`
  /// accepts. 1 with one thread — the caller's loop then replays the
  /// paper's strictly sequential algorithm, stats and all; otherwise a
  /// pool-filling batch, shrunk toward `remaining` (never below the pool
  /// width) so a nearly-finished search does not speculate a full batch
  /// past its last accepted target.
  int RoundCap(int remaining) const {
    if (num_threads_ == 1) return 1;
    return std::min(batch_size(), std::max(num_threads_, remaining));
  }

  /// ChaseEngine::CheckCandidate for every candidate; verdicts[i]
  /// corresponds to candidates[i]. Candidates must satisfy its
  /// contract (complete, agreeing with the deduced target on its non-null
  /// attributes). Not itself thread-safe: one orchestrating caller at a
  /// time (the top-k search loops are sequential around it).
  std::vector<char> CheckAll(const std::vector<Tuple>& candidates) const;

 private:
  /// Spawns the pool (once per checker lifetime) and the per-slot engines
  /// (once per bound prototype) on the first batch that actually fans
  /// out, so callers that end up checking one candidate at a time never
  /// pay for idle workers.
  void EnsureWorkers() const;

  const ChaseEngine* prototype_;
  int num_threads_;
  mutable std::unique_ptr<ThreadPool> pool_;  ///< null until EnsureWorkers
  mutable std::vector<std::unique_ptr<ChaseEngine>> engines_;
};

/// The first `limit` completions of `te` over the top-k search space
/// (ForEachCompletion over BuildSearchSpace, odometer order); empty if a
/// domain is empty. Tests and benchmarks build candidate pools from it.
std::vector<Tuple> EnumerateCandidateProduct(
    const ColumnarRelation& ie, const MasterDomains& masters,
    const Tuple& te, bool include_default_values, std::size_t limit);

}  // namespace relacc

#endif  // RELACC_TOPK_BATCH_CHECK_H_
