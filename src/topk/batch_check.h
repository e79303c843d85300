#ifndef RELACC_TOPK_BATCH_CHECK_H_
#define RELACC_TOPK_BATCH_CHECK_H_

#include <memory>
#include <vector>

#include "chase/chase_engine.h"
#include "chase/specification.h"
#include "rules/grounding.h"
#include "topk/preference.h"
#include "util/thread_pool.h"

namespace relacc {

/// The batch `check` behind AccuracyService::CheckCandidates: runs
/// ChaseEngine::CheckCandidate (Sec. 6) for a batch of candidates, fanned
/// out over a ThreadPool when wider than one. A ChaseEngine holds mutable
/// run state — the probe state that CheckCandidate chases on and rolls
/// back — so engines must not be shared between workers: the checker
/// owns one engine per worker slot, all built over the same (Ie, ground
/// program, config) as the prototype engine and sharing its immutable
/// all-null checkpoint by pointer. Each worker pays the one-time
/// probe-state copy once, then O(delta) per candidate.
///
/// Verdicts are returned in candidate order, independent of thread count
/// and scheduling.
class CandidateChecker {
 public:
  /// `prototype` supplies Ie, the ground program and the chase config and
  /// must outlive the checker. `num_threads <= 1` means check inline on
  /// `prototype` itself: no pool and no per-worker engines are built.
  explicit CandidateChecker(const ChaseEngine& prototype, int num_threads);

  CandidateChecker(const CandidateChecker&) = delete;
  CandidateChecker& operator=(const CandidateChecker&) = delete;
  ~CandidateChecker();

  /// ChaseEngine::CheckCandidate for every candidate; verdicts[i]
  /// corresponds to candidates[i]. Candidates must satisfy its
  /// contract (complete, agreeing with the deduced target on its non-null
  /// attributes). Not itself thread-safe: one caller at a time.
  std::vector<char> CheckAll(const std::vector<Tuple>& candidates) const;

 private:
  /// Spawns the pool and the per-slot engines on the first batch that
  /// actually fans out, so a checker that only ever sees single
  /// candidates never pays for idle workers.
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
