#ifndef RELACC_TOPK_TOPK_CT_H_
#define RELACC_TOPK_TOPK_CT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "chase/chase_engine.h"
#include "chase/specification.h"
#include "topk/preference.h"

namespace relacc {

class CandidateChecker;  // topk/batch_check.h

/// Options shared by the top-k algorithms.
struct TopKOptions {
  /// Include the synthetic default value ⊥ in infinite active domains
  /// (Sec. 6.1: "at most one more distinct value from dom(Ai)").
  bool include_default_values = false;

  /// Safety cap on priority-queue pops / join results inspected; the
  /// problem is NPO-complete (Thm. 5) so worst cases are exponential.
  /// -1 = unbounded.
  int64_t max_expansions = 1'000'000;

  /// Skip the candidate-target check (used internally by TopKCTh to obtain
  /// its unvalidated seeds; exposed for ablations).
  bool skip_check = false;

  /// TopKCTh only: greedy repair tries at most this many replacement values
  /// per attribute per seed (the heuristic trades completeness for time,
  /// Sec. 6.3); -1 = unbounded.
  int max_repair_values = 4;

  /// Workers for the candidate-target `check` (see topk/batch_check.h).
  /// With 1 the algorithms run their original strictly-sequential loops;
  /// with more, checks are batched and fanned out over a thread pool with
  /// one ChaseEngine per worker (each holding a long-lived probe state,
  /// all sharing the prototype's checkpoint by pointer). Ranked results
  /// (targets and scores) are identical for every thread count; the
  /// stats counters may report more work with >1 threads because batch
  /// members past the k-th accepted target are checked speculatively.
  /// <= 0 is treated as 1. Superseded by `checker` when that is set.
  int num_threads = 1;

  /// External candidate checker to run the `check` chases through. When
  /// set it must be bound (CandidateChecker ctor / Rebind) to the same
  /// engine passed to the algorithm, and its width supersedes
  /// `num_threads`; the algorithm then reuses its thread pool and warm
  /// per-worker probe states instead of building and tearing down its
  /// own per call — the pipeline rebinds one checker per entity and the
  /// interactive framework keeps one across revision rounds. Null: each
  /// call owns a private checker over `num_threads`. Internal seed
  /// phases that skip the check (TopKCTh) always use a private inline
  /// checker so their stats stay identical with and without injection.
  const CandidateChecker* checker = nullptr;
};

/// Result of a top-k computation.
struct TopKResult {
  std::vector<Tuple> targets;      ///< accepted candidate targets, best first
  std::vector<double> scores;      ///< p({t}) for each target
  int64_t queue_pops = 0;          ///< priority-queue / join-result pops
  int64_t heap_pops = 0;           ///< total ValueHeap pops (Prop. 7 metric)
  int64_t checks = 0;              ///< candidate-target chase runs
  bool exhausted_budget = false;   ///< stopped by max_expansions
};

/// Algorithm TopKCT (Fig. 5): Brodal-queue-based best-first search over the
/// lattice of value combinations for the null attributes of the deduced
/// target `te`. Does not require ranked lists; instance optimal w.r.t.
/// ValueHeap pops (Prop. 7), with the early-termination property.
///
/// `engine` supplies Ie (and runs the `check`); `masters` contributes the
/// master portion of the active domains.
TopKResult TopKCT(const ChaseEngine& engine,
                  const std::vector<Relation>& masters,
                  const Tuple& deduced_te, const PreferenceModel& pref, int k,
                  const TopKOptions& opts = {});

/// Algorithm TopKCTh (Sec. 6.3): PTIME heuristic — runs TopKCT without the
/// check to obtain k seeds, then greedily repairs each seed with active-
/// domain values until the check passes. Accepted tuples are guaranteed
/// candidate targets but not necessarily of maximal score.
TopKResult TopKCTh(const ChaseEngine& engine,
                   const std::vector<Relation>& masters,
                   const Tuple& deduced_te, const PreferenceModel& pref,
                   int k, const TopKOptions& opts = {});

/// Shared by TopKCT and RankJoinCT: the deterministic gather-check-accept
/// loop around a CandidateChecker. `produce` yields the next candidate
/// (tuple + score) in the algorithm's sequential inspection order, false
/// when the search space is exhausted; each produced candidate counts one
/// queue_pop against opts.max_expansions. Candidates are checked in
/// RoundCap-sized batches and accepted in production order until k pass,
/// so the ranked result is identical for every thread count — batch
/// members past the k-th acceptance are speculative and discarded.
///
/// `has_more` is consulted (without consuming) only when the pop budget
/// runs out, to decide whether exhausted_budget is honest: a source that
/// is empty at that exact boundary completed its search and reports
/// false, matching the pre-batching loops. Sources without a cheap peek
/// may return true unconditionally (budget-first semantics).
void RunBatchedAcceptLoop(const CandidateChecker& checker,
                          const TopKOptions& opts, int k,
                          const std::function<bool()>& has_more,
                          const std::function<bool(Tuple*, double*)>& produce,
                          TopKResult* result);

/// Exhaustive reference oracle for tests: enumerates the full product of
/// active domains, checks every combination, and returns the k best.
/// Exponential; only usable on tiny instances.
TopKResult TopKBruteForce(const ChaseEngine& engine,
                          const std::vector<Relation>& masters,
                          const Tuple& deduced_te, const PreferenceModel& pref,
                          int k, const TopKOptions& opts = {});

}  // namespace relacc

#endif  // RELACC_TOPK_TOPK_CT_H_
