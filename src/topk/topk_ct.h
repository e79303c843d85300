#ifndef RELACC_TOPK_TOPK_CT_H_
#define RELACC_TOPK_TOPK_CT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "chase/chase_engine.h"
#include "chase/specification.h"
#include "topk/preference.h"

namespace relacc {

/// Options shared by the top-k algorithms.
struct TopKOptions {
  /// Include the synthetic default value ⊥ in infinite active domains
  /// (Sec. 6.1: "at most one more distinct value from dom(Ai)").
  bool include_default_values = false;

  /// Safety cap on priority-queue pops / join results inspected; the
  /// problem is NPO-complete (Thm. 5) so worst cases are exponential.
  /// -1 = unbounded.
  int64_t max_expansions = 1'000'000;
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
/// `engine` supplies the encoded Ie (ChaseEngine::encoded_ie()) and runs
/// every `check` (ChaseEngine::CheckCandidate), one candidate per pop in
/// the search's order, so `checks` counts exactly the candidates
/// examined. `masters` contributes the master portion of the active
/// domains (pass a service's shared tables; a row master vector converts
/// to a private set). The search space comes from BuildSearchSpace
/// (topk/preference.h), shared by all four algorithms; ties among equal
/// scores follow its domain order.
TopKResult TopKCT(const ChaseEngine& engine, const MasterDomains& masters,
                  const Tuple& deduced_te, const PreferenceModel& pref, int k,
                  const TopKOptions& opts = {});

/// Algorithm TopKCTh (Sec. 6.3): PTIME heuristic — runs TopKCT without the
/// check to obtain k seeds, then checks each seed in order and greedily
/// repairs a failing one with active-domain values until the check
/// passes. Both phases share one search space; `queue_pops` and
/// `heap_pops` count the seed search. Accepted tuples are guaranteed
/// candidate targets but not necessarily of maximal score.
TopKResult TopKCTh(const ChaseEngine& engine, const MasterDomains& masters,
                   const Tuple& deduced_te, const PreferenceModel& pref,
                   int k, const TopKOptions& opts = {});

/// Shared by TopKCT and RankJoinCT: the pop-check-accept loop. `produce`
/// yields the next candidate (tuple + score) in the algorithm's
/// inspection order, false when the search space is exhausted; each
/// produced candidate counts one queue_pop against opts.max_expansions
/// and one check on `engine`, and is accepted when the check passes,
/// until k are accepted. A null `engine` accepts every candidate
/// unchecked (TopKCTh's seeds).
///
/// `has_more` is consulted (without consuming) only when the pop budget
/// runs out, to decide whether exhausted_budget is honest: a source that
/// is empty at that exact boundary completed its search and reports
/// false. Sources without a cheap peek may return true unconditionally
/// (budget-first semantics).
void RunAcceptLoop(const ChaseEngine* engine, const TopKOptions& opts, int k,
                   const std::function<bool()>& has_more,
                   const std::function<bool(Tuple*, double*)>& produce,
                   TopKResult* result);

/// Exhaustive reference oracle for tests: enumerates the full product of
/// active domains (ForEachCompletion), checks every combination in
/// enumeration order, and returns the k best.
/// Exponential; only usable on tiny instances.
TopKResult TopKBruteForce(const ChaseEngine& engine,
                          const MasterDomains& masters,
                          const Tuple& deduced_te, const PreferenceModel& pref,
                          int k, const TopKOptions& opts = {});

}  // namespace relacc

#endif  // RELACC_TOPK_TOPK_CT_H_
