#ifndef RELACC_PIPELINE_PIPELINE_H_
#define RELACC_PIPELINE_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "chase/specification.h"
#include "core/relation.h"
#include "er/resolver.h"
#include "topk/preference.h"
#include "topk/topk_ct.h"

namespace relacc {

/// How the pipeline fills target attributes the chase leaves null.
enum class CompletionPolicy {
  kLeaveNull,      ///< report the incomplete target as-is
  kBestCandidate,  ///< take the top-1 candidate target (TopKCT, k=1)
  kHeuristic,      ///< TopKCTh top-1 (PTIME; for wide-open targets)
};

/// How the pipeline spends its single thread budget. The two phases run
/// non-overlapping — entity-parallel chasing first, then candidate
/// completion — so they time-multiplex the budget instead of multiplying
/// it (the pre-budget behaviour could spawn entity pool ×
/// topk.num_threads checker threads, one pool per in-flight entity).
///
/// The completion phase is itself two-dimensional: `completion_workers`
/// entities complete concurrently (one slot-pooled CandidateChecker per
/// worker, Rebind-reused across entities), and each worker's checker
/// fans its candidate batches out over `check_threads` engines. The
/// budget invariant is therefore
///
///   chase_threads <= budget  and
///   completion_workers * check_threads <= budget,
///
/// i.e. at most `budget` threads are ever doing chase work at once in
/// either phase.
struct PipelineThreadPlan {
  int chase_threads = 1;       ///< entity slots of the phase-1 chase pool
  int completion_workers = 1;  ///< entities completed concurrently (phase 2)
  int check_threads = 1;       ///< per-worker candidate-check fan-out width
};

/// Splits `budget` (<= 0: hardware concurrency) for `num_entities`: the
/// chase phase takes one slot per entity up to the budget; the
/// completion phase prefers entity-level parallelism — one worker per
/// entity up to the budget, since the per-entity serial costs
/// (preference model, candidate enumeration, checker rebind) dominate
/// for small entities — and hands each worker an equal share of the
/// remaining width for its check batches (the whole budget when a
/// single entity is in flight, reproducing the old one-wide-checker
/// schedule).
PipelineThreadPlan ComputePipelineThreadPlan(int budget,
                                             int64_t num_entities);

/// Options of the whole-database accuracy pipeline.
struct PipelineOptions {
  /// Total worker-thread budget for the whole run; <= 0 selects hardware
  /// concurrency. ComputePipelineThreadPlan turns it into the two-phase
  /// plan above; this is the only threading knob the pipeline honours.
  int num_threads = 0;
  CompletionPolicy completion = CompletionPolicy::kBestCandidate;
  /// Per-entity top-k knobs. `topk.num_threads` and `topk.checker` are
  /// overridden by the thread plan — the budget above is the only
  /// threading knob the pipeline honours.
  TopKOptions topk;
  ChaseConfig chase;
  /// Occurrence-count preference weights are built per entity instance
  /// (plus masters) unless the caller supplies a model via `preference`.
  const PreferenceModel* preference = nullptr;
};

/// Per-entity outcome of the pipeline.
struct EntityReport {
  int64_t entity_id = -1;
  int num_tuples = 0;
  bool church_rosser = false;
  bool complete = false;          ///< target complete after completion policy
  bool used_candidate = false;    ///< completion policy filled some attribute
  int deduced_attrs = 0;          ///< non-null attrs deduced by the chase alone
  Tuple target;
  std::string violation;          ///< when !church_rosser
};

/// Aggregate outcome: one report per entity (input order), a relation of
/// the final targets (one row per Church-Rosser entity, aligned with
/// `row_entity`), and summary counters.
struct PipelineReport {
  std::vector<EntityReport> entities;
  Relation targets;
  std::vector<int> row_entity;    ///< targets row -> index into `entities`

  /// The thread split this run used (tests assert the budget invariant).
  PipelineThreadPlan plan;

  int64_t total_tuples = 0;
  int num_church_rosser = 0;
  int num_complete_by_chase = 0;  ///< complete with no candidate needed
  int num_completed_by_candidates = 0;
  int num_incomplete = 0;         ///< still null somewhere at the end
  int num_non_church_rosser = 0;

  /// Fraction of attributes (over CR entities) deduced by the chase alone —
  /// the pipeline-level analogue of Fig. 6(e).
  double deduced_attr_fraction = 0.0;
};

/// The whole-database accuracy pipeline — the paper's future-work scenario
/// ("improving the accuracy of data in a database", Sec. 8) built from the
/// library's parts, in two phases under one thread budget
/// (options.num_threads; see PipelineThreadPlan):
///
///  1. chase — per entity, ground Σ and run IsCR, entity-parallel. The
///     engine (grounding, indexes, warm all-null checkpoint) of every
///     entity whose target stays incomplete is kept alive for phase 2
///     instead of being torn down and rebuilt.
///  2. completion — incomplete entities complete concurrently across the
///     plan's `completion_workers` slots (reports reduced in input
///     order); each slot's candidate `check` chases run through a
///     slot-pooled CandidateChecker of `check_threads` width, rebound
///     per entity.
///
/// The phases alternate over bounded windows of entities, so the peak
/// number of kept-alive engines is independent of how many targets stay
/// incomplete.
///
/// Reports are ordered deterministically by input position and identical
/// for every budget and completion-phase width.
///
/// Deprecated: this is now a thin shim — one AccuracyService pipeline
/// session submitted in a single batch (api/accuracy_service.h). New code
/// should create the service once and stream entities through
/// StartPipeline(), which bounds memory by the window instead of the
/// input size and reports errors as Status rather than silently
/// overriding caller-set TopKOptions threading knobs the way this entry
/// point historically did.
[[deprecated(
    "use AccuracyService::StartPipeline (api/accuracy_service.h)")]]
PipelineReport RunPipeline(const std::vector<EntityInstance>& entities,
                           const std::vector<Relation>& masters,
                           const std::vector<AccuracyRule>& rules,
                           const PipelineOptions& options = {});

/// Convenience entry point from a flat relation: resolve entities first
/// (src/er), then run the pipeline over the clusters. Deprecated like
/// RunPipeline; resolve with ResolveEntities and stream the clusters
/// through AccuracyService::StartPipeline instead.
[[deprecated(
    "use ResolveEntities + AccuracyService::StartPipeline "
    "(api/accuracy_service.h)")]]
PipelineReport RunPipelineOnFlat(const Relation& flat,
                                 const ResolverConfig& resolver_config,
                                 const std::vector<Relation>& masters,
                                 const std::vector<AccuracyRule>& rules,
                                 const PipelineOptions& options = {});

}  // namespace relacc

#endif  // RELACC_PIPELINE_PIPELINE_H_
