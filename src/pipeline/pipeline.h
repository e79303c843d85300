#ifndef RELACC_PIPELINE_PIPELINE_H_
#define RELACC_PIPELINE_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/relation.h"

namespace relacc {

// Policy, thread-plan and report types of the whole-database accuracy
// pipeline — the paper's future-work scenario ("improving the accuracy of
// data in a database", Sec. 8). The pipeline itself runs as a streaming
// AccuracyService session (StartPipeline, api/accuracy_service.h).

/// How the pipeline fills target attributes the chase leaves null.
enum class CompletionPolicy {
  kLeaveNull,      ///< report the incomplete target as-is
  kBestCandidate,  ///< take the top-1 candidate target (TopKCT, k=1)
  kHeuristic,      ///< TopKCTh top-1 (PTIME; for wide-open targets)
};

/// How the pipeline spends its single thread budget. The two phases run
/// non-overlapping — entity-parallel chasing first, then candidate
/// completion — so they time-multiplex the budget instead of multiplying
/// it (the pre-budget behaviour could spawn entity pool × checker
/// threads, one pool per in-flight entity).
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

}  // namespace relacc

#endif  // RELACC_PIPELINE_PIPELINE_H_
