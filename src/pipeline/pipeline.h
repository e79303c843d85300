#ifndef RELACC_PIPELINE_PIPELINE_H_
#define RELACC_PIPELINE_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/relation.h"

namespace relacc {

// Policy and report types of the whole-database accuracy pipeline — the
// paper's future-work scenario ("improving the accuracy of data in a
// database", Sec. 8). The pipeline itself runs as a streaming
// AccuracyService session (StartPipeline, api/accuracy_service.h).

/// How the pipeline fills target attributes the chase leaves null.
enum class CompletionPolicy {
  kLeaveNull,      ///< report the incomplete target as-is
  kBestCandidate,  ///< take the top-1 candidate target (TopKCT, k=1)
  kHeuristic,      ///< TopKCTh top-1 (PTIME; for wide-open targets)
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
