#ifndef RELACC_PERFBENCH_REPLAY_H_
#define RELACC_PERFBENCH_REPLAY_H_

// The serial layer replay: the requests a workload sent through the
// service, replayed one layer function at a time —
//   Instantiate -> ChaseEngine -> RunFromCheckpoint -> ResumeWith ->
//   PreferenceModel::FromOccurrences -> TopKCT -> CheckCandidate
// (ResolveEntities runs before it, in the workloads that resolve). Each
// call is a span of the traced run, which is how time hidden inside one
// service call is split into layers. The replay is also the reference
// the workloads check the service's outputs against.

#include <cstdint>
#include <memory>

#include "chase/chase_engine.h"
#include "chase/specification.h"
#include "common.h"
#include "core/columnar.h"
#include "core/dictionary.h"
#include "pipeline/pipeline.h"
#include "topk/topk_ct.h"

namespace relacc {
namespace perfbench {

/// Work the replay did, summed over every replayed entity.
struct LayerCounts {
  int64_t entities = 0;
  int64_t ground_steps = 0;
  int64_t steps_applied = 0;  ///< chase steps of the checkpoint chases
  int64_t pairs_derived = 0;  ///< order pairs of the checkpoint chases
  int64_t resumes = 0;
  int64_t checks = 0;         ///< CheckCandidate calls on returned targets
  int64_t heap_pops = 0;
  int64_t queue_pops = 0;
  int64_t topk_targets = 0;
  int64_t topk_checks = 0;    ///< candidate checks run inside TopKCT
};

/// One entity's first answer: the deduced target and, when it is
/// incomplete, the ranked candidates.
struct DeduceReplay {
  bool church_rosser = false;
  Tuple deduced;
  TopKResult topk;
  bool targets_check = true;  ///< every returned target passes the check
};

/// True when `r`, replayed with k = 1, gives the verdict and final target
/// of a pipeline's per-entity report (the top candidate completes an
/// incomplete target).
bool MatchesReport(const DeduceReplay& r, const EntityReport& report);

/// One interactive session driven by the Exp-3 simulated user, with the
/// outcome fields of FrameworkResult (framework/framework.h).
struct InteractReplay {
  bool church_rosser = false;
  bool found_complete_target = false;
  Tuple target;
  bool targets_check = true;
};

class LayerReplay {
 public:
  /// `spec` supplies masters, rules and chase config; it must outlive
  /// the replay. `topk` are the top-k knobs the service calls ran with.
  LayerReplay(const Specification& spec, Tracer* tracer,
              TopKOptions topk = {})
      : spec_(spec), tracer_(tracer), topk_(topk) {}

  /// Grounds and chases `entity`; ranks `k` candidates when its target
  /// is incomplete, with TopKCT or (`heuristic`) TopKCTh.
  DeduceReplay Deduce(const Relation& entity, int k, int64_t request,
                      bool heuristic = false);

  /// The DriveInteraction loop (Suggest, then accept the truth when it
  /// is a candidate or reveal one true value) over the layer functions.
  InteractReplay Interact(const Relation& entity, const Tuple& truth, int k,
                          int max_rounds, int64_t request);

  const LayerCounts& counts() const { return counts_; }

 private:
  struct Built {
    std::unique_ptr<ColumnarRelation> cie;
    std::unique_ptr<GroundProgram> program;
    std::unique_ptr<ChaseEngine> engine;
    ChaseOutcome checkpoint;
  };
  Built Build(const Relation& entity, int64_t request);
  TopKResult Rank(const ChaseEngine& engine, const Relation& entity,
                  const Tuple& deduced, int k, bool heuristic,
                  int64_t request, bool* targets_check);

  const Specification& spec_;
  Tracer* tracer_;
  const TopKOptions topk_;
  Dictionary dict_;
  LayerCounts counts_;
};

}  // namespace perfbench
}  // namespace relacc

#endif  // RELACC_PERFBENCH_REPLAY_H_
