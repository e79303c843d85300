// Ablation: incremental re-chase (ChaseEngine::ResumeWith) versus a full
// re-run per framework round. The Fig. 3 loop re-chases after every user
// revision; resuming from the shared all-null terminal checkpoint skips
// replaying the axiom closure and everything already derived. Outcomes are
// identical (tests/test_incremental.cc); this bench quantifies the saving
// on Med-shaped entities of growing size.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "chase/chase_engine.h"
#include "common.h"
#include "datagen/profile_generator.h"

namespace {

using namespace relacc;  // NOLINT(build/namespaces): bench-local

EntityDataset MakeDataset(int mean_tuples) {
  ProfileConfig config = MedConfig(/*seed=*/7);
  config.num_entities = 24;
  config.master_size = 40;
  config.mean_extra_tuples = mean_tuples;
  config.min_tuples = mean_tuples;
  config.max_tuples = mean_tuples * 2;
  return GenerateProfile(config);
}

/// One revision round per null attribute of the deduced target, like the
/// framework does. `kIncremental` selects the re-chase strategy. Engines
/// (and the incremental path's checkpoint) persist across iterations, as
/// they do across rounds of one framework session; only the re-chase after
/// a revision is timed.
template <bool kIncremental>
void BM_Rechase(benchmark::State& state) {
  EntityDataset dataset = MakeDataset(static_cast<int>(state.range(0)));
  struct Prepared {
    Specification spec;
    std::unique_ptr<bench::EntityEngine> entity;
    std::vector<Tuple> revisions;  ///< one per null attribute of the target
  };
  std::vector<std::unique_ptr<Prepared>> prepared;
  for (size_t i = 0; i < dataset.entities.size(); ++i) {
    auto p = std::make_unique<Prepared>();
    p->spec = dataset.SpecFor(static_cast<int>(i));
    p->entity = std::make_unique<bench::EntityEngine>(p->spec);
    const ChaseEngine& engine = p->entity->engine;
    ChaseOutcome base = engine.RunFromInitial();
    if (!base.church_rosser) continue;
    const Tuple& truth = dataset.truths[i];
    const int num_attrs = p->spec.ie.schema().size();
    for (AttrId a = 0; a < num_attrs; ++a) {
      if (!base.target.at(a).is_null() || truth.at(a).is_null()) continue;
      Tuple revision(std::vector<Value>(num_attrs, Value::Null()));
      revision.set(a, truth.at(a));
      p->revisions.push_back(std::move(revision));
    }
    if (kIncremental) {
      // Warm the checkpoint outside the timed region, as TopKCT's check
      // calls do in a real framework session.
      Tuple all_null(std::vector<Value>(num_attrs, Value::Null()));
      benchmark::DoNotOptimize(engine.ResumeWith(all_null).church_rosser);
    }
    // At least two distinct revisions per entity: ResumeWith keeps a
    // persistent session, so repeating one identical revision would
    // measure its no-op extension path instead of an incremental
    // re-chase. Alternating incompatible revisions resets the session
    // every call, which is the re-chase this ablation is about.
    if (p->revisions.size() >= 2) prepared.push_back(std::move(p));
  }

  int64_t rounds = 0;
  for (auto _ : state) {
    for (const std::unique_ptr<Prepared>& p : prepared) {
      const ChaseEngine& engine = p->entity->engine;
      for (const Tuple& revision : p->revisions) {
        ChaseOutcome out = kIncremental ? engine.ResumeWith(revision)
                                        : engine.Run(revision);
        benchmark::DoNotOptimize(out.church_rosser);
        ++rounds;
      }
    }
  }
  state.SetItemsProcessed(rounds);
  state.counters["revision_rounds"] =
      benchmark::Counter(static_cast<double>(rounds));
}

void BM_FullRechase(benchmark::State& state) { BM_Rechase<false>(state); }
void BM_IncrementalRechase(benchmark::State& state) {
  BM_Rechase<true>(state);
}

BENCHMARK(BM_FullRechase)->Arg(4)->Arg(16)->Arg(40);
BENCHMARK(BM_IncrementalRechase)->Arg(4)->Arg(16)->Arg(40);

}  // namespace

BENCHMARK_MAIN();
