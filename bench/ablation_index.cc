// Ablation: the chase index H (Sec. 5, Fig. 4). Algorithm IsCR's cost bound
// O((|Ie|² + |Im|)·|Σ|) rests on the watch-list index over ground steps:
// each event (order pair derived / te attribute set) touches only the
// steps that mention it, and NextStep is O(1). This bench compares the
// indexed engine (chase/chase_engine.h) against the naive re-scan fixpoint
// that the explainer uses (chase/explain.h, kept simple on purpose) as the
// entity instance grows.

#include <benchmark/benchmark.h>

#include "chase/chase_engine.h"
#include "chase/explain.h"
#include "datagen/profile_generator.h"

namespace {

using namespace relacc;  // NOLINT(build/namespaces): bench-local

EntityDataset MakeDataset(int tuples_per_entity) {
  ProfileConfig config = MedConfig(/*seed=*/13);
  config.num_entities = 12;
  config.master_size = 24;
  config.min_tuples = tuples_per_entity;
  config.mean_extra_tuples = tuples_per_entity;
  config.max_tuples = tuples_per_entity * 2;
  return GenerateProfile(config);
}

void BM_IndexedChase(benchmark::State& state) {
  EntityDataset dataset = MakeDataset(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (size_t i = 0; i < dataset.entities.size(); ++i) {
      Specification spec = dataset.SpecFor(static_cast<int>(i));
      ChaseOutcome outcome = IsCR(spec);
      benchmark::DoNotOptimize(outcome.church_rosser);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.entities.size()));
}
BENCHMARK(BM_IndexedChase)->Arg(4)->Arg(12)->Arg(28)
    ->Unit(benchmark::kMillisecond);

void BM_NaiveRescanChase(benchmark::State& state) {
  EntityDataset dataset = MakeDataset(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (size_t i = 0; i < dataset.entities.size(); ++i) {
      Specification spec = dataset.SpecFor(static_cast<int>(i));
      ExplainedChase explained(spec);
      benchmark::DoNotOptimize(explained.church_rosser());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.entities.size()));
}
BENCHMARK(BM_NaiveRescanChase)->Arg(4)->Arg(12)->Arg(28)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
