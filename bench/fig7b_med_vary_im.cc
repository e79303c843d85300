// Fig. 7(b): Med — per-entity elapsed top-k time as ‖Im‖ grows from 0 to
// 2400 (k=15). Paper: flat-ish and under 500ms for all three algorithms.

#include "common.h"

using namespace relacc;
using namespace relacc::bench;

int main() {
  std::printf("== Fig 7(b): Med per-entity top-k time vs |Im| ==\n");
  const EntityDataset ds = GenerateProfile(MedConfig());
  const std::vector<int> sizes = {0, 600, 1200, 1800, 2400};
  const int sample = 60;
  std::printf("%-12s", "|Im|");
  for (int s : sizes) std::printf("  %8d", s);
  std::printf("\n");
  std::vector<double> times[3];
  for (int size : sizes) {
    const std::vector<Relation> masters = ds.TruncatedMasters(size);
    const SharedRules shared(ds, masters, RuleFormFilter::kBoth);
    const TopKAlgo algos[3] = {TopKAlgo::kRankJoinCT, TopKAlgo::kTopKCT,
                               TopKAlgo::kTopKCTh};
    for (int a = 0; a < 3; ++a) {
      double total = 0.0;
      int counted = 0;
      for (int i = 0; i < sample; ++i) {
        const EntityEngine entity(shared, ds.entities[i], ds.chase_config);
        const ChaseEngine& engine = entity.engine;
        const ChaseOutcome out = engine.RunFromInitial();
        if (!out.church_rosser || out.target.IsComplete()) continue;
        const PreferenceModel pref =
            PreferenceModel::FromOccurrences(entity.cie, shared.domains);
        total += TimeMs([&] {
          (void)RunTopK(algos[a], engine, shared.domains, out.target, pref,
                        15);
        });
        ++counted;
      }
      times[a].push_back(counted > 0 ? total / counted : 0.0);
    }
  }
  const char* names[3] = {"RankJoinCT", "TopKCT", "TopKCTh"};
  for (int a = 0; a < 3; ++a) {
    std::printf("%-12s", names[a]);
    for (double t : times[a]) std::printf("  %6.3fms", t);
    std::printf("\n");
  }
  std::printf("(avg per incomplete entity among the first %d)\n", sample);
  return 0;
}
