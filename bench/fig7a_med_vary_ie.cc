// Fig. 7(a): Med — per-entity elapsed time of the three top-k algorithms
// as the entity-instance size grows through the buckets [1,18], [19,36],
// [37,54], [55,72], [73,90]. Paper: all under 500ms; TopKCTh < TopKCT <
// RankJoinCT.

#include "common.h"

using namespace relacc;
using namespace relacc::bench;

int main() {
  std::printf("== Fig 7(a): Med per-entity top-k time vs |Ie| bucket ==\n");
  struct Bucket {
    int lo, hi;
  };
  const std::vector<Bucket> buckets = {{1, 18}, {19, 36}, {37, 54},
                                       {55, 72}, {73, 90}};
  std::printf("%-12s", "bucket");
  for (const Bucket& b : buckets) std::printf("  [%d,%d]\t", b.lo, b.hi);
  std::printf("\n");
  std::vector<double> times[3];
  for (const Bucket& b : buckets) {
    ProfileConfig c = MedConfig(90 + b.lo);
    c.num_entities = 40;
    c.master_size = 36;
    c.min_tuples = b.lo;
    c.max_tuples = b.hi;
    c.mean_extra_tuples = (b.hi - b.lo) / 2.0;
    const EntityDataset ds = GenerateProfile(c);
    const SharedRules shared(ds, ds.masters, RuleFormFilter::kBoth);
    const TopKAlgo algos[3] = {TopKAlgo::kRankJoinCT, TopKAlgo::kTopKCT,
                               TopKAlgo::kTopKCTh};
    for (int a = 0; a < 3; ++a) {
      double total = 0.0;
      int counted = 0;
      for (std::size_t i = 0; i < ds.entities.size(); ++i) {
        const EntityEngine entity(shared, ds.entities[i], ds.chase_config);
        const ChaseEngine& engine = entity.engine;
        const ChaseOutcome out = engine.RunFromInitial();
        if (!out.church_rosser || out.target.IsComplete()) continue;
        const PreferenceModel pref =
            PreferenceModel::FromOccurrences(entity.cie, shared.domains);
        (void)engine.CheckCandidate(ds.truths[i]);  // warm checkpoint
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
    for (double t : times[a]) std::printf("  %.3fms\t", t);
    std::printf("\n");
  }
  std::printf("(avg per incomplete entity, k=15, 40 entities per bucket)\n");
  return 0;
}
