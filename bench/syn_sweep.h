#ifndef RELACC_BENCH_SYN_SWEEP_H_
#define RELACC_BENCH_SYN_SWEEP_H_

// Shared driver for the Syn efficiency figures 6(i)-(l): elapsed time of
// RankJoinCT / TopKCT / TopKCTh while one of (‖Ie‖, ‖Σ‖, ‖Im‖, k) varies
// and the others stay at the paper's defaults (900, 60, 300, 15).

#include "common.h"
#include "datagen/syn_generator.h"

namespace relacc {
namespace bench {

struct SynPoint {
  int x;
  SynConfig config;
  int k = 15;
};

inline void RunSynSweep(const char* x_label,
                        const std::vector<SynPoint>& points) {
  std::printf("%-8s", x_label);
  for (const SynPoint& p : points) std::printf("  %8d", p.x);
  std::printf("\n");
  // One generated dataset + engine per point, shared by the 3 algorithms
  // (the paper also reuses the deduced target across algorithms).
  std::vector<double> times[3];
  for (const SynPoint& p : points) {
    const SynDataset syn = GenerateSyn(p.config);
    const EntityEngine entity(syn.spec);
    const ChaseEngine& engine = entity.engine;
    const ChaseOutcome out = engine.RunFromInitial();
    if (!out.church_rosser) {
      std::fprintf(stderr, "syn spec not CR at x=%d: %s\n", p.x,
                   out.violation.c_str());
      for (auto& t : times) t.push_back(-1.0);
      continue;
    }
    // Warm the check checkpoint so all algorithms pay the same base cost.
    (void)engine.CheckCandidate(syn.spec.ie.tuple(0));
    const MasterDomains domains(syn.spec.masters);
    const TopKAlgo algos[3] = {TopKAlgo::kRankJoinCT, TopKAlgo::kTopKCT,
                               TopKAlgo::kTopKCTh};
    for (int a = 0; a < 3; ++a) {
      TopKResult result;
      const double ms = TimeMs([&] {
        result =
            RunTopK(algos[a], engine, domains, out.target, syn.pref, p.k);
      });
      times[a].push_back(ms);
    }
  }
  const char* names[3] = {"RankJoinCT", "TopKCT", "TopKCTh"};
  for (int a = 0; a < 3; ++a) {
    std::printf("%-10s (ms)", names[a]);
    for (double t : times[a]) std::printf("  %8.1f", t);
    std::printf("\n");
  }
}

}  // namespace bench
}  // namespace relacc

#endif  // RELACC_BENCH_SYN_SWEEP_H_
