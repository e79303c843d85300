#ifndef RELACC_BENCH_TOPK_SWEEP_H_
#define RELACC_BENCH_TOPK_SWEEP_H_

// Shared driver for the top-k coverage figures 6(b)/(c)/(f)/(g).

#include "common.h"

namespace relacc {
namespace bench {

/// Fig. 6(b)/(f): coverage (% of entities whose true target is among the
/// top-k candidates) as k varies, for TopKCT under the three Σ filters and
/// TopKCTh under both forms. `sample` caps the number of entities.
inline void RunKSweep(const EntityDataset& ds, int sample) {
  const int n = std::min<int>(sample, static_cast<int>(ds.entities.size()));
  const std::vector<int> ks = {5, 10, 15, 20, 25};
  struct Series {
    const char* label;
    TopKAlgo algo;
    RuleFormFilter filter;
  };
  const std::vector<Series> series = {
      {"TopKCT  form (1) only", TopKAlgo::kTopKCT, RuleFormFilter::kForm1Only},
      {"TopKCT  form (2) only", TopKAlgo::kTopKCT, RuleFormFilter::kForm2Only},
      {"TopKCT  both forms   ", TopKAlgo::kTopKCT, RuleFormFilter::kBoth},
      {"TopKCTh both forms   ", TopKAlgo::kTopKCTh, RuleFormFilter::kBoth},
  };
  std::printf("%-24s", "series \\ k");
  for (int k : ks) std::printf("  k=%-4d", k);
  std::printf("\n");
  for (const Series& s : series) {
    const SharedRules shared(ds, ds.masters, s.filter);
    std::vector<int> hits(ks.size(), 0);
    for (int i = 0; i < n; ++i) {
      const int rank = TruthRank(s.algo, ds, i, shared, ks.back());
      if (rank == 0) continue;
      for (std::size_t j = 0; j < ks.size(); ++j) {
        if (rank <= ks[j]) ++hits[j];
      }
    }
    std::printf("%-24s", s.label);
    for (std::size_t j = 0; j < ks.size(); ++j) {
      std::printf("  %s", Pct(static_cast<double>(hits[j]) / n).c_str());
    }
    std::printf("\n");
  }
}

/// Fig. 6(c)/(g): coverage at k=15 as ‖Im‖ varies, for TopKCT and TopKCTh.
inline void RunImSweep(const EntityDataset& ds, const std::vector<int>& sizes,
                       int sample) {
  const int n = std::min<int>(sample, static_cast<int>(ds.entities.size()));
  const int k = 15;
  for (const TopKAlgo algo : {TopKAlgo::kTopKCT, TopKAlgo::kTopKCTh}) {
    std::printf("%-10s", AlgoName(algo));
    for (int size : sizes) {
      const std::vector<Relation> masters = ds.TruncatedMasters(size);
      const SharedRules shared(ds, masters, RuleFormFilter::kBoth);
      int hits = 0;
      for (int i = 0; i < n; ++i) {
        const int rank = TruthRank(algo, ds, i, shared, k);
        if (rank > 0 && rank <= k) ++hits;
      }
      std::printf("  |Im|=%-5d %s", size,
                  Pct(static_cast<double>(hits) / n).c_str());
    }
    std::printf("\n");
  }
}

}  // namespace bench
}  // namespace relacc

#endif  // RELACC_BENCH_TOPK_SWEEP_H_
