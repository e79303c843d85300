// Fig. 6(e): average percentage of attributes whose most accurate value is
// deduced, with Σ restricted to ARs of form (1) only / form (2) only /
// both. Paper: Med 42/20/73, CFP 55/27/83. The headline finding — the two
// forms *interact* (both > form1 + form2 alone) — must reproduce.

#include "common.h"

using namespace relacc;
using namespace relacc::bench;

namespace {

double AvgDeduced(const EntityDataset& ds, RuleFormFilter filter) {
  const SharedRules shared(ds, ds.masters, filter);
  double sum = 0.0;
  for (std::size_t i = 0; i < ds.entities.size(); ++i) {
    sum += ChaseEntity(ds, static_cast<int>(i), shared).quality.attrs_deduced;
  }
  return sum / static_cast<double>(ds.entities.size());
}

void RunDataset(const EntityDataset& ds) {
  const double f1 = AvgDeduced(ds, RuleFormFilter::kForm1Only);
  const double f2 = AvgDeduced(ds, RuleFormFilter::kForm2Only);
  const double both = AvgDeduced(ds, RuleFormFilter::kBoth);
  std::printf("%-4s | form (1) only %s | form (2) only %s | both %s | "
              "interaction: both exceeds max(single-form) by %+.1f pts\n",
              ds.name.c_str(), Pct(f1).c_str(), Pct(f2).c_str(),
              Pct(both).c_str(), 100.0 * (both - std::max(f1, f2)));
}

}  // namespace

int main() {
  std::printf("== Fig 6(e): %% attributes deduced by AR form "
              "(paper: Med 42/20/73, CFP 55/27/83) ==\n");
  RunDataset(GenerateProfile(MedConfig()));
  RunDataset(GenerateProfile(CfpConfig()));
  return 0;
}
