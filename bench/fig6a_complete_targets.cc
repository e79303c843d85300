// Fig. 6(a): percentage of entities for which IsCR automatically deduces a
// complete target tuple. Paper: Med 66%, CFP 72%.

#include "common.h"

using namespace relacc;
using namespace relacc::bench;

namespace {

void RunDataset(const EntityDataset& ds) {
  const SharedRules shared(ds, ds.masters, RuleFormFilter::kBoth);
  int cr = 0, complete = 0, complete_correct = 0;
  for (std::size_t i = 0; i < ds.entities.size(); ++i) {
    const EntityOutcome out = ChaseEntity(ds, static_cast<int>(i), shared);
    cr += out.church_rosser;
    complete += out.complete;
    complete_correct += out.complete_correct;
  }
  const double n = static_cast<double>(ds.entities.size());
  std::printf("%-4s | entities %5zu | Church-Rosser %s | complete te %s | "
              "complete & correct %s\n",
              ds.name.c_str(), ds.entities.size(), Pct(cr / n).c_str(),
              Pct(complete / n).c_str(), Pct(complete_correct / n).c_str());
}

}  // namespace

int main() {
  std::printf("== Fig 6(a): %% of entities with a complete deduced target "
              "(paper: Med 66%%, CFP 72%%) ==\n");
  RunDataset(GenerateProfile(MedConfig()));
  RunDataset(GenerateProfile(CfpConfig()));
  return 0;
}
