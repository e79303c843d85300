// Exp-5 (CFP): truth discovery on CFP with k=1 — % of entities whose
// *complete true* target is derived, plus attribute-level accuracy.
// Paper: voting 37%, DeduceOrder 0% (31% of attribute values), TopKCT 70%;
// IsCR alone deduces 83% of attribute values.

#include "common.h"
#include "truth/deduce_order.h"
#include "truth/voting.h"

using namespace relacc;
using namespace relacc::bench;

int main() {
  std::printf("== Exp-5: truth discovery on CFP, k=1 "
              "(paper: voting 37%%, DeduceOrder 0%%, TopKCT 70%%) ==\n");
  const EntityDataset ds = GenerateProfile(CfpConfig());
  const int n = static_cast<int>(ds.entities.size());

  const SharedRules shared(ds.masters, ds.rules);
  int vote_hits = 0, deduce_hits = 0, topk_hits = 0;
  double deduce_attrs = 0.0, iscr_attrs = 0.0;
  for (int i = 0; i < n; ++i) {
    const Tuple& truth = ds.truths[i];
    // voting: complete tuple by per-attribute majority.
    if (VoteEntity(ds.entities[i]) == truth) ++vote_hits;

    // DeduceOrder: currency rules + CFDs only, certain values only.
    Specification spec = ds.SpecFor(i);
    const Tuple deduced = RunDeduceOrder(spec);
    if (deduced == truth) ++deduce_hits;
    deduce_attrs += CompareTarget(deduced, truth).attrs_correct;

    // TopKCT with k=1 on the full AR set.
    const EntityEngine entity(shared, ds.entities[i], ds.chase_config);
    const ChaseEngine& engine = entity.engine;
    const ChaseOutcome out = engine.RunFromInitial();
    if (!out.church_rosser) continue;
    iscr_attrs += CompareTarget(out.target, truth).attrs_correct;
    if (out.target.IsComplete()) {
      if (out.target == truth) ++topk_hits;
      continue;
    }
    const PreferenceModel pref =
        PreferenceModel::FromOccurrences(entity.cie, shared.domains);
    const TopKResult r = TopKCT(engine, shared.domains, out.target, pref, 1);
    if (!r.targets.empty() && r.targets[0] == truth) ++topk_hits;
  }
  const double dn = static_cast<double>(n);
  std::printf("complete true targets:  voting %s | DeduceOrder %s | "
              "TopKCT %s\n",
              Pct(vote_hits / dn).c_str(), Pct(deduce_hits / dn).c_str(),
              Pct(topk_hits / dn).c_str());
  std::printf("attribute values:       DeduceOrder %s | IsCR (full Σ) %s\n",
              Pct(deduce_attrs / dn).c_str(), Pct(iscr_attrs / dn).c_str());
  return 0;
}
