// Table 4: truth discovery on Rest (which restaurants are closed?).
// Paper:
//   DeduceOrder                      P 1.00  R 0.15  F1 0.26
//   voting                           P 0.62  R 0.92  F1 0.74
//   copyCEF                          P 0.76  R 0.85  F1 0.80
//   TopKCT (voting preference)       P 0.73  R 0.95  F1 0.82
//   TopKCT (copyCEF preference)      P 0.81  R 0.88  F1 0.85
// Shape to reproduce: DeduceOrder = precision champion with poor recall;
// copyCEF beats voting on F1; ARs lift both preference variants, and the
// copyCEF-preference variant is the overall best.

#include "common.h"
#include "datagen/rest_generator.h"
#include "truth/copy_cef.h"
#include "truth/deduce_order.h"
#include "truth/voting.h"

using namespace relacc;
using namespace relacc::bench;

namespace {

void Report(const char* name, const std::vector<Value>& decisions,
            const std::vector<bool>& truth) {
  const BinaryMetrics m =
      ComputeBinaryMetrics(decisions, truth, Value::Bool(true));
  std::printf("%-28s P %.2f  R %.2f  F1 %.2f\n", name, m.precision, m.recall,
              m.f1);
}

}  // namespace

int main() {
  RestConfig config;  // full scale: 5149 restaurants, 12 sources, 8 weeks
  const RestDataset ds = GenerateRest(config);
  std::printf("== Table 4: truth discovery on Rest (%d restaurants, "
              "%zu claims) ==\n",
              config.num_restaurants, ds.claims.claims().size());

  // --- baselines -----------------------------------------------------------
  Report("voting", VoteClaims(ds.claims), ds.truly_closed);

  CopyCefConfig cef_cfg;
  cef_cfg.n_false_values = 1;  // boolean attribute
  const CopyCefResult cef = RunCopyCef(ds.claims, cef_cfg);
  Report("copyCEF", cef.Decisions(), ds.truly_closed);

  const AttrId closed = ds.schema.MustIndexOf("closed");
  std::vector<Value> deduce(config.num_restaurants, Value::Null());
  std::vector<Value> topk_vote(config.num_restaurants, Value::Null());
  std::vector<Value> topk_cef(config.num_restaurants, Value::Null());
  // Rest has no master data: every restaurant's program shares one empty
  // master block.
  const std::vector<Relation> no_masters;
  const SharedRules shared(no_masters, ds.rules);
  for (int o = 0; o < config.num_restaurants; ++o) {
    const EntityInstance inst = ds.InstanceFor(o);
    if (inst.empty()) continue;
    Specification spec;
    spec.ie = inst;
    spec.rules = ds.rules;
    spec.config = ds.chase_config;
    deduce[o] = RunDeduceOrder(spec).at(closed);

    const EntityEngine entity(shared, inst, spec.config);

    const ChaseEngine& engine = entity.engine;
    const ChaseOutcome out = engine.RunFromInitial();
    if (!out.church_rosser) continue;
    if (!out.target.at(closed).is_null()) {
      topk_vote[o] = out.target.at(closed);
      topk_cef[o] = out.target.at(closed);
      continue;
    }
    // TopKCT with k=1, once with occurrence-count weights (voting-style
    // preference) and once with copyCEF's posteriors as weights.
    const PreferenceModel vote_pref =
        PreferenceModel::FromOccurrences(entity.cie, shared.domains);
    const TopKResult rv =
        TopKCT(engine, shared.domains, out.target, vote_pref, 1);
    if (!rv.targets.empty()) topk_vote[o] = rv.targets[0].at(closed);

    PreferenceModel cef_pref = vote_pref;
    for (const auto& [value, prob] : cef.value_probs[o]) {
      // Scale into the occurrence-count range so the closed? weight
      // dominates ties without dwarfing the other attributes.
      cef_pref.SetWeight(closed, value, prob * 10.0);
    }
    const TopKResult rc =
        TopKCT(engine, shared.domains, out.target, cef_pref, 1);
    if (!rc.targets.empty()) topk_cef[o] = rc.targets[0].at(closed);
  }
  Report("DeduceOrder", deduce, ds.truly_closed);
  Report("TopKCT (voting pref)", topk_vote, ds.truly_closed);
  Report("TopKCT (copyCEF pref)", topk_cef, ds.truly_closed);
  return 0;
}
