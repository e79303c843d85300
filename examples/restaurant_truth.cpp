// Restaurant truth discovery: the Exp-5 / Table 4 scenario as a runnable
// example. Twelve web sources crawl Manhattan restaurant listings over
// eight weeks; we must decide which restaurants are closed. Compares
//   voting            — majority over each source's latest claim,
//   DeduceOrder [14]  — currency reasoning only (certain conclusions),
//   copyCEF [8]       — Bayesian source quality + copy detection,
//   TopKCT (k=1)      — this paper: ARs + chase + preference,
// against the generator's ground truth.

#include <cstdio>

#include "chase/chase_engine.h"
#include "core/columnar.h"
#include "core/dictionary.h"
#include "datagen/rest_generator.h"
#include "topk/topk_ct.h"
#include "truth/copy_cef.h"
#include "truth/deduce_order.h"
#include "truth/metrics.h"
#include "truth/voting.h"

using namespace relacc;

int main() {
  RestConfig config;
  config.num_restaurants = 800;  // an example-sized slice; bench/ runs 5149
  const RestDataset ds = GenerateRest(config);
  std::printf("== restaurant_truth: %d restaurants, %d sources, %d snapshots, "
              "%zu claims ==\n\n",
              config.num_restaurants, config.num_sources,
              config.num_snapshots, ds.claims.claims().size());

  auto report = [&](const char* name, const std::vector<Value>& decisions) {
    const BinaryMetrics m =
        ComputeBinaryMetrics(decisions, ds.truly_closed, Value::Bool(true));
    std::printf("%-22s precision %.2f  recall %.2f  F1 %.2f\n", name,
                m.precision, m.recall, m.f1);
  };

  // --- voting --------------------------------------------------------------
  report("voting", VoteClaims(ds.claims));

  // --- copyCEF ---------------------------------------------------------------
  CopyCefConfig cef;
  cef.n_false_values = 1;  // boolean attribute
  const CopyCefResult cef_result = RunCopyCef(ds.claims, cef);
  report("copyCEF", cef_result.Decisions());
  std::printf("  (copyCEF flagged source pairs with copy prob > 0.5: ");
  int flagged = 0;
  for (int a = 0; a < config.num_sources; ++a) {
    for (int b = 0; b < config.num_sources; ++b) {
      if (a != b && cef_result.copy_prob[a * config.num_sources + b] > 0.5) {
        ++flagged;
      }
    }
  }
  std::printf("%d; true copiers: %d)\n", flagged, config.num_copiers);

  // --- DeduceOrder and TopKCT per restaurant ---------------------------------
  const AttrId closed = ds.schema.MustIndexOf("closed");
  std::vector<Value> deduce(config.num_restaurants, Value::Null());
  std::vector<Value> topk_vote(config.num_restaurants, Value::Null());
  for (int o = 0; o < config.num_restaurants; ++o) {
    const EntityInstance inst = ds.InstanceFor(o);
    if (inst.empty()) continue;
    Specification spec;
    spec.ie = inst;
    spec.rules = ds.rules;
    spec.config = ds.chase_config;
    deduce[o] = RunDeduceOrder(spec).at(closed);

    // The engine chases dictionary-encoded columns; the row instance is
    // encoded once, at the boundary.
    Dictionary dict;
    const ColumnarRelation cie = ColumnarRelation::FromRelation(inst, &dict);
    const GroundProgram prog = Instantiate(cie, spec.masters, spec.rules);
    const ChaseEngine engine(cie, &prog, spec.config);
    const ChaseOutcome out = engine.RunFromInitial();
    if (!out.church_rosser) continue;
    if (!out.target.at(closed).is_null()) {
      topk_vote[o] = out.target.at(closed);
      continue;
    }
    const PreferenceModel pref =
        PreferenceModel::FromOccurrences(inst, spec.masters);
    const TopKResult r = TopKCT(engine, spec.masters, out.target, pref, 1);
    if (!r.targets.empty()) topk_vote[o] = r.targets[0].at(closed);
  }
  report("DeduceOrder", deduce);
  report("TopKCT (voting pref)", topk_vote);
  return 0;
}
