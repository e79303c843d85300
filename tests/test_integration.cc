// Cross-module integration tests: the full pipelines the examples and
// benchmarks are built on, at miniature scale, with hard assertions.

#include <gtest/gtest.h>

#include "chase/chase_engine.h"
#include "datagen/profile_generator.h"
#include "datagen/rest_generator.h"
#include "datagen/syn_generator.h"
#include "er/resolver.h"
#include "framework/framework.h"
#include "service_fixture.h"
#include "topk/rank_join_ct.h"
#include "topk/topk_ct.h"
#include "truth/copy_cef.h"
#include "truth/deduce_order.h"
#include "truth/metrics.h"
#include "truth/voting.h"

namespace relacc {
namespace {

using testing_fixture::EncodedEngine;

TEST(Integration, MedSliceEndToEnd) {
  // Generate -> chase -> top-k -> framework, asserting quality bars that
  // the Fig. 6 benches report at full scale.
  ProfileConfig c = MedConfig(77);
  c.num_entities = 60;
  c.master_size = 53;
  const EntityDataset ds = GenerateProfile(c);

  int complete = 0, found_by_framework = 0;
  for (std::size_t i = 0; i < ds.entities.size(); ++i) {
    Specification spec = ds.SpecFor(static_cast<int>(i));
    const ChaseOutcome out = IsCR(spec);
    ASSERT_TRUE(out.church_rosser) << out.violation;
    // Everything deduced must be correct (rules encode true semantics).
    const TargetQuality q = CompareTarget(out.target, ds.truths[i]);
    EXPECT_GE(q.attrs_correct, q.attrs_deduced - 0.15) << "entity " << i;
    complete += out.target.IsComplete() ? 1 : 0;

    const PreferenceModel pref =
        PreferenceModel::FromOccurrences(spec.ie, spec.masters);
    SimulatedUser user(ds.truths[i]);
    const FrameworkResult r =
        testing_fixture::RunInteraction(spec, pref, &user);
    found_by_framework +=
        (r.found_complete_target && r.target == ds.truths[i]) ? 1 : 0;
  }
  EXPECT_GT(complete, 25);            // most entities complete automatically
  EXPECT_GT(found_by_framework, 40);  // the loop recovers most of the rest
}

TEST(Integration, CsvRoundTripPreservesChaseResults) {
  // Serialize a generated entity to CSV, parse it back, chase both — the
  // deduced targets must match (exercises io + core + chase together).
  ProfileConfig c = CfpConfig(88);
  c.num_entities = 10;
  c.master_size = 8;
  const EntityDataset ds = GenerateProfile(c);
  for (int i = 0; i < 10; ++i) {
    const std::string csv = ds.entities[i].ToCsv();
    auto parsed = Relation::FromCsv(ds.schema, csv);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    Specification original = ds.SpecFor(i);
    Specification reloaded = original;
    reloaded.ie = parsed.value();
    const ChaseOutcome a = IsCR(original);
    const ChaseOutcome b = IsCR(reloaded);
    ASSERT_EQ(a.church_rosser, b.church_rosser);
    if (a.church_rosser) {
      EXPECT_EQ(a.target, b.target);
    }
  }
}

TEST(Integration, ErThenChaseRecoversEntities) {
  // Flatten entities, resolve them back, chase the recovered instances.
  ProfileConfig c = CfpConfig(99);
  c.num_entities = 30;
  c.master_size = 20;
  const EntityDataset ds = GenerateProfile(c);
  Relation flat(ds.schema);
  for (const EntityInstance& e : ds.entities) {
    for (const Tuple& t : e.tuples()) flat.Add(t);
  }
  ResolverConfig er;
  er.key_attrs = {ds.schema.MustIndexOf("key")};
  er.similarity_threshold = 0.95;
  const ResolutionResult res = ResolveEntities(flat, er);
  EXPECT_EQ(res.entities.size(), ds.entities.size());
  int church_rosser = 0;
  for (const EntityInstance& inst : res.entities) {
    Specification spec;
    spec.ie = inst;
    spec.masters = ds.masters;
    spec.rules = ds.rules;
    church_rosser += IsCR(spec).church_rosser ? 1 : 0;
  }
  EXPECT_EQ(church_rosser, static_cast<int>(res.entities.size()));
}

TEST(Integration, SynTopKAlgorithmsAgreeOnScores) {
  // The two exact algorithms must return score-identical top-k sets on the
  // Syn workload; the heuristic must return valid candidates.
  SynConfig c;
  c.num_tuples = 120;
  c.num_rules = 24;
  c.cfd_coverage = 0.9;  // make rejections certain at this small scale
  const SynDataset syn = GenerateSyn(c);
  EncodedEngine encoded(syn.spec);
  ChaseEngine& engine = encoded.engine;
  const ChaseOutcome out = engine.RunFromInitial();
  ASSERT_TRUE(out.church_rosser);
  ASSERT_FALSE(out.target.IsComplete());

  const int k = 10;
  const TopKResult exact =
      TopKCT(engine, syn.spec.masters, out.target, syn.pref, k);
  const TopKResult rj =
      RankJoinCT(engine, syn.spec.masters, out.target, syn.pref, k);
  ASSERT_EQ(exact.targets.size(), rj.targets.size());
  for (std::size_t i = 0; i < exact.scores.size(); ++i) {
    EXPECT_NEAR(exact.scores[i], rj.scores[i], 1e-9) << i;
  }
  const TopKResult heur =
      TopKCTh(engine, syn.spec.masters, out.target, syn.pref, k);
  for (const Tuple& t : heur.targets) {
    EXPECT_TRUE(engine.CheckCandidate(t));
  }
  // The CFD constraints must actually bite: some combination was rejected.
  EXPECT_GT(exact.checks, static_cast<int64_t>(exact.targets.size()));
}

TEST(Integration, RestPipelineOrdersTheMethodsAsInTable4) {
  RestConfig c;
  c.seed = 4;
  c.num_restaurants = 600;
  const RestDataset ds = GenerateRest(c);
  const AttrId closed = ds.schema.MustIndexOf("closed");

  const auto votes = VoteClaims(ds.claims);
  CopyCefConfig cef_cfg;
  cef_cfg.n_false_values = 1;
  const auto cef = RunCopyCef(ds.claims, cef_cfg).Decisions();

  std::vector<Value> deduce(c.num_restaurants, Value::Null());
  for (int o = 0; o < c.num_restaurants; ++o) {
    const EntityInstance inst = ds.InstanceFor(o);
    if (inst.empty()) continue;
    Specification spec;
    spec.ie = inst;
    spec.rules = ds.rules;
    deduce[o] = RunDeduceOrder(spec).at(closed);
  }
  const auto mv = ComputeBinaryMetrics(votes, ds.truly_closed,
                                       Value::Bool(true));
  const auto mc = ComputeBinaryMetrics(cef, ds.truly_closed,
                                       Value::Bool(true));
  const auto md = ComputeBinaryMetrics(deduce, ds.truly_closed,
                                       Value::Bool(true));
  // Table 4's qualitative ordering.
  EXPECT_GT(mc.f1, mv.f1);        // copyCEF beats voting
  EXPECT_GT(mv.f1, md.f1);        // both beat currency-only reasoning
  EXPECT_LT(md.recall, mv.recall);  // DeduceOrder is recall-starved
  EXPECT_GT(md.precision, 0.8);     // ... but precise
}

}  // namespace
}  // namespace relacc
