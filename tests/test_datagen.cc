// Tests for the dataset generators: shape invariants, Church-Rosser-ness,
// and agreement between the chase and the generated ground truth.

#include <gtest/gtest.h>

#include "chase/chase_engine.h"
#include "datagen/profile_generator.h"
#include "datagen/rest_generator.h"
#include "datagen/syn_generator.h"
#include "service_fixture.h"
#include "truth/metrics.h"

namespace relacc {
namespace {

using testing_fixture::EncodedEngine;

ProfileConfig SmallMed(uint64_t seed) {
  ProfileConfig c = MedConfig(seed);
  c.num_entities = 60;
  c.master_size = 50;
  return c;
}

TEST(ProfileGen, ShapeInvariants) {
  const ProfileConfig c = SmallMed(1);
  const EntityDataset ds = GenerateProfile(c);
  EXPECT_EQ(ds.schema.size(), 30);  // Med: 30 attributes
  EXPECT_EQ(static_cast<int>(ds.entities.size()), c.num_entities);
  EXPECT_EQ(ds.entities.size(), ds.truths.size());
  ASSERT_EQ(ds.masters.size(), 1u);
  EXPECT_EQ(ds.masters[0].size(), c.master_size);
  for (const EntityInstance& e : ds.entities) {
    EXPECT_GE(e.size(), 1);
    EXPECT_LE(e.size(), c.max_tuples);
  }
  // Ground truths are complete tuples.
  for (const Tuple& t : ds.truths) EXPECT_TRUE(t.IsComplete());
  // Both rule forms present.
  int f1 = 0, f2 = 0;
  for (const auto& r : ds.rules) {
    (r.form == AccuracyRule::Form::kTuplePair ? f1 : f2)++;
  }
  EXPECT_GT(f1, 0);
  EXPECT_EQ(f2, c.num_form2_rules);
}

TEST(ProfileGen, DeterministicForFixedSeed) {
  const EntityDataset a = GenerateProfile(SmallMed(9));
  const EntityDataset b = GenerateProfile(SmallMed(9));
  ASSERT_EQ(a.entities.size(), b.entities.size());
  for (std::size_t i = 0; i < a.entities.size(); ++i) {
    ASSERT_EQ(a.entities[i].size(), b.entities[i].size());
    for (int t = 0; t < a.entities[i].size(); ++t) {
      EXPECT_EQ(a.entities[i].tuple(t), b.entities[i].tuple(t));
    }
  }
}

TEST(ProfileGen, EverySpecificationIsChurchRosser) {
  const EntityDataset ds = GenerateProfile(SmallMed(2));
  for (std::size_t i = 0; i < ds.entities.size(); ++i) {
    EncodedEngine encoded(ds.entities[i], ds.masters, ds.rules,
                          ds.chase_config);
    ChaseEngine& engine = encoded.engine;
    const ChaseOutcome out = engine.RunFromInitial();
    EXPECT_TRUE(out.church_rosser) << "entity " << i << ": " << out.violation;
  }
}

TEST(ProfileGen, DeducedValuesAgreeWithGroundTruth) {
  // Whatever the chase deduces must be correct (the rules encode true
  // semantics of the generator); completeness varies with noise.
  const EntityDataset ds = GenerateProfile(SmallMed(3));
  std::vector<TargetQuality> qs;
  for (std::size_t i = 0; i < ds.entities.size(); ++i) {
    EncodedEngine encoded(ds.entities[i], ds.masters, ds.rules,
                          ds.chase_config);
    ChaseEngine& engine = encoded.engine;
    const ChaseOutcome out = engine.RunFromInitial();
    ASSERT_TRUE(out.church_rosser);
    qs.push_back(CompareTarget(out.target, ds.truths[i]));
  }
  const TargetQuality avg = AverageQuality(qs);
  // Deduced attributes are overwhelmingly correct...
  EXPECT_GT(avg.attrs_correct, 0.9 * avg.attrs_deduced);
  // ... and cover well over half of the schema on average.
  EXPECT_GT(avg.attrs_deduced, 0.6);
  EXPECT_GT(avg.complete_and_correct, 0.3);
}

TEST(ProfileGen, FormFilterSplitsRules) {
  const EntityDataset ds = GenerateProfile(SmallMed(4));
  const auto f1 = ds.FilteredRules(RuleFormFilter::kForm1Only);
  const auto f2 = ds.FilteredRules(RuleFormFilter::kForm2Only);
  const auto both = ds.FilteredRules(RuleFormFilter::kBoth);
  EXPECT_EQ(f1.size() + f2.size(), both.size());
  for (const auto& r : f1) EXPECT_EQ(r.form, AccuracyRule::Form::kTuplePair);
  for (const auto& r : f2) EXPECT_EQ(r.form, AccuracyRule::Form::kMaster);
}

TEST(ProfileGen, CfpPresetHas22Attributes) {
  ProfileConfig c = CfpConfig(5);
  c.num_entities = 30;
  c.master_size = 17;
  const EntityDataset ds = GenerateProfile(c);
  EXPECT_EQ(ds.schema.size(), 22);
  EXPECT_EQ(ds.name, "cfp");
}

TEST(SynGen, SpecificationIsChurchRosserAndIncomplete) {
  SynConfig c;
  c.num_tuples = 120;
  c.master_size = 40;
  c.num_rules = 24;
  const SynDataset syn = GenerateSyn(c);
  EXPECT_EQ(syn.spec.ie.size(), c.num_tuples);
  EXPECT_EQ(syn.spec.ie.schema().size(), 20);  // the paper's 20 attributes
  const ChaseOutcome out = IsCR(syn.spec);
  ASSERT_TRUE(out.church_rosser) << out.violation;
  // Currency-covered attributes resolve; free attributes stay open for the
  // top-k stage.
  const Schema& s = syn.spec.ie.schema();
  EXPECT_FALSE(out.target.at(s.MustIndexOf("ts")).is_null());
  int nulls = 0;
  for (AttrId a = 0; a < s.size(); ++a) nulls += out.target.at(a).is_null();
  EXPECT_GT(nulls, 0);
  EXPECT_LE(nulls, c.num_free_attrs);
}

TEST(SynGen, DeducedAttributesMatchTruth) {
  SynConfig c;
  c.num_tuples = 150;
  c.num_rules = 40;
  const SynDataset syn = GenerateSyn(c);
  const ChaseOutcome out = IsCR(syn.spec);
  ASSERT_TRUE(out.church_rosser);
  const Schema& s = syn.spec.ie.schema();
  for (AttrId a = 0; a < s.size(); ++a) {
    if (out.target.at(a).is_null() || syn.truth.at(a).is_null()) continue;
    EXPECT_EQ(out.target.at(a), syn.truth.at(a)) << s.name(a);
  }
  // Master-backed attributes are always deduced (form-2 rules fire off the
  // constant key).
  EXPECT_EQ(out.target.at(s.MustIndexOf("mst_0")),
            syn.truth.at(s.MustIndexOf("mst_0")));
}

TEST(SynGen, RuleCountScalesWithConfig) {
  for (int rules : {20, 60, 100}) {
    SynConfig c;
    c.num_tuples = 50;
    c.num_rules = rules;
    c.cfd_coverage = 0.0;  // count only the random ARs
    const SynDataset syn = GenerateSyn(c);
    EXPECT_EQ(static_cast<int>(syn.spec.rules.size()), rules);
  }
}

TEST(RestGen, ShapeAndCopiers) {
  RestConfig c;
  c.num_restaurants = 200;
  const RestDataset ds = GenerateRest(c);
  EXPECT_EQ(static_cast<int>(ds.truly_closed.size()), c.num_restaurants);
  EXPECT_FALSE(ds.claims.claims().empty());
  int copiers = 0;
  for (int s : ds.copies_from) copiers += s >= 0 ? 1 : 0;
  EXPECT_EQ(copiers, c.num_copiers);
  // Some restaurants truly closed, most open.
  int closed = 0;
  for (bool b : ds.truly_closed) closed += b ? 1 : 0;
  EXPECT_GT(closed, 0);
  EXPECT_LT(closed, c.num_restaurants / 2);
}

TEST(RestGen, InstanceViewIsChaseable) {
  RestConfig c;
  c.num_restaurants = 50;
  const RestDataset ds = GenerateRest(c);
  int non_cr = 0;
  for (int o = 0; o < c.num_restaurants; ++o) {
    const EntityInstance inst = ds.InstanceFor(o);
    if (inst.empty()) continue;
    Specification spec;
    spec.ie = inst;
    spec.rules = ds.rules;
    spec.config = ds.chase_config;
    const ChaseOutcome out = IsCR(spec);
    non_cr += out.church_rosser ? 0 : 1;
  }
  // The monotone-closure rule never creates conflicts by design.
  EXPECT_EQ(non_cr, 0);
}

}  // namespace
}  // namespace relacc
