// Tests for the AR discovery extension (Sec. 4 Remark (1), future work in
// the paper): mining form-(1) rules from entity instances with curated
// targets, and closing the loop by chasing with the mined rules.

#include <gtest/gtest.h>

#include "chase/chase_engine.h"
#include "datagen/profile_generator.h"
#include "discovery/ar_miner.h"
#include "service_fixture.h"
#include "truth/metrics.h"

namespace relacc {
namespace {

using testing_fixture::EncodedEngine;

EntityDataset MiningDataset(uint64_t seed) {
  ProfileConfig c = MedConfig(seed);
  c.num_entities = 80;
  c.master_size = 70;
  return GenerateProfile(c);
}

TEST(ArMiner, RecoversTheCurrencyRuleFamily) {
  const EntityDataset ds = MiningDataset(31);
  const auto mined = MineAccuracyRules(ds.entities, ds.truths);
  ASSERT_FALSE(mined.empty());
  // The version->cur_* currency family must be discovered: some rule with
  // witness `version` concluding each cur attribute.
  const AttrId version = ds.schema.MustIndexOf("version");
  int cur_covered = 0;
  for (AttrId a = 0; a < ds.schema.size(); ++a) {
    if (ds.schema.name(a).rfind("cur_", 0) != 0) continue;
    bool found = false;
    for (const MinedRule& m : mined) {
      if (m.rule.rhs_attr != a) continue;
      for (const TuplePairPredicate& p : m.rule.lhs) {
        if (p.kind == TuplePairPredicate::Kind::kAttrAttr &&
            p.left_attr == version && p.op == CompareOp::kLt) {
          found = true;
        }
      }
    }
    cur_covered += found ? 1 : 0;
  }
  EXPECT_GE(cur_covered, 8);  // 9 cur attributes in the Med layout
  for (const MinedRule& m : mined) {
    EXPECT_GE(m.confidence, 0.98);
    EXPECT_GE(m.support, 20);
  }
}

TEST(ArMiner, MinedRulesAreUsableByTheChase) {
  // Bootstrapping loop: mine on one dataset slice, chase a *different*
  // slice with only the mined rules (no hand-written Σ, no master data);
  // the currency-covered attributes must resolve correctly.
  const EntityDataset train = MiningDataset(32);
  const auto mined = MineAccuracyRules(train.entities, train.truths);
  std::vector<AccuracyRule> rules;
  for (const MinedRule& m : mined) rules.push_back(m.rule);

  const EntityDataset test = MiningDataset(33);
  int resolved_cur = 0, correct_cur = 0, entities = 0;
  for (std::size_t i = 0; i < test.entities.size(); ++i) {
    EncodedEngine encoded(test.entities[i], {}, rules, test.chase_config);
    ChaseEngine& engine = encoded.engine;
    const ChaseOutcome out = engine.RunFromInitial();
    ASSERT_TRUE(out.church_rosser) << out.violation;
    ++entities;
    for (AttrId a = 0; a < test.schema.size(); ++a) {
      if (test.schema.name(a).rfind("cur_", 0) != 0) continue;
      if (out.target.at(a).is_null()) continue;
      ++resolved_cur;
      correct_cur += out.target.at(a) == test.truths[i].at(a) ? 1 : 0;
    }
  }
  EXPECT_GT(entities, 0);
  EXPECT_GT(resolved_cur, entities * 5);  // most cur attrs resolve
  // Deduction quality: nearly everything resolved is correct.
  EXPECT_GT(correct_cur, resolved_cur * 9 / 10);
}

TEST(ArMiner, RespectsThresholds) {
  const EntityDataset ds = MiningDataset(34);
  ArMinerConfig strict;
  strict.min_support = 1 << 20;  // unreachable
  EXPECT_TRUE(MineAccuracyRules(ds.entities, ds.truths, strict).empty());

  ArMinerConfig capped;
  capped.max_rules = 3;
  EXPECT_LE(MineAccuracyRules(ds.entities, ds.truths, capped).size(), 3u);
}

TEST(ArMiner, EmptyInputYieldsNothing) {
  EXPECT_TRUE(MineAccuracyRules({}, {}).empty());
}

}  // namespace
}  // namespace relacc
