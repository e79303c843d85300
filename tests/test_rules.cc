// Tests for rule construction, the axioms, constant-CFD compilation and
// the grounding procedure (Instantiation, Sec. 5).

#include <algorithm>
#include <thread>

#include <gtest/gtest.h>

#include "chase/chase_engine.h"
#include "datagen/profile_generator.h"
#include "mj_fixture.h"
#include "rules/axioms.h"
#include "rules/cfd.h"
#include "rules/grounding.h"
#include "rules/rule_builder.h"
#include "util/thread_pool.h"

namespace relacc {
namespace {

using testing_fixture::MjRules;
using testing_fixture::MjSpecification;
using testing_fixture::NbaRelation;
using testing_fixture::StatRelation;

TEST(RuleBuilder, BuildsPhi1Shape) {
  const Schema schema = testing_fixture::StatSchema();
  const AccuracyRule phi1 = RuleBuilder(schema, "phi1")
                                .WhereAttrs("league", CompareOp::kEq, "league")
                                .WhereAttrs("rnds", CompareOp::kLt, "rnds")
                                .Currency()
                                .Concludes("rnds");
  EXPECT_EQ(phi1.form, AccuracyRule::Form::kTuplePair);
  EXPECT_EQ(phi1.lhs.size(), 2u);
  EXPECT_EQ(phi1.rhs_attr, schema.MustIndexOf("rnds"));
  EXPECT_EQ(phi1.provenance, RuleProvenance::kCurrency);
  // Rendering mentions both attributes and the conclusion.
  const std::string s = RuleToString(phi1, schema);
  EXPECT_NE(s.find("league"), std::string::npos);
  EXPECT_NE(s.find("<=_rnds"), std::string::npos);
}

TEST(Axioms, ExpandsThreePerAttribute) {
  const Schema schema = testing_fixture::StatSchema();
  const auto axioms = ExpandAxioms(schema);
  EXPECT_EQ(axioms.size(), 3u * schema.size());
  int nulls = 0, anchors = 0, equalities = 0;
  for (const auto& r : axioms) {
    switch (r.provenance) {
      case RuleProvenance::kNullAxiom:
        ++nulls;
        break;
      case RuleProvenance::kTeAnchorAxiom:
        ++anchors;
        break;
      case RuleProvenance::kEqualityAxiom:
        ++equalities;
        break;
      default:
        FAIL() << "unexpected provenance";
    }
  }
  EXPECT_EQ(nulls, schema.size());
  EXPECT_EQ(anchors, schema.size());
  EXPECT_EQ(equalities, schema.size());
}

TEST(Grounding, Example8SingleChaseSteps) {
  // Example 8(a): from t1, t2 and ϕ1, step "true -> 16 ⪯rnds 27" — i.e. an
  // unconditioned AddOrder on (0,1). (b): from ϕ2, "t1 ≺rnds t2 ->
  // 45 ⪯J# 23" — an AddOrder with one order residual.
  const Relation stat = StatRelation();
  const Relation nba = NbaRelation();
  const auto rules = MjRules(stat.schema(), nba.schema());
  const GroundProgram prog = Instantiate(stat, {nba}, rules);
  const AttrId rnds = stat.schema().MustIndexOf("rnds");
  const AttrId jnum = stat.schema().MustIndexOf("J#");

  bool found_a = false, found_b = false, found_c = false;
  for (const GroundStep& s : prog.Materialize().steps) {
    if (s.kind == GroundStep::Kind::kAddOrder && s.attr == rnds && s.i == 0 &&
        s.j == 1 && s.residual.empty()) {
      found_a = true;
    }
    if (s.kind == GroundStep::Kind::kAddOrder && s.attr == jnum && s.i == 0 &&
        s.j == 1 && s.residual.size() == 1 &&
        s.residual[0].kind == GroundPredicate::Kind::kOrderPair &&
        s.residual[0].attr == rnds) {
      found_b = true;
    }
    // Example 8(c): master step setting te[league] = NBA conditioned on
    // te[FN] = Michael and te[LN] = Jordan.
    if (s.kind == GroundStep::Kind::kSetTe &&
        s.attr == stat.schema().MustIndexOf("league") &&
        s.te_value == Value::Str("NBA") && s.residual.size() == 2) {
      found_c = true;
    }
  }
  EXPECT_TRUE(found_a);
  EXPECT_TRUE(found_b);
  EXPECT_TRUE(found_c);
}

TEST(Grounding, ConstantPredicatesPruneSteps) {
  // ϕ1 grounds only on same-league pairs with strictly increasing rnds:
  // within {t1,t2,t3} that is (t3,t1),(t3,t2),(t1,t2) — and nothing
  // touching t4 (league SL).
  const Relation stat = StatRelation();
  std::vector<AccuracyRule> rules;
  rules.push_back(RuleBuilder(stat.schema(), "phi1")
                      .WhereAttrs("league", CompareOp::kEq, "league")
                      .WhereAttrs("rnds", CompareOp::kLt, "rnds")
                      .Concludes("rnds"));
  const GroundProgram prog = Instantiate(stat, {}, rules);
  EXPECT_EQ(prog.steps.size(), 3u);
  for (const GroundStep& s : prog.steps) {
    EXPECT_NE(s.i, 3);
    EXPECT_NE(s.j, 3);
  }
}

TEST(Grounding, StrictOrderPredicateDropsEqualValuePairs) {
  // ϕ5 requires t1 ≺MN t2; pairs among t1..t3 (all null MN) are dropped at
  // ground time because ≺ can never hold over equal values.
  const Relation stat = StatRelation();
  std::vector<AccuracyRule> rules;
  rules.push_back(RuleBuilder(stat.schema(), "phi5")
                      .WhereOrder("MN", /*strict=*/true)
                      .Concludes("FN"));
  const GroundProgram prog = Instantiate(stat, {}, rules);
  // Surviving pairs: those involving t4 (MN = Jeffrey) on either side: 6.
  EXPECT_EQ(prog.steps.size(), 6u);
  for (const GroundStep& s : prog.steps) {
    EXPECT_TRUE(s.i == 3 || s.j == 3);
  }
}

TEST(Grounding, MasterRuleSkipsNonMatchingTuples) {
  // ϕ6's season predicate removes s2 (2001-02) at ground time; s1 yields
  // two SetTe steps (league, team).
  const Relation stat = StatRelation();
  const Relation nba = NbaRelation();
  const auto rules = MjRules(stat.schema(), nba.schema());
  const GroundProgram prog = Instantiate(stat, {nba}, rules);
  int master_steps = 0;
  for (const GroundStep& s : prog.Materialize().steps) {
    if (s.kind == GroundStep::Kind::kSetTe) {
      ++master_steps;
      EXPECT_NE(s.te_value, Value::Str("Washington Wizards"));
    }
  }
  EXPECT_EQ(master_steps, 2);
}

TEST(Cfd, CompilesToMasterRuleAndEnforcesConsistency) {
  // The Sec. 2.1 Remark example: [team = "Chicago Bulls" -> arena =
  // "United Center"] as an AR over a synthesized master relation.
  Specification spec = MjSpecification();
  // Drop ϕ11 so arena is not deduced by correlation; the CFD must fill it.
  std::erase_if(spec.rules,
                [](const AccuracyRule& r) { return r.name == "phi11"; });
  ConstantCfd cfd;
  cfd.name = "bulls-arena";
  cfd.conditions = {{spec.ie.schema().MustIndexOf("team"),
                     Value::Str("Chicago Bulls")}};
  cfd.then_attr = spec.ie.schema().MustIndexOf("arena");
  cfd.then_value = Value::Str("United Center");
  CompiledCfds compiled = CompileCfds(spec.ie.schema(), {cfd},
                                      static_cast<int>(spec.masters.size()));
  spec.masters.push_back(compiled.master);
  for (auto& r : compiled.rules) spec.rules.push_back(std::move(r));

  const ChaseOutcome out = IsCR(spec);
  ASSERT_TRUE(out.church_rosser) << out.violation;
  EXPECT_EQ(out.target, testing_fixture::MjExpectedTarget());
}

TEST(Cfd, ViolatingCandidateFailsCheck) {
  Specification spec = MjSpecification();
  ConstantCfd cfd;
  cfd.name = "bulls-arena";
  cfd.conditions = {{spec.ie.schema().MustIndexOf("team"),
                     Value::Str("Chicago Bulls")}};
  cfd.then_attr = spec.ie.schema().MustIndexOf("arena");
  cfd.then_value = Value::Str("United Center");
  CompiledCfds compiled = CompileCfds(spec.ie.schema(), {cfd},
                                      static_cast<int>(spec.masters.size()));
  spec.masters.push_back(compiled.master);
  for (auto& r : compiled.rules) spec.rules.push_back(std::move(r));

  const GroundProgram prog = Instantiate(spec.ie, spec.masters, spec.rules);
  ChaseEngine engine(spec.ie, &prog, spec.config);
  Tuple bad = testing_fixture::MjExpectedTarget();
  bad.set(spec.ie.schema().MustIndexOf("arena"), Value::Str("Regions Park"));
  EXPECT_FALSE(CheckCandidateTarget(engine, bad));
  EXPECT_TRUE(
      CheckCandidateTarget(engine, testing_fixture::MjExpectedTarget()));
}

TEST(Grounding, ShardedInstantiateIsStepForStepIdentical) {
  // The sharded-grounding determinism contract: shard counts {1, 4, hw}
  // (and a couple of adversarial ones) must produce the very same
  // GroundProgram, step by step, with and without a caller-supplied
  // pool. A med-profile entity plus masters covers both rule forms and
  // pruned steps.
  ProfileConfig config = MedConfig(/*seed=*/21);
  config.num_entities = 1;
  config.min_tuples = 24;
  config.max_tuples = 24;
  config.master_size = 40;
  const EntityDataset ds = GenerateProfile(config);
  const Relation& ie = ds.entities[0];

  const GroundProgram serial = Instantiate(ie, ds.masters, ds.rules);
  ASSERT_FALSE(serial.steps.empty());
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool pool(4);
  for (const int shards : {1, 2, 3, 4, 7, hw, 1000}) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const GroundProgram sharded =
          Instantiate(ie, ds.masters, ds.rules, shards, p);
      ASSERT_EQ(sharded.steps.size(), serial.steps.size())
          << shards << " shards";
      for (std::size_t s = 0; s < serial.steps.size(); ++s) {
        ASSERT_TRUE(sharded.steps[s] == serial.steps[s])
            << shards << " shards, step " << s;
      }
      EXPECT_TRUE(sharded == serial) << shards << " shards";
    }
  }
}

TEST(Grounding, PoolBuiltEngineMatchesSerialBuild) {
  // The sharded index build (ChaseEngine ctor with a build pool) must
  // not change any chase outcome; exercised over a program large enough
  // to clear the parallel-build cutoff.
  ProfileConfig config = MedConfig(/*seed=*/23);
  config.num_entities = 1;
  config.min_tuples = 48;
  config.max_tuples = 48;
  config.master_size = 60;
  const EntityDataset ds = GenerateProfile(config);
  const Relation& ie = ds.entities[0];
  const GroundProgram prog = Instantiate(ie, ds.masters, ds.rules);
  ASSERT_GT(prog.steps.size(), 2048u);  // the ctor's kParallelBuildCutoff

  ChaseEngine serial(ie, &prog, ds.chase_config);
  ThreadPool pool(4);
  ChaseEngine parallel(ie, &prog, ds.chase_config, &pool);
  const ChaseOutcome a = serial.RunFromInitial();
  const ChaseOutcome b = parallel.RunFromInitial();
  EXPECT_EQ(a.church_rosser, b.church_rosser);
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.stats.steps_applied, b.stats.steps_applied);
  EXPECT_EQ(a.stats.pairs_derived, b.stats.pairs_derived);
}

TEST(Grounding, TePredicateAgainstNullTupleValueIsDropped) {
  // ϕ8-style rule grounded where t2[A] is null can never fire (te never
  // becomes null): ensure such steps are pruned.
  const Relation stat = StatRelation();
  std::vector<AccuracyRule> rules;
  rules.push_back(RuleBuilder(stat.schema(), "anchor-mn")
                      .WhereTe(2, "MN", CompareOp::kEq, "MN")
                      .Concludes("MN"));
  const GroundProgram prog = Instantiate(stat, {}, rules);
  // Only pairs whose t2 is t4 (the only non-null MN) survive: 3 steps.
  EXPECT_EQ(prog.steps.size(), 3u);
  for (const GroundStep& s : prog.steps) EXPECT_EQ(s.j, 3);
}

}  // namespace
}  // namespace relacc
