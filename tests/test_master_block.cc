// Tests for the shared master block (rules/grounding.h MasterBlock): the
// form-(2) part of Γ grounded once and shared by every entity's program.
// A block-backed program must be indistinguishable from its flat
// Materialize() twin — step for step, and through the chase engine
// (verdict, target, stats, violation, orders) — on the MJ example, CFP and
// Med entities and randomized Syn specs, Church-Rosser or not; checks and
// resumes interleaved on one engine must agree with from-scratch runs; and
// the naive ExplainedChase oracle must agree with the block-backed engine.

#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chase/chase_engine.h"
#include "chase/explain.h"
#include "core/columnar.h"
#include "core/dictionary.h"
#include "datagen/profile_generator.h"
#include "datagen/syn_generator.h"
#include "mj_fixture.h"
#include "rules/grounding.h"
#include "rules/rule_builder.h"
#include "service_fixture.h"

namespace relacc {
namespace {

using testing_fixture::EncodedEngine;

std::string Describe(const ChaseOutcome& o) {
  std::ostringstream os;
  os << o.church_rosser << '|' << o.target.ToString() << '|' << o.violation
     << '|' << o.stats.ground_steps << '|' << o.stats.steps_applied << '|'
     << o.stats.pairs_derived;
  for (const PartialOrder& order : o.orders) {
    os << ';';
    for (const uint64_t w : order.successor_words()) os << w << ',';
  }
  return os.str();
}

Tuple AllNull(const Relation& ie) {
  return Tuple(std::vector<Value>(ie.schema().size(), Value::Null()));
}

/// `base` with every null attribute filled: from `truth` where it is
/// known, else from a random non-null value of that column of `ie`.
Tuple Complete(const Tuple& base, const Tuple& truth, const Relation& ie,
               std::mt19937_64* rng) {
  Tuple t = base;
  for (AttrId a = 0; a < ie.schema().size(); ++a) {
    if (!t.at(a).is_null()) continue;
    std::vector<Value> seen;
    for (int i = 0; i < ie.size(); ++i) {
      if (!ie.tuple(i).at(a).is_null()) seen.push_back(ie.tuple(i).at(a));
    }
    if (!seen.empty() && ((*rng)() % 2 == 0 || truth.at(a).is_null())) {
      t.set(a, seen[(*rng)() % seen.size()]);
    } else {
      t.set(a, truth.at(a).is_null() ? Value::Str("unseen") : truth.at(a));
    }
  }
  return t;
}

/// Engines over `program` (block-backed) and over its flat twin give the
/// same outcome for every entry point, and export the same checkpoint
/// (up to the dead flags and counters of master steps the block never
/// visits, and the dictionary ids of te). `probes` are extra initial
/// templates for Run.
void ExpectTwinsAgree(const ColumnarRelation& ie, const GroundProgram& program,
                      ChaseConfig config, const std::vector<Tuple>& probes,
                      const std::string& label) {
  ASSERT_NE(program.master, nullptr) << label;
  const GroundProgram flat = program.Materialize();
  ASSERT_EQ(flat.master, nullptr) << label;
  ASSERT_TRUE(flat == program) << label;
  ASSERT_EQ(flat.steps.size(), program.size()) << label;

  config.keep_orders = true;
  const ChaseEngine shared(ie, &program, config);
  const ChaseEngine twin(ie, &flat, config);
  EXPECT_EQ(Describe(shared.RunFromInitial()), Describe(twin.RunFromInitial()))
      << label;
  EXPECT_EQ(Describe(shared.RunFromCheckpoint()),
            Describe(twin.RunFromCheckpoint()))
      << label;
  for (std::size_t p = 0; p < probes.size(); ++p) {
    EXPECT_EQ(Describe(shared.Run(probes[p])), Describe(twin.Run(probes[p])))
        << label << " probe " << p;
  }

  ChaseCheckpoint a;
  ChaseCheckpoint b;
  ASSERT_EQ(shared.ExportCheckpoint(&a), twin.ExportCheckpoint(&b)) << label;
  EXPECT_EQ(a.violation, b.violation) << label;
  EXPECT_EQ(a.te_rule, b.te_rule) << label;
  EXPECT_EQ(a.order_succ, b.order_succ) << label;
  EXPECT_EQ(a.remaining.size(), b.remaining.size()) << label;
  EXPECT_EQ(a.steps_applied, b.steps_applied) << label;
  EXPECT_EQ(a.pairs_derived, b.pairs_derived) << label;
  EXPECT_EQ(a.actions, b.actions) << label;
}

/// A random sequence of candidate checks and resumes on one block-backed
/// engine, each compared with a from-scratch Run of the flat twin.
void ExpectInterleavedAgree(const ColumnarRelation& cie,
                            const GroundProgram& program,
                            const ChaseConfig& config, const Tuple& truth,
                            uint64_t seed, const std::string& label) {
  const GroundProgram flat = program.Materialize();
  const ChaseEngine engine(cie, &program, config);
  const ChaseEngine oracle(cie, &flat, config);
  const Relation ie = cie.ToRelation();
  const ChaseOutcome base = oracle.RunFromInitial();
  if (!base.church_rosser) {
    EXPECT_FALSE(engine.ResumeWith(AllNull(ie)).church_rosser) << label;
    return;
  }
  std::mt19937_64 rng(seed);
  Tuple session = AllNull(ie);
  for (int op = 0; op < 24; ++op) {
    if (rng() % 2 == 0) {
      const Tuple candidate = Complete(base.target, truth, ie, &rng);
      EXPECT_EQ(engine.CheckCandidate(candidate),
                oracle.Run(candidate).church_rosser)
          << label << " op " << op << " check " << candidate.ToString();
      continue;
    }
    // Mostly extend the session template (the framework's case); now and
    // then restart from a fresh one.
    if (rng() % 4 == 0) session = AllNull(ie);
    const AttrId a = static_cast<AttrId>(rng() % ie.schema().size());
    const Tuple filled = Complete(base.target, truth, ie, &rng);
    session.set(a, filled.at(a));
    const ChaseOutcome resumed = engine.ResumeWith(session);
    const ChaseOutcome scratch = oracle.Run(session);
    ASSERT_EQ(resumed.church_rosser, scratch.church_rosser)
        << label << " op " << op << " resume " << session.ToString();
    if (scratch.church_rosser) {
      EXPECT_EQ(resumed.target, scratch.target) << label << " op " << op;
    }
  }
}

// --- the block itself ------------------------------------------------------

TEST(MasterBlock, HoldsExactlyTheFormTwoSteps) {
  const Specification spec = testing_fixture::MjSpecification();
  const EncodedEngine encoded(spec);
  const GroundProgram& program = encoded.program;
  ASSERT_NE(program.master, nullptr);
  const MasterBlock& block = *program.master;
  EXPECT_EQ(block.num_rules(), static_cast<int>(spec.rules.size()));
  EXPECT_EQ(block.rule_begin(block.num_rules()),
            static_cast<int32_t>(block.steps().size()));
  for (const GroundStep& step : program.steps) {
    EXPECT_EQ(spec.rules[step.rule_id].form, AccuracyRule::Form::kTuplePair);
  }
  ASSERT_FALSE(block.steps().empty());
  for (int32_t b = 0; b < static_cast<int32_t>(block.steps().size()); ++b) {
    const GroundStep& step = block.steps()[b];
    EXPECT_EQ(spec.rules[step.rule_id].form, AccuracyRule::Form::kMaster);
    EXPECT_EQ(step.kind, GroundStep::Kind::kSetTe);
    EXPECT_GE(b, block.rule_begin(step.rule_id));
    EXPECT_LT(b, block.rule_begin(step.rule_id + 1));
    EXPECT_EQ(block.dict()->value(block.step_te(b)), step.te_value);
    // Every residual is a keyed te = c watcher of this step.
    for (const GroundPredicate& g : step.residual) {
      ASSERT_EQ(g.kind, GroundPredicate::Kind::kTeCompare);
      ASSERT_EQ(g.op, CompareOp::kEq);
      const std::optional<TermId> id = block.dict()->Lookup(g.constant);
      ASSERT_TRUE(id.has_value());
      bool found = false;
      for (const MasterBlock::Watch& w : block.Watchers(g.attr, *id)) {
        found = found || (w.step == b && w.rule == step.rule_id);
      }
      EXPECT_TRUE(found) << "step " << b;
    }
  }
  // Virtual order is rule order.
  const GroundProgram flat = program.Materialize();
  for (std::size_t s = 1; s < flat.steps.size(); ++s) {
    EXPECT_LE(flat.steps[s - 1].rule_id, flat.steps[s].rule_id);
  }
}

TEST(MasterBlock, MaterializeEqualsFlatGrounding) {
  ProfileConfig config = MedConfig(/*seed=*/21);
  config.num_entities = 1;
  config.min_tuples = 12;
  config.max_tuples = 12;
  config.master_size = 40;
  const EntityDataset ds = GenerateProfile(config);
  const Relation& ie = ds.entities[0];
  // The naive oracle's Value-level grounder, flat.
  const GroundProgram reference =
      ReferenceInstantiate(ie, ds.masters, ds.rules);
  ASSERT_EQ(reference.master, nullptr);
  ASSERT_FALSE(reference.steps.empty());

  // The TermId grounder, private and shared blocks.
  auto dict = std::make_shared<Dictionary>();
  const ColumnarRelation cie = ColumnarRelation::FromRelation(ie, dict.get());
  const GroundProgram col = Instantiate(cie, ds.masters, ds.rules);
  EXPECT_TRUE(col.Materialize() == reference) << "private block";
  const auto col_block = MasterBlock::Build(ds.masters, ds.rules, dict);
  const GroundProgram col_shared = Instantiate(cie, *col_block, ds.rules);
  EXPECT_TRUE(col_shared.Materialize() == reference) << "shared block";
  EXPECT_EQ(col_shared.size(), reference.steps.size());
}

TEST(MasterBlockDeathTest, EngineRejectsAForeignDictionary) {
  const Specification spec = testing_fixture::MjSpecification();
  const EncodedEngine encoded(spec);
  Dictionary other;
  const ColumnarRelation foreign =
      ColumnarRelation::FromRelation(spec.ie, &other);
  EXPECT_DEATH(
      { ChaseEngine engine(foreign, &encoded.program, spec.config); },
      "another dictionary");
}

// --- engine twins ----------------------------------------------------------

TEST(MasterBlockEngine, MjTwinsAgree) {
  Specification spec = testing_fixture::MjSpecification();
  const Tuple truth = testing_fixture::MjExpectedTarget();
  Tuple partial = AllNull(spec.ie);
  partial.set(spec.ie.schema().MustIndexOf("arena"),
              Value::Str("United Center"));
  Tuple conflicting = partial;
  conflicting.set(spec.ie.schema().MustIndexOf("league"), Value::Str("SL"));
  const EncodedEngine encoded(spec);
  ExpectTwinsAgree(encoded.cie, encoded.program, spec.config,
                   {truth, partial, conflicting}, "mj");
  ExpectInterleavedAgree(encoded.cie, encoded.program, spec.config, truth, 1,
                         "mj");

  // Not Church-Rosser: ϕ12 contradicts the master.
  spec.rules.push_back(testing_fixture::Phi12(spec.ie.schema()));
  const EncodedEngine bad(spec);
  ExpectTwinsAgree(bad.cie, bad.program, spec.config, {truth}, "mj+phi12");
}

TEST(MasterBlockEngine, QueueOrderFollowsVirtualIds) {
  // One te event readies a pair step and a master step that conflict, so
  // the violation names whichever was applied first: the step of the
  // earlier rule, whether it lives in the program or in the block.
  const Schema schema({{"X", ValueType::kString}, {"Y", ValueType::kString}});
  Relation ie(schema);
  ie.Add(Tuple({Value::Str("a"), Value::Str("p")}));
  ie.Add(Tuple({Value::Str("a"), Value::Str("q")}));
  Relation master(schema);
  master.Add(Tuple({Value::Str("a"), Value::Str("z")}));
  const AccuracyRule pair = RuleBuilder(schema, "pair-y")
                                .WhereTeConst("X", CompareOp::kEq,
                                              Value::Str("a"))
                                .WhereConst(1, "Y", CompareOp::kEq,
                                            Value::Str("p"))
                                .WhereConst(2, "Y", CompareOp::kEq,
                                            Value::Str("q"))
                                .Concludes("Y");
  const AccuracyRule copy = MasterRuleBuilder(schema, schema, "master-y")
                                .WhereTeMaster("X", "X")
                                .Assign("Y", "Y")
                                .Build();
  Tuple designated = AllNull(ie);
  designated.set(0, Value::Str("a"));
  const std::vector<std::pair<std::vector<AccuracyRule>, std::string>> cases =
      {{{pair, copy}, "conflicting target values for attribute Y: q"},
       {{copy, pair}, "lambda would overwrite target attribute Y: z"}};
  for (const auto& [rules, expected] : cases) {
    const EncodedEngine encoded(ie, {master}, rules);
    ASSERT_EQ(encoded.program.steps.size(), 1u);
    ASSERT_EQ(encoded.program.master->steps().size(), 1u);
    const ChaseOutcome outcome = encoded.engine.Run(designated);
    ASSERT_FALSE(outcome.church_rosser);
    EXPECT_NE(outcome.violation.find(expected), std::string::npos)
        << outcome.violation;
    ExpectTwinsAgree(encoded.cie, encoded.program, ChaseConfig(), {designated},
                     "rule " + rules[0].name + " first");
  }
}

/// Twins over the first `count` entities of a profile dataset, every
/// program sharing one block and one dictionary as a service's do.
void ExpectProfileTwinsAgree(const EntityDataset& ds, int count,
                             const std::string& name) {
  auto dict = std::make_shared<Dictionary>();
  const auto block = MasterBlock::Build(ds.masters, ds.rules, dict);
  int incomplete = 0;
  for (int i = 0; i < count && i < static_cast<int>(ds.entities.size());
       ++i) {
    const ColumnarRelation cie =
        ColumnarRelation::FromRelation(ds.entities[i], dict.get());
    const GroundProgram program = Instantiate(cie, *block, ds.rules);
    const std::string label = name + " entity " + std::to_string(i);
    ExpectTwinsAgree(cie, program, ds.chase_config, {ds.truths[i]}, label);
    const ChaseEngine engine(cie, &program, ds.chase_config);
    const ChaseOutcome outcome = engine.RunFromCheckpoint();
    if (outcome.church_rosser && !outcome.target.IsComplete()) {
      ++incomplete;
      ExpectInterleavedAgree(cie, program, ds.chase_config, ds.truths[i],
                             static_cast<uint64_t>(i), label);
    }
  }
  EXPECT_GT(incomplete, 0) << name;
}

TEST(MasterBlockEngine, MedTwinsAgreeOnSeedsOneAndSeven) {
  for (const uint64_t seed : {uint64_t{1}, uint64_t{7}}) {
    ProfileConfig config = MedConfig(seed);
    config.num_entities = 50;
    ExpectProfileTwinsAgree(GenerateProfile(config), 50,
                            "med seed " + std::to_string(seed));
  }
}

TEST(MasterBlockEngine, CfpTwinsAgree) {
  ProfileConfig config = CfpConfig(/*seed=*/43);
  config.num_entities = 30;
  ExpectProfileTwinsAgree(GenerateProfile(config), 30, "cfp");
}

TEST(MasterBlockEngine, SynTwinsAgreeIncludingNonChurchRosser) {
  int non_cr = 0;
  int specs = 0;
  for (uint64_t seed = 1; seed <= 240; ++seed) {
    SynConfig config;
    config.seed = seed;
    config.num_tuples = 4 + static_cast<int>(seed % 9);
    config.master_size = 6 + static_cast<int>(seed % 13);
    config.num_rules = 8 + static_cast<int>(seed % 17);
    config.cfd_coverage = 0.5;
    const SynDataset syn = GenerateSyn(config);
    const Specification& spec = syn.spec;
    const EncodedEngine encoded(spec);
    const std::string label = "syn seed " + std::to_string(seed);
    ExpectTwinsAgree(encoded.cie, encoded.program, spec.config, {syn.truth},
                     label);
    ExpectInterleavedAgree(encoded.cie, encoded.program, spec.config,
                           syn.truth, seed, label);
    ++specs;
    if (!encoded.engine.RunFromInitial().church_rosser) ++non_cr;
  }
  EXPECT_GE(specs, 200);
  EXPECT_GT(non_cr, 0);
}

// --- the naive oracle ------------------------------------------------------

TEST(MasterBlockEngine, ExplainedChaseAgreesWithTheBlockBackedEngine) {
  std::vector<Specification> specs = {testing_fixture::MjSpecification()};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SynConfig config;
    config.seed = seed;
    config.num_tuples = 4 + static_cast<int>(seed % 5);
    config.master_size = 8;
    config.num_rules = 10 + static_cast<int>(seed % 7);
    specs.push_back(GenerateSyn(config).spec);
  }
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const Specification& spec = specs[s];
    EncodedEngine encoded(spec);
    const ChaseEngine& engine = encoded.engine;
    const ChaseOutcome outcome = engine.RunFromInitial();
    const ExplainedChase oracle(spec);
    ASSERT_EQ(oracle.church_rosser(), outcome.church_rosser) << "spec " << s;
    if (outcome.church_rosser) {
      EXPECT_EQ(oracle.target(), outcome.target) << "spec " << s;
    }
  }
}

}  // namespace
}  // namespace relacc
