// Property-based suites for the chase's metatheory, swept over seeds with
// TEST_P: termination (Prop. 1), determinism of the deduced target for
// Church-Rosser specifications (Thm. 2), consistency of the candidate
// check with a from-scratch chase, and monotonicity facts the engine's
// checkpointed continuation relies on.

#include <gtest/gtest.h>

#include "chase/chase_engine.h"
#include "datagen/profile_generator.h"
#include "datagen/syn_generator.h"
#include "rules/rule_builder.h"
#include "service_fixture.h"
#include "util/rng.h"

namespace relacc {
namespace {

using testing_fixture::EncodedEngine;

/// A fully random small specification: random values over small domains
/// and random (possibly conflicting!) currency/equality rules. Nothing
/// guarantees Church-Rosser-ness — exactly what the metatheory tests need.
Specification RandomSpec(uint64_t seed) {
  Rng rng(seed);
  const int num_attrs = 3 + static_cast<int>(rng.NextBelow(3));
  std::vector<Attribute> attrs;
  attrs.push_back({"a0", ValueType::kInt});
  for (int a = 1; a < num_attrs; ++a) {
    attrs.push_back({"a" + std::to_string(a),
                     rng.Bernoulli(0.5) ? ValueType::kInt
                                        : ValueType::kString});
  }
  Schema schema(attrs);
  Specification spec;
  spec.ie = Relation(schema);
  const int n = 2 + static_cast<int>(rng.NextBelow(6));
  for (int t = 0; t < n; ++t) {
    std::vector<Value> row;
    for (int a = 0; a < num_attrs; ++a) {
      if (rng.Bernoulli(0.15)) {
        row.push_back(Value::Null());
      } else if (schema.type(a) == ValueType::kInt) {
        row.push_back(Value::Int(rng.UniformInt(0, 4)));
      } else {
        row.push_back(Value::Str("v" + std::to_string(rng.NextBelow(4))));
      }
    }
    spec.ie.Add(Tuple(std::move(row)));
  }
  const int num_rules = 1 + static_cast<int>(rng.NextBelow(5));
  for (int r = 0; r < num_rules; ++r) {
    const int witness = static_cast<int>(rng.NextBelow(num_attrs));
    const int target = static_cast<int>(rng.NextBelow(num_attrs));
    RuleBuilder b(schema, "rand" + std::to_string(r));
    if (schema.type(witness) == ValueType::kInt && rng.Bernoulli(0.7)) {
      b.WhereAttrs(schema.name(witness), CompareOp::kLt,
                   schema.name(witness));
    } else {
      b.WhereAttrs(schema.name(witness), CompareOp::kEq,
                   schema.name(witness));
    }
    if (rng.Bernoulli(0.5)) {
      b.WhereConst(2, schema.name(target), CompareOp::kNe, Value::Null());
    }
    spec.rules.push_back(std::move(b).Concludes(schema.name(target)));
  }
  return spec;
}

class ChaseMetatheory : public ::testing::TestWithParam<int> {};

TEST_P(ChaseMetatheory, ChaseAlwaysTerminates) {
  // Prop. 1 — even for non-Church-Rosser specifications the engine halts
  // (either at a terminal instance or at a detected violation). The action
  // budget is a tripwire, not a crutch: hitting it fails the test.
  Specification spec = RandomSpec(GetParam() * 1000003ULL);
  spec.config.max_actions = 2'000'000;
  const ChaseOutcome out = IsCR(spec);
  EXPECT_NE(out.violation, "action budget exceeded");
}

TEST_P(ChaseMetatheory, RepeatedRunsAgree) {
  // Determinism: the engine's simulated chasing sequence is a function of
  // the specification, so two runs agree bit-for-bit — and for CR specs,
  // Thm. 2 says *any* sequence would.
  const Specification spec = RandomSpec(GetParam() * 7777ULL + 13);
  const ChaseOutcome a = IsCR(spec);
  const ChaseOutcome b = IsCR(spec);
  EXPECT_EQ(a.church_rosser, b.church_rosser);
  if (a.church_rosser) {
    EXPECT_EQ(a.target, b.target);
  }
}

TEST_P(ChaseMetatheory, RuleOrderDoesNotChangeTheVerdict) {
  // Thm. 2's order-independence, observable through our engine: permuting
  // Σ permutes the grounding (hence the step order in Q), but the verdict
  // and — when Church-Rosser — the deduced target must not move.
  Specification spec = RandomSpec(GetParam() * 31337ULL + 7);
  const ChaseOutcome base = IsCR(spec);
  Rng rng(GetParam());
  for (int perm = 0; perm < 3; ++perm) {
    rng.Shuffle(&spec.rules);
    const ChaseOutcome out = IsCR(spec);
    ASSERT_EQ(out.church_rosser, base.church_rosser) << "perm " << perm;
    if (base.church_rosser) {
      EXPECT_EQ(out.target, base.target);
    }
  }
}

TEST_P(ChaseMetatheory, CheckpointedCheckMatchesFromScratchRun) {
  // CheckCandidate (the fast continuation) must agree with Run(t) — the
  // definitionally correct from-scratch chase — on complete candidates.
  const Specification spec = RandomSpec(GetParam() * 99991ULL + 3);
  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;
  const ChaseOutcome base = engine.RunFromInitial();
  if (!base.church_rosser) return;
  Rng rng(GetParam() * 5);
  for (int trial = 0; trial < 8; ++trial) {
    Tuple candidate = base.target;
    for (AttrId a = 0; a < spec.ie.schema().size(); ++a) {
      if (!candidate.at(a).is_null()) continue;
      const auto dom = spec.ie.ColumnDomain(a);
      candidate.set(a, dom.empty() ? Value::Int(rng.UniformInt(0, 4))
                                   : dom[rng.NextBelow(dom.size())]);
    }
    const ChaseOutcome scratch = engine.Run(candidate);
    const bool scratch_ok =
        scratch.church_rosser && scratch.target == candidate;
    EXPECT_EQ(engine.CheckCandidate(candidate), scratch_ok)
        << candidate.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseMetatheory, ::testing::Range(1, 25));

class GeneratedSpecs : public ::testing::TestWithParam<int> {};

TEST_P(GeneratedSpecs, SynIsChurchRosserAcrossSeeds) {
  SynConfig c;
  c.seed = static_cast<uint64_t>(GetParam()) * 101;
  c.num_tuples = 80 + GetParam() * 7;
  c.num_rules = 20 + GetParam();
  const SynDataset syn = GenerateSyn(c);
  const ChaseOutcome out = IsCR(syn.spec);
  EXPECT_TRUE(out.church_rosser) << out.violation;
}

TEST_P(GeneratedSpecs, ProfileEntitiesAreChurchRosserAcrossSeeds) {
  ProfileConfig c = CfpConfig(static_cast<uint64_t>(GetParam()) * 53);
  c.num_entities = 25;
  c.master_size = 14;
  const EntityDataset ds = GenerateProfile(c);
  for (std::size_t i = 0; i < ds.entities.size(); ++i) {
    EncodedEngine encoded(ds.entities[i], ds.masters, ds.rules,
                          ds.chase_config);
    ChaseEngine& engine = encoded.engine;
    const ChaseOutcome out = engine.RunFromInitial();
    EXPECT_TRUE(out.church_rosser) << "entity " << i << ": " << out.violation;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedSpecs, ::testing::Range(1, 9));

}  // namespace
}  // namespace relacc
