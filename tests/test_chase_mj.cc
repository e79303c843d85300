// End-to-end tests of the chase / IsCR on the paper's running example
// (Tables 1-3, Examples 1-6).

#include <gtest/gtest.h>

#include "chase/chase_engine.h"
#include "mj_fixture.h"
#include "rules/axioms.h"
#include "service_fixture.h"

namespace relacc {
namespace {

using testing_fixture::EncodedEngine;
using testing_fixture::MjExpectedTarget;
using testing_fixture::MjSpecification;
using testing_fixture::Phi12;

TEST(ChaseMj, DeducesCompleteTargetOfExample5) {
  Specification spec = MjSpecification();
  const ChaseOutcome out = IsCR(spec);
  ASSERT_TRUE(out.church_rosser) << out.violation;
  EXPECT_EQ(out.target, MjExpectedTarget());
  EXPECT_TRUE(out.target.IsComplete());
}

TEST(ChaseMj, Phi12BreaksChurchRosser) {
  Specification spec = MjSpecification();
  spec.rules.push_back(Phi12(spec.ie.schema()));
  const ChaseOutcome out = IsCR(spec);
  EXPECT_FALSE(out.church_rosser);
  EXPECT_FALSE(out.violation.empty());
}

TEST(ChaseMj, DroppingPhi11LeavesArenaUndetermined) {
  // Sec. 3 (3): without ϕ11 the reduced specification is still
  // Church-Rosser but the deduced target is incomplete on arena.
  // NOTE: ϕ9 still ties the two "United Center" tuples; the Chicago
  // Stadium / Regions Park tuples are unrelated, so no greatest element.
  Specification spec = MjSpecification();
  std::erase_if(spec.rules,
                [](const AccuracyRule& r) { return r.name == "phi11"; });
  const ChaseOutcome out = IsCR(spec);
  ASSERT_TRUE(out.church_rosser) << out.violation;
  const AttrId arena = spec.ie.schema().MustIndexOf("arena");
  EXPECT_TRUE(out.target.at(arena).is_null());
  // All other attributes are still deduced.
  for (AttrId a = 0; a < spec.ie.schema().size(); ++a) {
    if (a == arena) continue;
    EXPECT_FALSE(out.target.at(a).is_null()) << spec.ie.schema().name(a);
  }
}

TEST(ChaseMj, PartialOrdersMatchExample2) {
  Specification spec = MjSpecification();
  spec.config.keep_orders = true;
  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;
  const ChaseOutcome out = engine.RunFromInitial();
  ASSERT_TRUE(out.church_rosser);

  const Schema& s = spec.ie.schema();
  const auto& rnds = out.orders[s.MustIndexOf("rnds")];
  // Example 2 (1): ti ≺rnds t2 for i in {1,3} (0-based: 0 and 2).
  EXPECT_TRUE(rnds.Precedes(0, 1));
  EXPECT_TRUE(rnds.Precedes(2, 1));
  EXPECT_TRUE(rnds.Precedes(2, 0));
  // Example 2 (3): t4 is less accurate than t1..t3 on rnds (via ϕ4).
  EXPECT_TRUE(rnds.Precedes(3, 1));
  EXPECT_FALSE(rnds.Precedes(1, 3));

  const auto& jnum = out.orders[s.MustIndexOf("J#")];
  EXPECT_TRUE(jnum.Precedes(0, 1));  // 45 ≺ 23 via ϕ2
  const auto& mn = out.orders[s.MustIndexOf("MN")];
  // Fig. 2: ϕ9 ties the null MNs of t1..t3; ϕ7 puts them below t4.
  EXPECT_TRUE(mn.Reaches(0, 1));
  EXPECT_TRUE(mn.Reaches(1, 0));
  EXPECT_FALSE(mn.Precedes(0, 1));  // equal values: not strict
  EXPECT_TRUE(mn.Precedes(0, 3));
}

TEST(ChaseMj, ExplicitAxiomsMatchBuiltins) {
  // Cross-validation: chasing with declaratively-grounded ϕ7-ϕ9 equals the
  // engine's native axiom handling.
  Specification spec = MjSpecification();
  const ChaseOutcome builtin = IsCR(spec);

  Specification explicit_spec = MjSpecification();
  explicit_spec.config.builtin_axioms = false;
  const std::vector<AccuracyRule> axioms =
      ExpandAxioms(explicit_spec.ie.schema());
  explicit_spec.rules.insert(explicit_spec.rules.end(), axioms.begin(),
                             axioms.end());
  const ChaseOutcome declarative = IsCR(explicit_spec);

  ASSERT_TRUE(builtin.church_rosser);
  ASSERT_TRUE(declarative.church_rosser) << declarative.violation;
  EXPECT_EQ(builtin.target, declarative.target);
}

TEST(ChaseMj, CandidateCheckAcceptsTargetAndRejectsCorruptions) {
  Specification spec = MjSpecification();
  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;

  const Tuple target = MjExpectedTarget();
  EXPECT_TRUE(engine.CheckCandidate(target));

  // A candidate contradicting master data must fail.
  Tuple wrong_league = target;
  wrong_league.set(spec.ie.schema().MustIndexOf("league"), Value::Str("SL"));
  EXPECT_FALSE(engine.CheckCandidate(wrong_league));

  // A candidate contradicting the deduced currency order must fail.
  Tuple wrong_rnds = target;
  wrong_rnds.set(spec.ie.schema().MustIndexOf("rnds"), Value::Int(16));
  EXPECT_FALSE(engine.CheckCandidate(wrong_rnds));
}

TEST(ChaseMj, ChaseIsIdempotentAcrossRuns) {
  // The engine is reusable: repeated runs over the same ground program
  // yield identical outcomes (fresh per-run state).
  Specification spec = MjSpecification();
  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;
  const ChaseOutcome a = engine.RunFromInitial();
  const ChaseOutcome b = engine.RunFromInitial();
  ASSERT_TRUE(a.church_rosser);
  ASSERT_TRUE(b.church_rosser);
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.stats.steps_applied, b.stats.steps_applied);
}

TEST(ChaseMj, PartialInitialTemplateIsRespected) {
  // User-provided te values (framework step (4)) survive and steer the
  // chase; contradicting master data is detected.
  Specification spec = MjSpecification();
  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;

  Tuple seed(std::vector<Value>(spec.ie.schema().size(), Value::Null()));
  seed.set(spec.ie.schema().MustIndexOf("arena"),
           Value::Str("United Center"));
  const ChaseOutcome ok = engine.Run(seed);
  ASSERT_TRUE(ok.church_rosser);
  EXPECT_EQ(ok.target, MjExpectedTarget());

  Tuple bad(std::vector<Value>(spec.ie.schema().size(), Value::Null()));
  bad.set(spec.ie.schema().MustIndexOf("league"), Value::Str("SL"));
  const ChaseOutcome nil = engine.Run(bad);
  EXPECT_FALSE(nil.church_rosser);
}

}  // namespace
}  // namespace relacc
