// Tests for the top-k candidate-target algorithms (Sec. 6): TopKCT and
// RankJoinCT are exact (cross-validated against the brute-force oracle and
// against each other); TopKCTh returns valid candidates.

#include <gtest/gtest.h>

#include "chase/chase_engine.h"
#include "mj_fixture.h"
#include "rules/cfd.h"
#include "service_fixture.h"
#include "topk/rank_join_ct.h"
#include "topk/topk_ct.h"

namespace relacc {
namespace {

using testing_fixture::EncodedEngine;
using testing_fixture::MjExpectedTarget;
using testing_fixture::MjSpecification;

/// The Example 9/10 setting: drop `team` from ϕ6 and ϕ11 stays, so the
/// deduced target misses team and arena.
Specification Example9Spec() {
  Specification spec = MjSpecification();
  for (AccuracyRule& r : spec.rules) {
    if (r.name == "phi6") {
      std::erase_if(r.assignments, [&](const auto& as) {
        return as.first == spec.ie.schema().MustIndexOf("team");
      });
    }
  }
  return spec;
}

struct TopKHarness {
  explicit TopKHarness(Specification s)
      : spec(std::move(s)),
        encoded(spec),
        engine(&encoded.engine),
        outcome(engine->RunFromInitial()),
        pref(PreferenceModel::FromOccurrences(spec.ie, spec.masters)) {}
  Specification spec;
  EncodedEngine encoded;
  const ChaseEngine* engine;
  ChaseOutcome outcome;
  PreferenceModel pref;
};

TEST(TopK, Example9TargetIncompleteOnTeamAndArena) {
  TopKHarness h(Example9Spec());
  ASSERT_TRUE(h.outcome.church_rosser);
  const Schema& s = h.spec.ie.schema();
  EXPECT_TRUE(h.outcome.target.at(s.MustIndexOf("team")).is_null());
  EXPECT_TRUE(h.outcome.target.at(s.MustIndexOf("arena")).is_null());
  EXPECT_FALSE(h.outcome.target.at(s.MustIndexOf("league")).is_null());
}

TEST(TopK, TopKCTMatchesBruteForceScores) {
  TopKHarness h(Example9Spec());
  for (int k : {1, 2, 3, 5, 8}) {
    const TopKResult fast = TopKCT(*h.engine, h.spec.masters,
                                   h.outcome.target, h.pref, k);
    const TopKResult slow = TopKBruteForce(*h.engine, h.spec.masters,
                                           h.outcome.target, h.pref, k);
    ASSERT_EQ(fast.targets.size(), slow.targets.size()) << "k=" << k;
    for (std::size_t i = 0; i < fast.scores.size(); ++i) {
      EXPECT_DOUBLE_EQ(fast.scores[i], slow.scores[i]) << "k=" << k;
    }
  }
}

TEST(TopK, RankJoinCTMatchesTopKCT) {
  TopKHarness h(Example9Spec());
  for (int k : {1, 2, 4, 6}) {
    const TopKResult a = TopKCT(*h.engine, h.spec.masters, h.outcome.target,
                                h.pref, k);
    const TopKResult b = RankJoinCT(*h.engine, h.spec.masters,
                                    h.outcome.target, h.pref, k);
    ASSERT_EQ(a.targets.size(), b.targets.size()) << "k=" << k;
    for (std::size_t i = 0; i < a.scores.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.scores[i], b.scores[i]) << "k=" << k;
    }
  }
}

TEST(TopK, BestCandidateIsTheTrueTarget) {
  // With occurrence+master weights, the top candidate of Example 9 is the
  // Example 5 target (Chicago Bulls / United Center).
  TopKHarness h(Example9Spec());
  const TopKResult r =
      TopKCT(*h.engine, h.spec.masters, h.outcome.target, h.pref, 1);
  ASSERT_EQ(r.targets.size(), 1u);
  EXPECT_EQ(r.targets[0], MjExpectedTarget());
}

TEST(TopK, AllAcceptedTuplesPassTheCheck) {
  TopKHarness h(Example9Spec());
  const TopKResult r =
      TopKCT(*h.engine, h.spec.masters, h.outcome.target, h.pref, 10);
  EXPECT_GE(r.targets.size(), 2u);
  for (const Tuple& t : r.targets) {
    EXPECT_TRUE(t.IsComplete());
    EXPECT_TRUE(h.engine->CheckCandidate(t));
    // Candidates preserve the non-null attributes of the deduced target.
    for (AttrId a = 0; a < h.outcome.target.size(); ++a) {
      if (!h.outcome.target.at(a).is_null()) {
        EXPECT_EQ(t.at(a), h.outcome.target.at(a));
      }
    }
  }
  // Scores are non-increasing.
  for (std::size_t i = 1; i < r.scores.size(); ++i) {
    EXPECT_LE(r.scores[i], r.scores[i - 1]);
  }
}

TEST(TopK, InvalidCombinationsAreRejected) {
  // (Chicago Bulls, Chicago Stadium) violates ϕ11 + the anchor axiom and
  // must not appear among candidates.
  TopKHarness h(Example9Spec());
  const Schema& s = h.spec.ie.schema();
  const TopKResult r =
      TopKCT(*h.engine, h.spec.masters, h.outcome.target, h.pref, 100);
  for (const Tuple& t : r.targets) {
    const bool bulls = t.at(s.MustIndexOf("team")) == Value::Str("Chicago Bulls");
    const bool uc = t.at(s.MustIndexOf("arena")) == Value::Str("United Center");
    if (bulls) {
      EXPECT_TRUE(uc) << t.ToString();
    }
  }
  EXPECT_GT(r.checks, static_cast<int64_t>(r.targets.size()));
}

TEST(TopK, CompleteTargetYieldsItself) {
  TopKHarness h(MjSpecification());
  ASSERT_TRUE(h.outcome.target.IsComplete());
  const TopKResult r =
      TopKCT(*h.engine, h.spec.masters, h.outcome.target, h.pref, 5);
  ASSERT_EQ(r.targets.size(), 1u);
  EXPECT_EQ(r.targets[0], h.outcome.target);
}

TEST(TopK, HeuristicReturnsOnlyValidCandidates) {
  TopKHarness h(Example9Spec());
  const TopKResult exact =
      TopKCT(*h.engine, h.spec.masters, h.outcome.target, h.pref, 5);
  const TopKResult heur =
      TopKCTh(*h.engine, h.spec.masters, h.outcome.target, h.pref, 5);
  EXPECT_FALSE(heur.targets.empty());
  double best_heur = -1e300;
  for (std::size_t i = 0; i < heur.targets.size(); ++i) {
    EXPECT_TRUE(h.engine->CheckCandidate(heur.targets[i]));
    best_heur = std::max(best_heur, heur.scores[i]);
  }
  // The heuristic cannot beat the exact algorithm's best score.
  EXPECT_LE(best_heur, exact.scores[0] + 1e-9);
}

TEST(TopK, EarlyTerminationDoesNotExhaustTheLattice) {
  // k=1 must not enumerate the whole product space.
  TopKHarness h(Example9Spec());
  const TopKResult r =
      TopKCT(*h.engine, h.spec.masters, h.outcome.target, h.pref, 1);
  const TopKResult all = TopKBruteForce(*h.engine, h.spec.masters,
                                        h.outcome.target, h.pref, 1000);
  EXPECT_LT(r.checks, all.checks);
}

TEST(TopK, KZeroAndNegativeAreEmpty) {
  TopKHarness h(Example9Spec());
  EXPECT_TRUE(TopKCT(*h.engine, h.spec.masters, h.outcome.target, h.pref, 0)
                  .targets.empty());
  EXPECT_TRUE(TopKCT(*h.engine, h.spec.masters, h.outcome.target, h.pref, -3)
                  .targets.empty());
}

TEST(TopK, BudgetExhaustionIsReported) {
  TopKHarness h(Example9Spec());
  TopKOptions opts;
  opts.max_expansions = 1;
  const TopKResult r = TopKCT(*h.engine, h.spec.masters, h.outcome.target,
                              h.pref, 100, opts);
  EXPECT_TRUE(r.exhausted_budget);
}

TEST(Preference, OccurrenceWeightsCountColumnsAndMasters) {
  Specification spec = MjSpecification();
  const PreferenceModel pref =
      PreferenceModel::FromOccurrences(spec.ie, spec.masters);
  const Schema& s = spec.ie.schema();
  // team: Chicago Bulls appears twice in Ie and once in nba.
  EXPECT_DOUBLE_EQ(
      pref.Weight(s.MustIndexOf("team"), Value::Str("Chicago Bulls")), 3.0);
  EXPECT_DOUBLE_EQ(pref.Weight(s.MustIndexOf("team"), Value::Str("Chicago")),
                   1.0);
  // Unknown values get the default weight.
  EXPECT_DOUBLE_EQ(pref.Weight(s.MustIndexOf("team"), Value::Str("nope")),
                   0.0);
}

TEST(Preference, ActiveDomainMergesIeAndMasters) {
  Specification spec = MjSpecification();
  const Schema& s = spec.ie.schema();
  EncodedEngine encoded(spec);
  const PreferenceModel pref =
      PreferenceModel::FromOccurrences(spec.ie, spec.masters);
  // Ie: Chicago, Chicago Bulls, Birmingham Barons; master adds Washington
  // Wizards (Chicago Bulls deduped). Ties in the rankings break on this
  // order, so it is pinned exactly, with the weights.
  const AttrId team = s.MustIndexOf("team");
  const auto dom = ActiveDomain(encoded.engine.encoded_ie(), spec.masters,
                                team, false);
  const std::vector<Value> expected = {
      Value::Str("Chicago"), Value::Str("Chicago Bulls"),
      Value::Str("Birmingham Barons"), Value::Str("Washington Wizards")};
  EXPECT_EQ(dom, expected);
  const std::vector<double> weights = {1.0, 3.0, 1.0, 1.0};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(pref.Weight(team, expected[i]), weights[i]) << i;
  }
  const AttrId rnds = s.MustIndexOf("rnds");
  const std::vector<Value> rounds = {Value::Int(16), Value::Int(27),
                                     Value::Int(1), Value::Int(127)};
  EXPECT_EQ(ActiveDomain(encoded.engine.encoded_ie(), spec.masters, rnds,
                         false),
            rounds);

  // A kInt column whose dictionary interned the double form first still
  // decodes to Int values (the dictionary's representative is 16.0).
  Dictionary dict;
  dict.Intern(Value::Real(16.0));
  const ColumnarRelation cie = ColumnarRelation::FromRelation(spec.ie, &dict);
  const auto decoded = ActiveDomain(cie, spec.masters, rnds, false);
  EXPECT_EQ(decoded, rounds);
  ASSERT_FALSE(decoded.empty());
  for (const Value& v : decoded) EXPECT_EQ(v.type(), ValueType::kInt);
}

}  // namespace
}  // namespace relacc
