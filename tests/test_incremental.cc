#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chase/chase_engine.h"
#include "datagen/profile_generator.h"
#include "framework/framework.h"
#include "mj_fixture.h"
#include "service_fixture.h"
#include "topk/preference.h"

namespace relacc {
namespace {

using testing_fixture::EncodedEngine;
using testing_fixture::MjExpectedTarget;
using testing_fixture::MjSpecification;
using testing_fixture::Phi12;

// Drop phi11 so arena stays undeduced and there is something to resume
// into (Sec. 3's incomplete-target example).
Specification IncompleteMjSpec() {
  Specification spec = MjSpecification();
  std::vector<AccuracyRule> rules;
  for (const AccuracyRule& r : spec.rules) {
    if (r.name != "phi11") rules.push_back(r);
  }
  spec.rules = std::move(rules);
  return spec;
}

// The resume tests compare ResumeWith, which continues on the engine's
// persistent session state, against from-scratch Run() of the same
// designated values: outcomes must be identical.

TEST(ResumeWith, AllNullResumeEqualsPlainRun) {
  Specification spec = IncompleteMjSpec();
  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;

  Tuple all_null(std::vector<Value>(spec.ie.schema().size(), Value::Null()));
  ChaseOutcome full = engine.Run(all_null);
  ChaseOutcome resumed = engine.ResumeWith(all_null);
  ASSERT_TRUE(full.church_rosser);
  ASSERT_TRUE(resumed.church_rosser);
  EXPECT_EQ(full.target, resumed.target);
}

TEST(ResumeWith, PartialRevisionMatchesFromScratchRun) {
  Specification spec = IncompleteMjSpec();
  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;
  const Schema& schema = spec.ie.schema();

  Tuple revision(std::vector<Value>(schema.size(), Value::Null()));
  revision.set(schema.MustIndexOf("arena"), Value::Str("United Center"));

  ChaseOutcome full = engine.Run(revision);
  ChaseOutcome resumed = engine.ResumeWith(revision);
  ASSERT_TRUE(full.church_rosser);
  ASSERT_TRUE(resumed.church_rosser);
  EXPECT_EQ(full.target, resumed.target);
  EXPECT_TRUE(resumed.target.IsComplete());
  EXPECT_EQ(resumed.target, MjExpectedTarget());
}

TEST(ResumeWith, ConflictingRevisionIsRejectedOnBothPaths) {
  Specification spec = IncompleteMjSpec();
  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;
  const Schema& schema = spec.ie.schema();

  // league is pinned to NBA by master data; revising it to SL must make
  // the continuation non-Church-Rosser on both paths.
  Tuple revision(std::vector<Value>(schema.size(), Value::Null()));
  revision.set(schema.MustIndexOf("league"), Value::Str("SL"));

  ChaseOutcome full = engine.Run(revision);
  ChaseOutcome resumed = engine.ResumeWith(revision);
  EXPECT_FALSE(full.church_rosser);
  EXPECT_FALSE(resumed.church_rosser);
  EXPECT_FALSE(resumed.violation.empty());
}

TEST(ResumeWith, NonChurchRosserBaseReportsViolation) {
  Specification spec = MjSpecification();
  spec.rules.push_back(Phi12(spec.ie.schema()));
  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;

  Tuple all_null(std::vector<Value>(spec.ie.schema().size(), Value::Null()));
  ChaseOutcome resumed = engine.ResumeWith(all_null);
  EXPECT_FALSE(resumed.church_rosser);
  EXPECT_FALSE(resumed.violation.empty());
}

TEST(ResumeWith, RepeatedResumesAreIndependent) {
  Specification spec = IncompleteMjSpec();
  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;
  const Schema& schema = spec.ie.schema();
  AttrId arena = schema.MustIndexOf("arena");

  Tuple r1(std::vector<Value>(schema.size(), Value::Null()));
  r1.set(arena, Value::Str("United Center"));
  Tuple r2(std::vector<Value>(schema.size(), Value::Null()));
  r2.set(arena, Value::Str("Regions Park"));

  // Mutually incompatible revisions: the session must reset to the
  // checkpoint between them instead of leaking the previous value.
  ChaseOutcome a = engine.ResumeWith(r1);
  ChaseOutcome b = engine.ResumeWith(r2);
  ChaseOutcome c = engine.ResumeWith(r1);
  ASSERT_TRUE(a.church_rosser);
  ASSERT_TRUE(b.church_rosser);
  EXPECT_EQ(a.target.at(arena), Value::Str("United Center"));
  EXPECT_EQ(b.target.at(arena), Value::Str("Regions Park"));
  EXPECT_EQ(a.target, c.target);
}

TEST(ResumeWith, AgreesWithFullRunsAcrossGeneratedRevisions) {
  ProfileConfig config = MedConfig(/*seed=*/77);
  config.num_entities = 25;
  config.master_size = 20;
  EntityDataset dataset = GenerateProfile(config);
  int compared = 0;
  for (size_t i = 0; i < dataset.entities.size(); ++i) {
    Specification spec = dataset.SpecFor(static_cast<int>(i));
    EncodedEngine encoded(spec);
    ChaseEngine& engine = encoded.engine;
    ChaseOutcome base = engine.RunFromInitial();
    if (!base.church_rosser || base.target.IsComplete()) continue;

    // Reveal the ground truth of each null attribute in turn.
    const Tuple& truth = dataset.truths[i];
    for (AttrId a = 0; a < spec.ie.schema().size(); ++a) {
      if (!base.target.at(a).is_null() || truth.at(a).is_null()) continue;
      Tuple revision(std::vector<Value>(spec.ie.schema().size(), Value::Null()));
      revision.set(a, truth.at(a));
      ChaseOutcome full = engine.Run(revision);
      ChaseOutcome resumed = engine.ResumeWith(revision);
      ASSERT_EQ(full.church_rosser, resumed.church_rosser)
          << "entity " << i << " attr " << a;
      if (full.church_rosser) {
        EXPECT_EQ(full.target, resumed.target)
            << "entity " << i << " attr " << a;
      }
      ++compared;
    }
  }
  EXPECT_GT(compared, 10);
}

TEST(ResumeWith, KeepOrdersIsHonoured) {
  Specification spec = IncompleteMjSpec();
  spec.config.keep_orders = true;
  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;
  Tuple all_null(std::vector<Value>(spec.ie.schema().size(), Value::Null()));
  ChaseOutcome resumed = engine.ResumeWith(all_null);
  ASSERT_TRUE(resumed.church_rosser);
  ASSERT_EQ(resumed.orders.size(),
            static_cast<size_t>(spec.ie.schema().size()));
  // t0 ⪯ t1 on rnds (16 < 27 within NBA, phi1).
  EXPECT_TRUE(resumed.orders[spec.ie.schema().MustIndexOf("rnds")].Reaches(0, 1));
}

/// One generated med entity with at least `min_nulls` revisable
/// attributes and its truth values for them, for the session tests.
struct SessionFixture {
  Specification spec;
  std::vector<std::pair<AttrId, Value>> reveals;  ///< null attr -> truth
};

std::optional<SessionFixture> FindSessionFixture(std::size_t min_nulls) {
  ProfileConfig config = MedConfig(/*seed=*/123);
  config.num_entities = 20;
  config.master_size = 30;
  config.num_free_attrs = 4;
  config.free_corruption_prob = 1.0;
  EntityDataset dataset = GenerateProfile(config);
  for (size_t i = 0; i < dataset.entities.size(); ++i) {
    SessionFixture fx;
    fx.spec = dataset.SpecFor(static_cast<int>(i));
    EncodedEngine encoded(fx.spec);
    ChaseEngine& engine = encoded.engine;
    ChaseOutcome base = engine.RunFromInitial();
    if (!base.church_rosser) continue;
    const Tuple& truth = dataset.truths[i];
    for (AttrId a = 0; a < fx.spec.ie.schema().size(); ++a) {
      if (base.target.at(a).is_null() && !truth.at(a).is_null()) {
        fx.reveals.emplace_back(a, truth.at(a));
      }
    }
    if (fx.reveals.size() >= min_nulls) return fx;
  }
  return std::nullopt;
}

TEST(ResumeWith, SessionExtensionMatchesFromScratchEveryRound) {
  std::optional<SessionFixture> fx = FindSessionFixture(3);
  ASSERT_TRUE(fx.has_value());
  EncodedEngine encoded(fx->spec);
  ChaseEngine& engine = encoded.engine;

  // Cumulative reveals, as DriveInteraction issues them: every round must
  // match the from-scratch chase of the same designated values.
  const int num_attrs = fx->spec.ie.schema().size();
  Tuple cumulative(std::vector<Value>(num_attrs, Value::Null()));
  for (const auto& [attr, value] : fx->reveals) {
    cumulative.set(attr, value);
    ChaseOutcome full = engine.Run(cumulative);
    ChaseOutcome resumed = engine.ResumeWith(cumulative);
    ASSERT_EQ(full.church_rosser, resumed.church_rosser) << "attr " << attr;
    if (full.church_rosser) {
      EXPECT_EQ(full.target, resumed.target) << "attr " << attr;
    }
  }
  // A non-extending revision after the session grew: back to round one.
  Tuple fresh(std::vector<Value>(num_attrs, Value::Null()));
  fresh.set(fx->reveals[1].first, fx->reveals[1].second);
  ChaseOutcome full = engine.Run(fresh);
  ChaseOutcome resumed = engine.ResumeWith(fresh);
  ASSERT_EQ(full.church_rosser, resumed.church_rosser);
  if (full.church_rosser) {
    EXPECT_EQ(full.target, resumed.target);
  }
}

TEST(ResumeWith, AbortedResumeKeepsSessionUsable) {
  Specification spec = IncompleteMjSpec();
  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;
  const Schema& schema = spec.ie.schema();

  Tuple good(std::vector<Value>(schema.size(), Value::Null()));
  good.set(schema.MustIndexOf("arena"), Value::Str("United Center"));
  Tuple bad = good;
  bad.set(schema.MustIndexOf("league"), Value::Str("SL"));

  ChaseOutcome first = engine.ResumeWith(good);
  ASSERT_TRUE(first.church_rosser);
  // Extends the session's applied values but aborts mid-chase; the
  // session must roll back to its last valid state.
  ChaseOutcome aborted = engine.ResumeWith(bad);
  EXPECT_FALSE(aborted.church_rosser);
  EXPECT_FALSE(aborted.violation.empty());
  ChaseOutcome again = engine.ResumeWith(good);
  ASSERT_TRUE(again.church_rosser);
  EXPECT_EQ(first.target, again.target);
  EXPECT_EQ(engine.Run(good).target, again.target);
}

TEST(ResumeWithStats, ReportsPerCallDeltas) {
  Specification spec = IncompleteMjSpec();
  const Schema& schema = spec.ie.schema();
  Tuple all_null(std::vector<Value>(schema.size(), Value::Null()));
  Tuple revision = all_null;
  revision.set(schema.MustIndexOf("arena"), Value::Str("United Center"));

  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;
  const ChaseOutcome checkpoint = engine.RunFromCheckpoint();
  ASSERT_TRUE(checkpoint.church_rosser);

  // Resuming with nothing new performs no work: the checkpoint chase
  // must not be re-reported (the pre-fix behaviour double-counted it
  // in every round's stats).
  ChaseOutcome nothing = engine.ResumeWith(all_null);
  EXPECT_EQ(nothing.stats.steps_applied, 0);
  EXPECT_EQ(nothing.stats.pairs_derived, 0);
  EXPECT_EQ(nothing.stats.ground_steps, checkpoint.stats.ground_steps);

  // A real revision reports only its own work, and summing rounds
  // cannot double-count: the second identical call extends the session
  // and reports zero.
  ChaseOutcome first = engine.ResumeWith(revision);
  ASSERT_TRUE(first.church_rosser);
  EXPECT_GT(first.stats.pairs_derived, 0);
  EXPECT_LT(first.stats.pairs_derived, checkpoint.stats.pairs_derived);
  ChaseOutcome second = engine.ResumeWith(revision);
  ASSERT_TRUE(second.church_rosser);
  EXPECT_EQ(second.stats.pairs_derived, 0);
  EXPECT_EQ(second.stats.steps_applied, 0);
}

TEST(ResumeWith, CandidateChecksPristineAcrossSessionActivity) {
  // The check probe state and the resume session state are
  // separate; resumes (including aborting ones) must not disturb
  // candidate verdicts, and vice versa.
  Specification spec = IncompleteMjSpec();
  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;
  const Schema& schema = spec.ie.schema();

  ChaseOutcome base = engine.RunFromCheckpoint();
  ASSERT_TRUE(base.church_rosser);
  const std::vector<Tuple> pool = EnumerateCandidateProduct(
      engine.encoded_ie(), spec.masters, base.target,
      /*include_default_values=*/false, /*limit=*/32);
  ASSERT_FALSE(pool.empty());
  std::vector<char> verdicts_before;
  for (const Tuple& t : pool) {
    verdicts_before.push_back(engine.CheckCandidate(t) ? 1 : 0);
  }

  Tuple good(std::vector<Value>(schema.size(), Value::Null()));
  good.set(schema.MustIndexOf("arena"), Value::Str("United Center"));
  Tuple bad(std::vector<Value>(schema.size(), Value::Null()));
  bad.set(schema.MustIndexOf("league"), Value::Str("SL"));
  ASSERT_TRUE(engine.ResumeWith(good).church_rosser);
  ASSERT_FALSE(engine.ResumeWith(bad).church_rosser);

  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(engine.CheckCandidate(pool[i]) ? 1 : 0, verdicts_before[i])
        << i;
  }
  // And the session still continues correctly after the checks.
  ChaseOutcome resumed = engine.ResumeWith(good);
  ASSERT_TRUE(resumed.church_rosser);
  EXPECT_EQ(resumed.target, engine.Run(good).target);
}

TEST(ChaseConfig, ActionBudgetAborts) {
  Specification spec = MjSpecification();
  spec.config.max_actions = 1;  // far below what the MJ chase needs
  ChaseOutcome outcome = IsCR(spec);
  EXPECT_FALSE(outcome.church_rosser);
  EXPECT_NE(outcome.violation.find("budget"), std::string::npos);
}

TEST(Framework, IncrementalAndFullPathsAgree) {
  ProfileConfig config = MedConfig(/*seed=*/91);
  config.num_entities = 15;
  config.master_size = 12;
  EntityDataset dataset = GenerateProfile(config);

  // The session re-chases each revision incrementally (ResumeWith); every
  // round it shows must equal the from-scratch chase of its template on a
  // separate engine, and whole runs must agree across thread budgets.
  int rounds_checked = 0;
  for (size_t i = 0; i < dataset.entities.size(); ++i) {
    Specification spec = dataset.SpecFor(static_cast<int>(i));
    PreferenceModel pref =
        PreferenceModel::FromOccurrences(spec.ie, spec.masters);
    std::optional<FrameworkResult> first;
    for (const int threads : {1, 4}) {
      SimulatedUser simulated(dataset.truths[i]);
      testing_fixture::OracleCheckedUser user(spec, &simulated);
      ServiceOptions options;
      options.num_threads = threads;
      auto service = testing_fixture::CreateService(spec, options);
      auto session = testing_fixture::StartSession(*service, pref, /*k=*/15);
      user.Watch(session.get());
      const FrameworkResult r = DriveInteraction(*session, &user);
      user.CheckFinal(r);
      rounds_checked += user.rounds_checked();
      if (!first.has_value()) {
        first = r;
        continue;
      }
      EXPECT_EQ(r.church_rosser, first->church_rosser) << "entity " << i;
      EXPECT_EQ(r.found_complete_target, first->found_complete_target)
          << "entity " << i;
      EXPECT_EQ(r.interaction_rounds, first->interaction_rounds)
          << "entity " << i;
      EXPECT_EQ(r.target, first->target) << "entity " << i;
    }
  }
  EXPECT_GT(rounds_checked, 0);
}

}  // namespace
}  // namespace relacc
