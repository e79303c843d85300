// Tests for the interactive framework (Fig. 3) and the simulated user
// protocol of Exp-3.

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "api/accuracy_service.h"
#include "datagen/profile_generator.h"
#include "framework/framework.h"
#include "mj_fixture.h"
#include "service_fixture.h"

namespace relacc {
namespace {

using testing_fixture::MjExpectedTarget;
using testing_fixture::MjSpecification;
using testing_fixture::OracleCheckedUser;
using testing_fixture::Phi12;
using testing_fixture::RunInteraction;

TEST(Framework, CompleteTargetNeedsNoInteraction) {
  Specification spec = MjSpecification();
  const PreferenceModel pref =
      PreferenceModel::FromOccurrences(spec.ie, spec.masters);
  SimulatedUser user(MjExpectedTarget());
  const FrameworkResult r = RunInteraction(spec, pref, &user);
  EXPECT_TRUE(r.church_rosser);
  EXPECT_TRUE(r.found_complete_target);
  EXPECT_EQ(r.interaction_rounds, 0);
  EXPECT_EQ(r.target, MjExpectedTarget());
  EXPECT_EQ(r.automatic_attrs, spec.ie.schema().size());
}

TEST(Framework, IncompleteTargetResolvedViaCandidates) {
  // Drop ϕ11: arena is open; the top-k candidates include the true target,
  // which the (simulated) user accepts in round 0.
  Specification spec = MjSpecification();
  std::erase_if(spec.rules,
                [](const AccuracyRule& r) { return r.name == "phi11"; });
  const PreferenceModel pref =
      PreferenceModel::FromOccurrences(spec.ie, spec.masters);
  SimulatedUser user(MjExpectedTarget());
  const FrameworkResult r = RunInteraction(spec, pref, &user);
  EXPECT_TRUE(r.found_complete_target);
  EXPECT_EQ(r.target, MjExpectedTarget());
  EXPECT_LE(r.interaction_rounds, 1);
}

TEST(Framework, NonChurchRosserSpecIsReported) {
  Specification spec = MjSpecification();
  spec.rules.push_back(Phi12(spec.ie.schema()));
  const PreferenceModel pref =
      PreferenceModel::FromOccurrences(spec.ie, spec.masters);
  SimulatedUser user(MjExpectedTarget());
  const FrameworkResult r = RunInteraction(spec, pref, &user);
  EXPECT_FALSE(r.church_rosser);
  EXPECT_FALSE(r.found_complete_target);
}

TEST(Framework, RevisionsConvergeOnGeneratedEntities) {
  // Med-like mini dataset: every entity reaches a complete target within a
  // few simulated revisions (the Exp-3 protocol; paper: ≤3-4 rounds).
  ProfileConfig c = MedConfig(21);
  c.num_entities = 25;
  c.master_size = 20;
  const EntityDataset ds = GenerateProfile(c);
  int max_rounds = 0;
  for (std::size_t i = 0; i < ds.entities.size(); ++i) {
    Specification spec = ds.SpecFor(static_cast<int>(i));
    const PreferenceModel pref =
        PreferenceModel::FromOccurrences(spec.ie, spec.masters);
    SimulatedUser user(ds.truths[i]);
    const FrameworkResult r = RunInteraction(spec, pref, &user, /*k=*/15);
    ASSERT_TRUE(r.church_rosser) << "entity " << i;
    EXPECT_TRUE(r.found_complete_target) << "entity " << i;
    max_rounds = std::max(max_rounds, r.interaction_rounds);
  }
  EXPECT_LE(max_rounds, 12);
}

/// Wraps SimulatedUser and records everything the framework shows the
/// user: per round, the deduced target and the ranked candidate list.
/// Byte-identical transcripts across configurations prove the whole
/// session — not just the final result — is configuration-independent.
class TranscriptUser : public UserOracle {
 public:
  explicit TranscriptUser(Tuple truth) : inner_(std::move(truth)) {}

  Response Inspect(const Tuple& deduced_te,
                   const std::vector<Tuple>& candidates) override {
    transcript_ += "te: " + deduced_te.ToString() + "\n";
    for (const Tuple& c : candidates) {
      transcript_ += "  cand: " + c.ToString() + "\n";
    }
    return inner_.Inspect(deduced_te, candidates);
  }

  const std::string& transcript() const { return transcript_; }

 private:
  SimulatedUser inner_;
  std::string transcript_;
};

TEST(Framework, TranscriptsIdenticalAcrossStrategiesAndThreadBudgets) {
  // More corrupted free attributes than Med proper, so sessions run
  // several rounds and the resume session's prefix reuse is exercised.
  // Every round's incremental re-chase (ChaseEngine::ResumeWith) is
  // checked against the from-scratch chase of the same template.
  ProfileConfig c = MedConfig(55);
  c.num_entities = 8;
  c.master_size = 12;
  c.num_free_attrs = 4;
  c.free_corruption_prob = 0.6;
  const EntityDataset ds = GenerateProfile(c);

  int rounds_checked = 0;
  for (std::size_t i = 0; i < ds.entities.size(); ++i) {
    std::string reference;
    std::string reference_config;
    Tuple reference_target;
    for (int threads : {1, 4}) {
      const Specification spec = ds.SpecFor(static_cast<int>(i));
      const PreferenceModel pref =
          PreferenceModel::FromOccurrences(spec.ie, spec.masters);
      TranscriptUser transcript(ds.truths[i]);
      OracleCheckedUser user(spec, &transcript);
      ServiceOptions options;
      options.num_threads = threads;
      auto service = testing_fixture::CreateService(spec, options);
      auto session = testing_fixture::StartSession(*service, pref, /*k=*/5);
      user.Watch(session.get());
      const FrameworkResult r = DriveInteraction(*session, &user);
      ASSERT_TRUE(r.church_rosser) << "entity " << i;
      user.CheckFinal(r);
      rounds_checked += user.rounds_checked();
      const std::string config_name = "threads " + std::to_string(threads);
      if (reference_config.empty()) {
        reference = transcript.transcript();
        reference_config = config_name;
        reference_target = r.target;
      } else {
        EXPECT_EQ(transcript.transcript(), reference)
            << "entity " << i << ": " << config_name
            << " diverged from " << reference_config;
        EXPECT_EQ(r.target, reference_target)
            << "entity " << i << ": " << config_name;
      }
    }
  }
  EXPECT_GT(rounds_checked, 0);
}

/// Revises `league` to a value that contradicts what the rules derive
/// for it, which turns the session non-Church-Rosser on the next round.
class ContradictingUser : public UserOracle {
 public:
  explicit ContradictingUser(AttrId league) : league_(league) {}

  Response Inspect(const Tuple&, const std::vector<Tuple>&) override {
    Response r;
    r.revision = {league_, Value::Str("SL")};
    return r;
  }

 private:
  AttrId league_;
};

TEST(Framework, LateNonChurchRosserVerdictKeepsRoundCount) {
  // Drop ϕ11 so arena stays open and round 0 consults the user; the
  // user's revision then makes round 1 non-Church-Rosser. The loop must
  // report the one revision it made, and no target.
  Specification spec = MjSpecification();
  std::erase_if(spec.rules,
                [](const AccuracyRule& r) { return r.name == "phi11"; });
  const PreferenceModel pref =
      PreferenceModel::FromOccurrences(spec.ie, spec.masters);
  ContradictingUser user(spec.ie.schema().MustIndexOf("league"));
  const FrameworkResult r = RunInteraction(spec, pref, &user);
  EXPECT_FALSE(r.church_rosser);
  EXPECT_FALSE(r.found_complete_target);
  EXPECT_EQ(r.interaction_rounds, 1);
  EXPECT_EQ(r.target, Tuple());
}

TEST(SimulatedUserTest, AcceptsExactCandidateOnly) {
  const Tuple truth({Value::Str("a"), Value::Str("b")});
  SimulatedUser user(truth);
  const Tuple wrong({Value::Str("a"), Value::Str("x")});
  Tuple te(std::vector<Value>{Value::Str("a"), Value::Null()});
  auto resp = user.Inspect(te, {wrong});
  EXPECT_FALSE(resp.accepted_candidate.has_value());
  ASSERT_TRUE(resp.revision.has_value());
  EXPECT_EQ(resp.revision->first, 1);
  EXPECT_EQ(resp.revision->second, Value::Str("b"));
  resp = user.Inspect(te, {wrong, truth});
  ASSERT_TRUE(resp.accepted_candidate.has_value());
  EXPECT_EQ(*resp.accepted_candidate, 1);
}

}  // namespace
}  // namespace relacc
