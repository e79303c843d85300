// Tests for the interactive framework (Fig. 3) and the simulated user
// protocol of Exp-3.

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "datagen/profile_generator.h"
#include "framework/framework.h"
#include "mj_fixture.h"

// This file deliberately exercises the deprecated batch entry points:
// they are thin shims over AccuracyService now, and the expectations
// here are what pin the shims to the service's behaviour.
#include "api/version.h"

RELACC_SUPPRESS_DEPRECATED_BEGIN

namespace relacc {
namespace {

using testing_fixture::MjExpectedTarget;
using testing_fixture::MjSpecification;
using testing_fixture::Phi12;

TEST(Framework, CompleteTargetNeedsNoInteraction) {
  Specification spec = MjSpecification();
  const PreferenceModel pref =
      PreferenceModel::FromOccurrences(spec.ie, spec.masters);
  SimulatedUser user(MjExpectedTarget());
  const FrameworkResult r = RunFramework(spec, pref, &user);
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
  const FrameworkResult r = RunFramework(spec, pref, &user);
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
  const FrameworkResult r = RunFramework(spec, pref, &user);
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
    FrameworkOptions opts;
    opts.k = 15;
    const FrameworkResult r = RunFramework(spec, pref, &user, opts);
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
  // The re-chase strategies compared are the incremental resume
  // (ChaseEngine::ResumeWith) and the from-scratch chase per round.
  ProfileConfig c = MedConfig(55);
  c.num_entities = 8;
  c.master_size = 12;
  c.num_free_attrs = 4;
  c.free_corruption_prob = 0.6;
  const EntityDataset ds = GenerateProfile(c);

  for (std::size_t i = 0; i < ds.entities.size(); ++i) {
    std::string reference;
    std::string reference_config;
    Tuple reference_target;
    for (bool incremental : {true, false}) {
      for (int threads : {1, 4, 8}) {
        const Specification spec = ds.SpecFor(static_cast<int>(i));
        const PreferenceModel pref =
            PreferenceModel::FromOccurrences(spec.ie, spec.masters);
        TranscriptUser user(ds.truths[i]);
        FrameworkOptions opts;
        opts.k = 5;
        opts.incremental = incremental;
        opts.topk.num_threads = threads;
        const FrameworkResult r = RunFramework(spec, pref, &user, opts);
        ASSERT_TRUE(r.church_rosser) << "entity " << i;
        const std::string config_name =
            std::string(incremental ? "incremental" : "full") + "/" +
            std::to_string(threads);
        if (reference_config.empty()) {
          reference = user.transcript();
          reference_config = config_name;
          reference_target = r.target;
        } else {
          EXPECT_EQ(user.transcript(), reference)
              << "entity " << i << ": " << config_name
              << " diverged from " << reference_config;
          EXPECT_EQ(r.target, reference_target)
              << "entity " << i << ": " << config_name;
        }
      }
    }
  }
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

RELACC_SUPPRESS_DEPRECATED_END
