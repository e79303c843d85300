#ifndef RELACC_TESTS_SERVICE_FIXTURE_H_
#define RELACC_TESTS_SERVICE_FIXTURE_H_

// One-call drivers over the public AccuracyService API — a pipeline run,
// a Fig. 3 interaction and a batch `check`, each on a fresh service — a
// one-entity engine that owns its whole encode/ground/index chain, and a
// UserOracle wrapper that checks every interaction round against the
// from-scratch chase. Shared by the tests that compare these runs across
// thread budgets or against the engine.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/accuracy_service.h"
#include "chase/chase_engine.h"
#include "framework/framework.h"
#include "rules/grounding.h"

namespace relacc {
namespace testing_fixture {

/// One entity instance on the engine path, owning every link of the
/// chain: a private dictionary, the entity encoded into it, the program
/// Instantiate grounds over a private master block, and the engine over
/// both. Not movable — the engine points into the relation and program.
struct EncodedEngine {
  EncodedEngine(const Relation& ie, const std::vector<Relation>& masters,
                const std::vector<AccuracyRule>& rules,
                ChaseConfig config = {})
      : cie(ColumnarRelation::FromRelation(ie, &dict)),
        program(Instantiate(cie, masters, rules)),
        engine(cie, &program, config) {}
  explicit EncodedEngine(const Specification& spec)
      : EncodedEngine(spec.ie, spec.masters, spec.rules, spec.config) {}

  Dictionary dict;
  ColumnarRelation cie;
  GroundProgram program;
  ChaseEngine engine;
};

/// Creates a service; a Create failure fails the calling test.
inline std::unique_ptr<AccuracyService> CreateService(
    Specification spec, ServiceOptions options = {}) {
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(std::move(spec), std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

/// Streams `entities` through one pipeline session, in one Submit and one
/// window, of a fresh `budget`-thread service over (masters, rules,
/// config), and returns the finished report.
inline PipelineReport OneWindowPipeline(
    const std::vector<EntityInstance>& entities,
    const std::vector<Relation>& masters,
    const std::vector<AccuracyRule>& rules, int budget,
    CompletionPolicy completion = CompletionPolicy::kBestCandidate,
    const PreferenceModel* preference = nullptr, ChaseConfig config = {}) {
  Specification spec;
  spec.ie = Relation(entities.empty() ? Schema() : entities[0].schema());
  spec.masters = masters;
  spec.rules = rules;
  spec.config = config;
  ServiceOptions options;
  options.num_threads = budget;
  options.completion = completion;
  options.window =
      std::max<int64_t>(1, static_cast<int64_t>(entities.size()));
  auto service = CreateService(std::move(spec), std::move(options));
  PipelineSessionOptions session_options;
  session_options.preference = preference;
  Result<std::unique_ptr<PipelineSession>> session =
      service->StartPipeline(std::move(session_options));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  const Status submitted = session.value()->Submit(entities);
  EXPECT_TRUE(submitted.ok()) << submitted.ToString();
  Result<PipelineReport> report = session.value()->Finish();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

/// Opens an interaction session over `service`'s own entity that ranks
/// `k` candidates per round by `pref`.
inline std::unique_ptr<InteractionSession> StartSession(
    AccuracyService& service, const PreferenceModel& pref, int k) {
  InteractionOptions options;
  options.k = k;
  options.preference = &pref;
  Result<std::unique_ptr<InteractionSession>> session =
      service.StartInteraction(std::move(options));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

/// The Fig. 3 loop over `spec`'s own entity on a fresh `budget`-thread
/// service, ranking `k` candidates per round by `pref`.
inline FrameworkResult RunInteraction(const Specification& spec,
                                      const PreferenceModel& pref,
                                      UserOracle* user, int k = 15,
                                      int budget = 1) {
  ServiceOptions options;
  options.num_threads = budget;
  auto service = CreateService(spec, std::move(options));
  return DriveInteraction(*StartSession(*service, pref, k), user);
}

/// Sec. 6 `check` verdicts for `candidates` against `spec`'s own entity,
/// from a fresh `budget`-thread service.
inline std::vector<char> CheckOnService(const Specification& spec,
                                        const std::vector<Tuple>& candidates,
                                        int budget) {
  ServiceOptions options;
  options.num_threads = budget;
  Result<std::vector<char>> verdicts =
      CreateService(spec, std::move(options))->CheckCandidates(candidates);
  EXPECT_TRUE(verdicts.ok()) << verdicts.status().ToString();
  return std::move(verdicts).value();
}

/// Wraps a UserOracle and checks, on every round the session shows the
/// user, that the deduced target equals the from-scratch chase
/// Run(target_template()) on a separate engine over the same spec — the
/// oracle for the session's incremental ResumeWith re-chase.
class OracleCheckedUser : public UserOracle {
 public:
  OracleCheckedUser(const Specification& spec, UserOracle* inner)
      : oracle_(spec), inner_(inner) {}

  /// The session whose template the next rounds are checked against.
  void Watch(const InteractionSession* session) { session_ = session; }

  Response Inspect(const Tuple& deduced_te,
                   const std::vector<Tuple>& candidates) override {
    const ChaseOutcome expected =
        oracle_.engine.Run(session_->target_template());
    EXPECT_TRUE(expected.church_rosser) << "round " << rounds_;
    EXPECT_EQ(deduced_te, expected.target) << "round " << rounds_;
    ++rounds_;
    return inner_->Inspect(deduced_te, candidates);
  }

  /// Checks the round that ended the loop: a target the chase completed
  /// is never shown to the user, so Inspect did not see it.
  void CheckFinal(const FrameworkResult& result) const {
    const ChaseOutcome expected =
        oracle_.engine.Run(session_->target_template());
    EXPECT_EQ(expected.church_rosser, result.church_rosser);
    if (result.found_complete_target && expected.target.IsComplete()) {
      EXPECT_EQ(expected.target, result.target);
    }
  }

  int rounds_checked() const { return rounds_; }

 private:
  EncodedEngine oracle_;
  UserOracle* inner_;
  const InteractionSession* session_ = nullptr;
  int rounds_ = 0;
};

}  // namespace testing_fixture
}  // namespace relacc

#endif  // RELACC_TESTS_SERVICE_FIXTURE_H_
