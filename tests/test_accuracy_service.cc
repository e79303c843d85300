// Tests for the public service API (api/accuracy_service.h): streaming
// pipeline sessions (window edge cases, report identity with the
// one-window serial schedule, the O(window) engine bound), interactive
// sessions (Suggest/Revise/Accept), one-shot conveniences, and the
// option audit.

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/accuracy_service.h"
#include "datagen/profile_generator.h"
#include "framework/framework.h"
#include "mj_fixture.h"
#include "pipeline/pipeline.h"
#include "service_fixture.h"
#include "topk/preference.h"
#include "topk/rank_join_ct.h"

namespace relacc {
namespace {

using testing_fixture::EncodedEngine;
using testing_fixture::MjExpectedTarget;
using testing_fixture::MjSpecification;
using testing_fixture::OneWindowPipeline;
using testing_fixture::Phi12;

/// Every observable field of a PipelineReport, serialized — "byte
/// identical" in the acceptance criteria means these strings match.
std::string Serialize(const PipelineReport& r) {
  std::ostringstream os;
  for (const EntityReport& e : r.entities) {
    os << e.entity_id << '|' << e.num_tuples << '|' << e.church_rosser
       << '|' << e.complete << '|' << e.used_candidate << '|'
       << e.deduced_attrs << '|' << e.target.ToString() << '|'
       << e.violation << '\n';
  }
  os << r.targets.ToCsv();
  os << "rows ";
  for (int i : r.row_entity) os << i << ',';
  os << '\n'
     << r.total_tuples << ' ' << r.num_church_rosser << ' '
     << r.num_complete_by_chase << ' ' << r.num_completed_by_candidates
     << ' ' << r.num_incomplete << ' ' << r.num_non_church_rosser << ' '
     << r.deduced_attr_fraction;
  return os.str();
}

EntityDataset MedDataset(uint64_t seed = 5, int entities = 40,
                         double corruption = -1.0) {
  ProfileConfig config = MedConfig(seed);
  config.num_entities = entities;
  config.master_size = 45;
  if (corruption >= 0.0) config.free_corruption_prob = corruption;
  return GenerateProfile(config);
}

Specification ServiceSpec(const EntityDataset& ds) {
  Specification spec;
  spec.ie = Relation(ds.schema);
  spec.masters = ds.masters;
  spec.rules = ds.rules;
  spec.config = ds.chase_config;
  return spec;
}

Specification ArenaOpenMjSpec() {
  Specification spec = MjSpecification();
  std::erase_if(spec.rules,
                [](const AccuracyRule& r) { return r.name == "phi11"; });
  return spec;
}

std::unique_ptr<AccuracyService> MakeService(Specification spec,
                                             ServiceOptions options = {}) {
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(std::move(spec), std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

PipelineReport StreamAll(AccuracyService& service,
                         const std::vector<EntityInstance>& entities,
                         std::size_t batch, PipelineSessionOptions opts = {},
                         PipelineSession::Stats* stats_out = nullptr) {
  Result<std::unique_ptr<PipelineSession>> session =
      service.StartPipeline(std::move(opts));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  for (std::size_t begin = 0; begin < entities.size(); begin += batch) {
    const std::size_t end = std::min(entities.size(), begin + batch);
    Status st = session.value()->Submit(
        {entities.begin() + begin, entities.begin() + end});
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  Result<PipelineReport> report = session.value()->Finish();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (stats_out != nullptr) *stats_out = session.value()->stats();
  return std::move(report).value();
}

/// The report every streamed run must reproduce: the same entities in
/// one window on a budget-1 service — the serial schedule.
PipelineReport Reference(
    const EntityDataset& ds,
    CompletionPolicy completion = CompletionPolicy::kBestCandidate) {
  return OneWindowPipeline(ds.entities, ds.masters, ds.rules, /*budget=*/1,
                           completion, nullptr, ds.chase_config);
}

// --- streaming pipeline: identity with the serial schedule -----------------

TEST(PipelineSessionTest, IdenticalToLegacyAcrossBudgetsAndStrategies) {
  const EntityDataset ds = MedDataset();
  const PipelineReport legacy = Reference(ds);
  for (const int budget : {1, 4, 8}) {
    for (const int64_t window : {int64_t{1}, int64_t{3}, int64_t{64}}) {
      ServiceOptions service_options;
      service_options.num_threads = budget;
      service_options.window = window;
      auto service = MakeService(ServiceSpec(ds), service_options);
      const PipelineReport streamed =
          StreamAll(*service, ds.entities, /*batch=*/7);
      EXPECT_EQ(Serialize(streamed), Serialize(legacy))
          << "budget " << budget << " window " << window;
    }
  }
}

TEST(PipelineSessionTest, BothCompletionPoliciesMatchLegacy) {
  const EntityDataset ds = MedDataset(/*seed=*/7, /*entities=*/24);
  for (const CompletionPolicy policy :
       {CompletionPolicy::kLeaveNull, CompletionPolicy::kHeuristic}) {
    const PipelineReport legacy = Reference(ds, policy);
    ServiceOptions service_options;
    service_options.num_threads = 2;
    service_options.window = 5;
    service_options.completion = policy;
    auto service = MakeService(ServiceSpec(ds), service_options);
    const PipelineReport streamed =
        StreamAll(*service, ds.entities, /*batch=*/5);
    EXPECT_EQ(Serialize(streamed), Serialize(legacy));
  }
}

// --- streaming pipeline: window edge cases ---------------------------------

TEST(PipelineSessionTest, WindowOneBoundsInFlightEnginesToOne) {
  // Full corruption: every target incomplete, so every entity carries an
  // engine into phase 2 — the strongest test of the window bound.
  const EntityDataset ds = MedDataset(/*seed=*/11, /*entities=*/12,
                                      /*corruption=*/1.0);
  ServiceOptions service_options;
  service_options.num_threads = 4;
  service_options.window = 1;
  auto service = MakeService(ServiceSpec(ds), service_options);
  PipelineSession::Stats stats;
  const PipelineReport streamed =
      StreamAll(*service, ds.entities, /*batch=*/12, {}, &stats);
  EXPECT_EQ(stats.submitted, 12);
  EXPECT_EQ(stats.processed, 12);
  EXPECT_EQ(stats.peak_in_flight_engines, 1);
  EXPECT_GT(streamed.num_completed_by_candidates, 0);
  EXPECT_EQ(Serialize(streamed), Serialize(Reference(ds)));
}

TEST(PipelineSessionTest, PeakInFlightNeverExceedsWindow) {
  const EntityDataset ds = MedDataset(/*seed=*/11, /*entities=*/17,
                                      /*corruption=*/1.0);
  for (const int64_t window : {int64_t{2}, int64_t{5}}) {
    ServiceOptions service_options;
    service_options.window = window;
    auto service = MakeService(ServiceSpec(ds), service_options);
    PipelineSession::Stats stats;
    (void)StreamAll(*service, ds.entities, /*batch=*/17,
                    PipelineSessionOptions{}, &stats);
    EXPECT_LE(stats.peak_in_flight_engines, window) << window;
    EXPECT_GT(stats.peak_in_flight_engines, 0) << window;
  }
}

TEST(PipelineSessionTest, WindowLargerThanStreamProcessesAtFinish) {
  const EntityDataset ds = MedDataset(/*seed=*/5, /*entities=*/6);
  ServiceOptions service_options;
  service_options.window = 1000;  // >> entities
  auto service = MakeService(ServiceSpec(ds), service_options);
  Result<std::unique_ptr<PipelineSession>> session =
      service->StartPipeline();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Submit(ds.entities).ok());
  // Nothing fills a window, so nothing is ready before Finish.
  EXPECT_FALSE(session.value()->Poll().has_value());
  Result<PipelineReport> report = session.value()->Finish();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().entities.size(), ds.entities.size());
  EXPECT_EQ(Serialize(report.value()),
            Serialize(Reference(ds)));
}

TEST(PipelineSessionTest, SubmitAfterFinishIsFailedPrecondition) {
  const EntityDataset ds = MedDataset(/*seed=*/5, /*entities=*/3);
  auto service = MakeService(ServiceSpec(ds));
  Result<std::unique_ptr<PipelineSession>> session =
      service->StartPipeline();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Submit(ds.entities).ok());
  ASSERT_TRUE(session.value()->Finish().ok());
  EXPECT_TRUE(session.value()->finished());

  const Status after = session.value()->Submit(ds.entities);
  EXPECT_EQ(after.code(), StatusCode::kFailedPrecondition)
      << after.ToString();
  const Result<PipelineReport> again = session.value()->Finish();
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PipelineSessionTest, EmptyStreamYieldsEmptyReport) {
  const EntityDataset ds = MedDataset(/*seed=*/5, /*entities=*/3);
  auto service = MakeService(ServiceSpec(ds));
  Result<std::unique_ptr<PipelineSession>> session =
      service->StartPipeline();
  ASSERT_TRUE(session.ok());
  Result<PipelineReport> report = session.value()->Finish();
  ASSERT_TRUE(report.ok());
  const PipelineReport empty =
      OneWindowPipeline({}, ds.masters, ds.rules, service->thread_budget());
  EXPECT_EQ(Serialize(report.value()), Serialize(empty));
  EXPECT_TRUE(report.value().entities.empty());
}

TEST(PipelineSessionTest, PollAndDrainYieldReportsInInputOrder) {
  const EntityDataset ds = MedDataset(/*seed=*/5, /*entities=*/10);
  ServiceOptions service_options;
  service_options.window = 4;
  auto service = MakeService(ServiceSpec(ds), service_options);
  Result<std::unique_ptr<PipelineSession>> session =
      service->StartPipeline();
  ASSERT_TRUE(session.ok());
  // 10 submitted over a window of 4: Submit processes the two full
  // windows (8 entities) before it returns, so Poll surfaces exactly
  // those, in input order; Finish() processes the 2-entity tail.
  ASSERT_TRUE(session.value()->Submit(ds.entities).ok());
  std::vector<EntityReport> seen;
  while (auto r = session.value()->Poll()) seen.push_back(*r);
  EXPECT_EQ(seen.size(), 8u);
  Result<PipelineReport> report = session.value()->Finish();
  ASSERT_TRUE(report.ok());
  std::vector<EntityReport> rest = session.value()->Drain();
  EXPECT_EQ(rest.size(), 2u);
  for (auto& r : rest) seen.push_back(r);
  ASSERT_EQ(seen.size(), report.value().entities.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].entity_id, report.value().entities[i].entity_id) << i;
    EXPECT_EQ(seen[i].target, report.value().entities[i].target) << i;
  }
}

TEST(PipelineSessionTest, SubmitProcessesEveryWindowItFills) {
  // With full corruption every entity reaches phase 2. Each Submit that
  // fills a window processes it before returning, so after 12 entities
  // at window 3 everything is processed and pollable before Finish().
  const EntityDataset ds = MedDataset(/*seed=*/11, /*entities=*/12,
                                      /*corruption=*/1.0);
  ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.window = 3;
  auto service = MakeService(ServiceSpec(ds), service_options);
  Result<std::unique_ptr<PipelineSession>> session =
      service->StartPipeline();
  ASSERT_TRUE(session.ok());
  for (const EntityInstance& e : ds.entities) {
    ASSERT_TRUE(session.value()->Submit(e).ok());
  }
  const PipelineSession::Stats stats = session.value()->stats();
  EXPECT_EQ(stats.submitted, 12);
  EXPECT_EQ(stats.processed, 12);
  EXPECT_EQ(stats.windows, 4);
  EXPECT_LE(stats.peak_in_flight_engines, 3);
  std::vector<EntityReport> polled;
  while (auto r = session.value()->Poll()) polled.push_back(*r);
  ASSERT_EQ(polled.size(), 12u);

  Result<PipelineReport> report = session.value()->Finish();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(session.value()->stats().windows, 4);  // no tail left
  for (std::size_t i = 0; i < polled.size(); ++i) {
    EXPECT_EQ(polled[i].entity_id, report.value().entities[i].entity_id) << i;
    EXPECT_EQ(polled[i].target, report.value().entities[i].target) << i;
  }
  EXPECT_EQ(Serialize(report.value()), Serialize(Reference(ds)));
}

TEST(PipelineSessionTest,
     ReportsIdenticalAcrossCompletionWorkersWindowsAndStrategies) {
  // The parallel-completion determinism matrix: phase 2 completes a
  // window's entities on the budget's pool, one per task, so budgets
  // {1, 2, 8} (the completion workers) × window {1, 5, 64} must reproduce
  // the serial one-window report byte for byte — the input-order
  // reduction makes the worker count unobservable.
  const EntityDataset ds = MedDataset(/*seed=*/13, /*entities=*/18,
                                      /*corruption=*/0.8);
  const PipelineReport legacy = Reference(ds);
  for (const int budget : {1, 2, 8}) {
    for (const int64_t window : {int64_t{1}, int64_t{5}, int64_t{64}}) {
      ServiceOptions service_options;
      service_options.num_threads = budget;
      service_options.window = window;
      auto service = MakeService(ServiceSpec(ds), service_options);
      const PipelineReport streamed =
          StreamAll(*service, ds.entities, /*batch=*/7);
      EXPECT_EQ(Serialize(streamed), Serialize(legacy))
          << "budget " << budget << " window " << window;
    }
  }
}

TEST(PipelineSessionTest, SchemaMismatchIsRejectedAtomically) {
  const EntityDataset ds = MedDataset(/*seed=*/5, /*entities=*/4);
  auto service = MakeService(ServiceSpec(ds));
  Result<std::unique_ptr<PipelineSession>> session =
      service->StartPipeline();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.value()->Submit({ds.entities[0]}).ok());

  Schema other({{"x", ValueType::kString}});
  EntityInstance alien(99, other);
  alien.Add(Tuple({Value::Str("v")}));
  std::vector<EntityInstance> batch = {ds.entities[1], alien};
  const Status st = session.value()->Submit(std::move(batch));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  // Nothing from the failed batch was accepted.
  EXPECT_EQ(session.value()->stats().submitted, 1);
  ASSERT_TRUE(session.value()->Submit({ds.entities[1]}).ok());
  Result<PipelineReport> report = session.value()->Finish();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().entities.size(), 2u);

  // The alien entity as the very first submission: it is checked against
  // the service schema, not against an earlier entity of the stream.
  Result<std::unique_ptr<PipelineSession>> fresh = service->StartPipeline();
  ASSERT_TRUE(fresh.ok());
  const Status first =
      fresh.value()->Submit(std::vector<EntityInstance>{alien, ds.entities[2]});
  EXPECT_EQ(first.code(), StatusCode::kInvalidArgument) << first.ToString();
  EXPECT_NE(first.message().find("entity 99"), std::string::npos)
      << first.ToString();
  EXPECT_EQ(fresh.value()->stats().submitted, 0);
  ASSERT_TRUE(fresh.value()->Submit({ds.entities[2]}).ok());
  Result<PipelineReport> fresh_report = fresh.value()->Finish();
  ASSERT_TRUE(fresh_report.ok());
  ASSERT_EQ(fresh_report.value().entities.size(), 1u);
  EXPECT_EQ(fresh_report.value().entities[0].entity_id,
            ds.entities[2].entity_id());
}

// --- service creation / option audit ---------------------------------------

TEST(AccuracyServiceTest, CreateValidatesWindow) {
  Result<std::unique_ptr<AccuracyService>> bad =
      AccuracyService::Create(MjSpecification(), [] {
        ServiceOptions options;
        options.num_threads = 1;
        options.window = 0;
        return options;
      }());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(AccuracyServiceTest, RowStorageIsRejected) {
  // Row storage is gone; asking for it is an error, not a silent no-op.
  ServiceOptions options;
  options.columnar_storage = false;
  Result<std::unique_ptr<AccuracyService>> bad =
      AccuracyService::Create(MjSpecification(), std::move(options));
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("row storage was removed"),
            std::string::npos)
      << bad.status().ToString();
}

// --- one-shot conveniences ---------------------------------------------------

TEST(AccuracyServiceTest, DeduceEntityMatchesIsCR) {
  auto service = MakeService(MjSpecification());
  Result<ChaseOutcome> outcome = service->DeduceEntity();
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome.value().church_rosser);
  EXPECT_EQ(outcome.value().target, MjExpectedTarget());

  // Against a caller-supplied instance as well.
  Specification spec = MjSpecification();
  Result<ChaseOutcome> custom = service->DeduceEntity(spec.ie);
  ASSERT_TRUE(custom.ok());
  EXPECT_EQ(custom.value().target, MjExpectedTarget());
}

/// `ie` with its first `arity` columns, padded with null string columns
/// when `arity` exceeds the schema's.
Relation WithArity(const Relation& ie, int arity) {
  std::vector<Attribute> attrs;
  for (AttrId a = 0; a < arity; ++a) {
    attrs.push_back(a < ie.schema().size()
                        ? ie.schema().attr(a)
                        : Attribute{"extra" + std::to_string(a),
                                    ValueType::kString});
  }
  Relation out{Schema(std::move(attrs))};
  for (const Tuple& t : ie.tuples()) {
    std::vector<Value> values;
    for (AttrId a = 0; a < arity; ++a) {
      values.push_back(a < ie.schema().size() ? t.at(a) : Value::Null());
    }
    out.Add(Tuple(std::move(values)));
  }
  return out;
}

TEST(AccuracyServiceTest, PerEntityCallsRejectAnotherArity) {
  // Grounding and the chase index read every attribute of the service
  // schema, so a narrower or wider entity is rejected up front, naming
  // both arities, before anything is grounded.
  auto service = MakeService(MjSpecification());
  const Relation ie = MjSpecification().ie;
  const int arity = ie.schema().size();
  for (const int other : {arity - 1, arity + 1}) {
    const Relation entity = WithArity(ie, other);
    const std::string expected = "has schema arity " + std::to_string(other) +
                                 ", the service schema has " +
                                 std::to_string(arity);

    Result<ChaseOutcome> deduced = service->DeduceEntity(entity);
    EXPECT_EQ(deduced.status().code(), StatusCode::kInvalidArgument) << other;
    EXPECT_NE(deduced.status().message().find("DeduceEntity"),
              std::string::npos)
        << deduced.status().ToString();
    EXPECT_NE(deduced.status().message().find(expected), std::string::npos)
        << deduced.status().ToString();

    Result<std::unique_ptr<InteractionSession>> session =
        service->StartInteraction(entity);
    EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument) << other;
    EXPECT_NE(session.status().message().find("StartInteraction"),
              std::string::npos)
        << session.status().ToString();
    EXPECT_NE(session.status().message().find(expected), std::string::npos)
        << session.status().ToString();
  }

  // The service is untouched: an entity of the right arity still works.
  Result<ChaseOutcome> custom = service->DeduceEntity(ie);
  ASSERT_TRUE(custom.ok()) << custom.status().ToString();
  EXPECT_EQ(custom.value().target, MjExpectedTarget());
  Result<std::unique_ptr<InteractionSession>> session =
      service->StartInteraction(ie);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
}

InteractionOptions KOpts(int k) {
  InteractionOptions options;
  options.k = k;
  return options;
}

TEST(AccuracyServiceTest, TopKMatchesDirectAlgorithms) {
  Specification spec = ArenaOpenMjSpec();
  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;
  const ChaseOutcome outcome = engine.RunFromCheckpoint();
  ASSERT_TRUE(outcome.church_rosser);
  ASSERT_FALSE(outcome.target.IsComplete());
  const PreferenceModel pref =
      PreferenceModel::FromOccurrences(spec.ie, spec.masters);
  const TopKResult direct =
      TopKCT(engine, spec.masters, outcome.target, pref, 3);

  auto service = MakeService(ArenaOpenMjSpec());
  Result<TopKResult> ranked = service->TopK(3);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  EXPECT_EQ(ranked.value().targets, direct.targets);
  EXPECT_EQ(ranked.value().scores, direct.scores);

  const TopKResult heuristic =
      TopKCTh(engine, spec.masters, outcome.target, pref, 3);
  Result<TopKResult> ranked_h = service->TopK(3, TopKAlgorithm::kHeuristic);
  ASSERT_TRUE(ranked_h.ok());
  EXPECT_EQ(ranked_h.value().targets, heuristic.targets);

  const TopKResult rankjoin =
      RankJoinCT(engine, spec.masters, outcome.target, pref, 3);
  Result<TopKResult> ranked_rj = service->TopK(3, TopKAlgorithm::kRankJoin);
  ASSERT_TRUE(ranked_rj.ok());
  EXPECT_EQ(ranked_rj.value().targets, rankjoin.targets);
}

TEST(AccuracyServiceTest, TopKOnCompleteTargetReturnsItVerified) {
  // A complete deduced target is its own sole candidate (the algorithms'
  // m == 0 branch verifies it) — the historical CLI JSON contract.
  auto service = MakeService(MjSpecification());
  Result<TopKResult> ranked = service->TopK(3);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  ASSERT_EQ(ranked.value().targets.size(), 1u);
  EXPECT_EQ(ranked.value().targets[0], MjExpectedTarget());
  EXPECT_GE(ranked.value().checks, 1);
}

TEST(AccuracyServiceTest, TopKOnNonChurchRosserIsFailedPrecondition) {
  Specification spec = MjSpecification();
  spec.rules.push_back(Phi12(spec.ie.schema()));
  auto service = MakeService(std::move(spec));
  Result<TopKResult> ranked = service->TopK(3);
  EXPECT_EQ(ranked.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AccuracyServiceTest, CheckCandidatesMatchesFreeFunction) {
  // The batch verdicts equal the per-candidate check on an engine of
  // the caller's own.
  Specification spec = ArenaOpenMjSpec();
  EncodedEngine encoded(spec);
  ChaseEngine& engine = encoded.engine;
  const ChaseOutcome outcome = engine.RunFromCheckpoint();
  ASSERT_TRUE(outcome.church_rosser);
  const std::vector<Tuple> pool = EnumerateCandidateProduct(
      engine.encoded_ie(), spec.masters, outcome.target,
      /*include_default_values=*/false, /*limit=*/64);
  ASSERT_FALSE(pool.empty());
  std::vector<char> legacy;
  for (const Tuple& t : pool) {
    legacy.push_back(engine.CheckCandidate(t) ? 1 : 0);
  }

  ServiceOptions options;
  options.num_threads = 2;
  auto service = MakeService(ArenaOpenMjSpec(), options);
  Result<std::vector<char>> verdicts = service->CheckCandidates(pool);
  ASSERT_TRUE(verdicts.ok());
  EXPECT_EQ(verdicts.value(), legacy);
}

// --- interactive sessions ----------------------------------------------------

TEST(InteractionSessionTest, SuggestAcceptFlow) {
  auto service = MakeService(ArenaOpenMjSpec());
  Result<std::unique_ptr<InteractionSession>> session =
      service->StartInteraction(KOpts(3));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  InteractionSession& s = *session.value();

  Result<Suggestion> suggestion = s.Suggest();
  ASSERT_TRUE(suggestion.ok());
  EXPECT_TRUE(suggestion.value().church_rosser);
  EXPECT_FALSE(suggestion.value().complete);
  ASSERT_FALSE(suggestion.value().candidates.targets.empty());
  EXPECT_FALSE(s.finished());

  Result<Tuple> accepted = s.Accept(0);
  ASSERT_TRUE(accepted.ok());
  EXPECT_TRUE(s.finished());
  EXPECT_EQ(s.final_target(), suggestion.value().candidates.targets[0]);
  EXPECT_TRUE(s.final_target().IsComplete());

  // Everything is refused once finished.
  EXPECT_EQ(s.Suggest().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.Revise(0, Value::Str("x")).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.Accept(0).status().code(), StatusCode::kFailedPrecondition);
}

TEST(InteractionSessionTest, ReviseLeadsToCompletion) {
  Specification spec = ArenaOpenMjSpec();
  const Schema& schema = spec.ie.schema();
  auto service = MakeService(spec);
  Result<std::unique_ptr<InteractionSession>> session =
      service->StartInteraction(KOpts(2));
  ASSERT_TRUE(session.ok());
  InteractionSession& s = *session.value();

  Result<Suggestion> first = s.Suggest();
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first.value().complete);
  const Tuple expected = MjExpectedTarget();
  const AttrId arena = schema.MustIndexOf("arena");
  ASSERT_TRUE(first.value().deduced_target.at(arena).is_null());
  ASSERT_TRUE(s.Revise(arena, expected.at(arena)).ok());
  EXPECT_EQ(s.revisions(), 1);

  Result<Suggestion> second = s.Suggest();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().complete);
  EXPECT_TRUE(s.finished());
  EXPECT_EQ(s.final_target(), expected);
}

TEST(InteractionSessionTest, ValidatesReviseAndAccept) {
  auto service = MakeService(ArenaOpenMjSpec());
  Result<std::unique_ptr<InteractionSession>> session =
      service->StartInteraction();
  ASSERT_TRUE(session.ok());
  InteractionSession& s = *session.value();

  // No suggestion outstanding yet.
  EXPECT_EQ(s.Accept(0).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.Revise(-1, Value::Str("x")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s.Revise(10'000, Value::Str("x")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s.Revise(0, Value::Null()).code(), StatusCode::kInvalidArgument);

  Result<Suggestion> suggestion = s.Suggest();
  ASSERT_TRUE(suggestion.ok());
  EXPECT_EQ(s.Accept(-1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(
      s.Accept(static_cast<int>(
                   suggestion.value().candidates.targets.size()))
          .status()
          .code(),
      StatusCode::kOutOfRange);

  // A revision invalidates the previous suggestion for Accept.
  const Tuple expected = MjExpectedTarget();
  ASSERT_TRUE(s.Revise(0, expected.at(0)).ok());
  EXPECT_EQ(s.Accept(0).status().code(), StatusCode::kFailedPrecondition);
}

TEST(InteractionSessionTest, NonChurchRosserIsAnOutcomeNotAnError) {
  Specification spec = MjSpecification();
  spec.rules.push_back(Phi12(spec.ie.schema()));
  auto service = MakeService(std::move(spec));
  Result<std::unique_ptr<InteractionSession>> session =
      service->StartInteraction();
  ASSERT_TRUE(session.ok());
  Result<Suggestion> suggestion = session.value()->Suggest();
  ASSERT_TRUE(suggestion.ok());
  EXPECT_FALSE(suggestion.value().church_rosser);
  EXPECT_FALSE(suggestion.value().violation.empty());
  EXPECT_FALSE(session.value()->finished());
}

TEST(InteractionSessionTest, CustomEntitySessionsMatchLegacyFramework) {
  // One service over shared (masters, rules); per-entity sessions driven
  // by the simulated steward must reproduce, exactly, the outcomes of a
  // fresh service per entity whose own instance is that entity.
  ProfileConfig config = MedConfig(55);
  config.num_entities = 6;
  config.master_size = 12;
  config.num_free_attrs = 4;
  config.free_corruption_prob = 0.6;
  const EntityDataset ds = GenerateProfile(config);

  auto service = MakeService(ServiceSpec(ds));
  for (std::size_t i = 0; i < ds.entities.size(); ++i) {
    Specification spec = ds.SpecFor(static_cast<int>(i));
    const PreferenceModel pref =
        PreferenceModel::FromOccurrences(spec.ie, spec.masters);
    SimulatedUser legacy_user(ds.truths[i]);
    const FrameworkResult legacy =
        testing_fixture::RunInteraction(spec, pref, &legacy_user, /*k=*/5);

    SimulatedUser session_user(ds.truths[i]);
    Result<std::unique_ptr<InteractionSession>> session =
        service->StartInteraction(ds.entities[i],
                                  KOpts(5));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    const FrameworkResult driven =
        DriveInteraction(*session.value(), &session_user, /*max_rounds=*/32);

    EXPECT_EQ(driven.church_rosser, legacy.church_rosser) << i;
    EXPECT_EQ(driven.found_complete_target, legacy.found_complete_target)
        << i;
    EXPECT_EQ(driven.target, legacy.target) << i;
    EXPECT_EQ(driven.interaction_rounds, legacy.interaction_rounds) << i;
    EXPECT_EQ(driven.automatic_attrs, legacy.automatic_attrs) << i;
  }
}

TEST(InteractionSessionTest, SessionsShareTheServiceCheckpoint) {
  // Two default-entity sessions: both work, independently, against one
  // service — the shared checkpoint must not be disturbed by either.
  auto service = MakeService(ArenaOpenMjSpec());
  Result<std::unique_ptr<InteractionSession>> a =
      service->StartInteraction(KOpts(2));
  Result<std::unique_ptr<InteractionSession>> b =
      service->StartInteraction(KOpts(2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Result<Suggestion> sa = a.value()->Suggest();
  Result<Suggestion> sb = b.value()->Suggest();
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sa.value().deduced_target, sb.value().deduced_target);
  EXPECT_EQ(sa.value().candidates.targets, sb.value().candidates.targets);
  // One-shot calls interleave with live sessions through the same
  // rebindable checker.
  Result<TopKResult> ranked = service->TopK(2);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked.value().targets, sa.value().candidates.targets);
}

TEST(AccuracyServiceTest, PipelineTopKAndInteractionsShareOneMasterTable) {
  // The top-k master tables are built once, by the first completion, and
  // every later top-k, interaction and pipeline reads that one set.
  const EntityDataset ds =
      MedDataset(/*seed=*/5, /*entities=*/16, /*corruption=*/1.0);
  auto service = MakeService(ds.SpecFor(0));
  ASSERT_TRUE(service->DeduceEntity().ok());
  EXPECT_EQ(service->master_domains(), nullptr) << "deduce built the tables";

  const PipelineReport report = StreamAll(*service, ds.entities, 8);
  ASSERT_GT(report.num_completed_by_candidates, 0) << "no entity completed";
  const MasterDomains* tables = service->master_domains();
  ASSERT_NE(tables, nullptr);

  Result<TopKResult> ranked = service->TopK(2);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(service->master_domains(), tables);

  Result<std::unique_ptr<InteractionSession>> own =
      service->StartInteraction(KOpts(2));
  Result<std::unique_ptr<InteractionSession>> custom =
      service->StartInteraction(ds.entities[1], KOpts(2));
  ASSERT_TRUE(own.ok() && custom.ok());
  // Ranked over the shared tables, each session agrees with a one-shot
  // TopK over its entity (a complete deduced target is TopK's only one).
  Result<Suggestion> own_suggestion = own.value()->Suggest();
  ASSERT_TRUE(own_suggestion.ok());
  const Suggestion& s = own_suggestion.value();
  EXPECT_EQ(own.value()->finished() ? std::vector<Tuple>{s.deduced_target}
                                    : s.candidates.targets,
            ranked.value().targets);
  Result<Suggestion> custom_suggestion = custom.value()->Suggest();
  ASSERT_TRUE(custom_suggestion.ok());
  auto cold = MakeService(ds.SpecFor(1));
  Result<std::unique_ptr<InteractionSession>> cold_session =
      cold->StartInteraction(KOpts(2));
  ASSERT_TRUE(cold_session.ok());
  Result<Suggestion> cold_suggestion = cold_session.value()->Suggest();
  ASSERT_TRUE(cold_suggestion.ok());
  EXPECT_EQ(custom_suggestion.value().deduced_target,
            cold_suggestion.value().deduced_target);
  EXPECT_EQ(custom_suggestion.value().candidates.targets,
            cold_suggestion.value().candidates.targets);
  EXPECT_EQ(service->master_domains(), tables);

  EXPECT_EQ(Serialize(StreamAll(*service, ds.entities, 5)), Serialize(report));
  EXPECT_EQ(service->master_domains(), tables);
}

}  // namespace
}  // namespace relacc
