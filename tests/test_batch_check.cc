// Budget invariance of everything that ranks candidate targets: every
// top-k search checks one candidate at a time, in its own order, on one
// engine, so AccuracyService::TopK (all four algorithms),
// InteractionSession::Suggest and a Med pipeline must return the same
// rankings and counters at every thread budget. Also covers the batch
// `check` (AccuracyService::CheckCandidates) across thread counts and on
// the pool a pipeline shares with it, the slot partition of
// ThreadPool::ParallelForSlots behind it, and the exhausted_budget
// boundary of the shared accept loop.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/accuracy_service.h"
#include "chase/chase_engine.h"
#include "datagen/profile_generator.h"
#include "datagen/syn_generator.h"
#include "mj_fixture.h"
#include "service_fixture.h"
#include "topk/preference.h"
#include "topk/topk_ct.h"
#include "util/thread_pool.h"

namespace relacc {
namespace {

using testing_fixture::EncodedEngine;
using testing_fixture::MjSpecification;

/// The Example 9/10 setting (as in test_topk.cc): drop `team` from ϕ6 so
/// the deduced target is incomplete and top-k has real work to do.
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

TEST(ParallelForSlots, CoversAllIndicesWithValidSlots) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  pool.ParallelForSlots(257, [&](int slot, int64_t i) {
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, 4);
    ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForSlots, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(8);
  pool.ParallelForSlots(0, [](int, int64_t) { FAIL(); });
  std::atomic<int> count = 0;
  pool.ParallelForSlots(3, [&](int slot, int64_t) {
    EXPECT_LT(slot, 3);  // never more slots than work items
    ++count;
  });
  EXPECT_EQ(count, 3);
}

TEST(CheckCandidates, VerdictsMatchSequentialAcrossThreadCounts) {
  const Specification spec = Example9Spec();
  EncodedEngine encoded(spec);
  const ChaseEngine& engine = encoded.engine;
  const ChaseOutcome outcome = engine.RunFromInitial();
  ASSERT_TRUE(outcome.church_rosser);
  const std::vector<Tuple> candidates = EnumerateCandidateProduct(
      engine.encoded_ie(), spec.masters, outcome.target,
      /*include_default_values=*/false, /*limit=*/100000);
  ASSERT_GT(candidates.size(), 4u);

  const std::vector<char> seq =
      testing_fixture::CheckOnService(spec, candidates, 1);
  ASSERT_EQ(seq.size(), candidates.size());
  // Sanity: the oracle set is mixed — some candidates pass, some fail.
  EXPECT_NE(std::count(seq.begin(), seq.end(), 1), 0);
  EXPECT_NE(std::count(seq.begin(), seq.end(), 0), 0);
  for (int threads : {2, 3, 8}) {
    EXPECT_EQ(testing_fixture::CheckOnService(spec, candidates, threads), seq)
        << "threads=" << threads;
  }
  // Verdicts agree with the per-candidate check one by one.
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(seq[i] == 1, engine.CheckCandidate(candidates[i]));
  }
}

/// A pipeline report, one line per entity (its flags and target) and a
/// last line of the aggregate counters.
std::vector<std::string> ReportLines(const PipelineReport& report) {
  std::vector<std::string> lines;
  for (const EntityReport& e : report.entities) {
    lines.push_back(std::to_string(e.entity_id) + '|' +
                    std::to_string(e.church_rosser) + '|' +
                    std::to_string(e.complete) + '|' +
                    std::to_string(e.used_candidate) + '|' +
                    e.target.ToString());
  }
  lines.push_back("totals " + std::to_string(report.num_church_rosser) + ' ' +
                  std::to_string(report.num_complete_by_chase) + ' ' +
                  std::to_string(report.num_completed_by_candidates) + ' ' +
                  std::to_string(report.num_incomplete));
  return lines;
}

/// A Med dataset with most entities left incomplete by the chase, so
/// pipelines complete some of them by a candidate.
EntityDataset CorruptedMed(int entities) {
  ProfileConfig config = MedConfig(/*seed=*/13);
  config.num_entities = entities;
  config.master_size = 45;
  config.free_corruption_prob = 0.8;
  return GenerateProfile(config);
}

TEST(CheckCandidates, SharesThePoolWithPipelineWindows) {
  // CheckCandidates fans out on the service pool that pipeline windows
  // also run on. A check, a window, then a second check on one budget-4
  // service must give the verdicts and the report of a budget-1 service.
  const EntityDataset med = CorruptedMed(18);
  // The service's own entity: the first whose deduced target is
  // incomplete, with (part of) its candidate product to check.
  Specification spec;
  std::vector<Tuple> candidates;
  for (int e = 0; e < static_cast<int>(med.entities.size()); ++e) {
    spec = med.SpecFor(e);
    EncodedEngine encoded(spec);
    const ChaseOutcome outcome = encoded.engine.RunFromCheckpoint();
    if (!outcome.church_rosser || outcome.target.IsComplete()) continue;
    candidates = EnumerateCandidateProduct(
        encoded.engine.encoded_ie(), spec.masters, outcome.target,
        /*include_default_values=*/false, /*limit=*/64);
    if (candidates.size() > 1) break;
  }
  ASSERT_GT(candidates.size(), 1u);

  struct Run {
    std::vector<char> before;
    std::vector<std::string> pipeline;
    std::vector<char> after;
  };
  auto run = [&](int budget) {
    ServiceOptions options;
    options.num_threads = budget;
    auto service = testing_fixture::CreateService(spec, options);
    Run out;
    Result<std::vector<char>> before = service->CheckCandidates(candidates);
    EXPECT_TRUE(before.ok()) << before.status().ToString();
    out.before = std::move(before).value();
    Result<std::unique_ptr<PipelineSession>> session =
        service->StartPipeline();
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    const Status submitted = session.value()->Submit(med.entities);
    EXPECT_TRUE(submitted.ok()) << submitted.ToString();
    Result<PipelineReport> report = session.value()->Finish();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    out.pipeline = ReportLines(report.value());
    Result<std::vector<char>> after = service->CheckCandidates(candidates);
    EXPECT_TRUE(after.ok()) << after.status().ToString();
    out.after = std::move(after).value();
    return out;
  };

  const Run reference = run(1);
  ASSERT_EQ(reference.before.size(), candidates.size());
  EXPECT_EQ(reference.after, reference.before);
  // Not vacuous: some candidate passes, and the pipeline completes some
  // entity by a candidate.
  EXPECT_NE(std::count(reference.before.begin(), reference.before.end(), 1),
            0);
  EXPECT_NE(std::count_if(reference.pipeline.begin(), reference.pipeline.end(),
                          [](const std::string& e) {
                            return e.find("|1|1|1|") != std::string::npos;
                          }),
            0);
  const Run shared = run(4);
  EXPECT_EQ(shared.before, reference.before);
  EXPECT_EQ(shared.pipeline, reference.pipeline);
  EXPECT_EQ(shared.after, reference.before);
}

/// Every field of a TopKResult — the ranking and all of its counters.
void ExpectSameResult(const TopKResult& got, const TopKResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.targets, want.targets) << what;
  EXPECT_EQ(got.scores, want.scores) << what;
  EXPECT_EQ(got.queue_pops, want.queue_pops) << what;
  EXPECT_EQ(got.heap_pops, want.heap_pops) << what;
  EXPECT_EQ(got.checks, want.checks) << what;
  EXPECT_EQ(got.exhausted_budget, want.exhausted_budget) << what;
}

/// Every target passes the from-scratch chase Run(t) on `oracle`.
void ExpectVerified(const ChaseEngine& oracle, const TopKResult& result,
                    const std::string& what) {
  for (const Tuple& target : result.targets) {
    EXPECT_TRUE(oracle.Run(target).church_rosser) << what;
  }
}

/// The rankings one budget produces: the service's TopK with each
/// algorithm and a Suggest round on the Mj fixture, a Suggest round on a
/// synthetic spec, and a Med pipeline's per-entity targets.
struct BudgetRun {
  std::vector<TopKResult> topk;  ///< one per algorithm, in kAlgorithms order
  TopKResult suggest_mj;
  TopKResult suggest_syn;
  std::vector<std::string> pipeline;  ///< per entity: flags and target
};

constexpr TopKAlgorithm kAlgorithms[] = {
    TopKAlgorithm::kTopKCT, TopKAlgorithm::kHeuristic,
    TopKAlgorithm::kRankJoin, TopKAlgorithm::kBruteForce};

/// The synthetic spec of the Suggest case: small enough that a template
/// of the ground truth with three attributes re-opened leaves a small
/// product with a pass/fail mix.
SynDataset SmallSyn() {
  SynConfig config;
  config.seed = 20260726;
  config.num_tuples = 40;
  config.master_size = 20;
  config.num_rules = 24;
  config.num_ord_attrs = 2;
  config.num_cur_attrs = 3;
  config.num_mst_attrs = 2;
  config.num_free_attrs = 2;
  config.free_domain_size = 6;
  return GenerateSyn(config);
}

/// One Suggest round (k = 5) over `service`'s own entity after folding
/// `revisions` into the template.
TopKResult SuggestAfter(AccuracyService& service,
                        const std::vector<std::pair<AttrId, Value>>& revisions,
                        const TopKOptions& opts) {
  InteractionOptions options;
  options.k = 5;
  options.topk = opts;
  Result<std::unique_ptr<InteractionSession>> session =
      service.StartInteraction(std::move(options));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  for (const auto& [attr, value] : revisions) {
    EXPECT_TRUE(session.value()->Revise(attr, value).ok());
  }
  Result<Suggestion> suggestion = session.value()->Suggest();
  EXPECT_TRUE(suggestion.ok()) << suggestion.status().ToString();
  EXPECT_TRUE(suggestion.value().church_rosser);
  return suggestion.value().candidates;
}

TEST(TopKDeterminism, SearchesAreIdenticalAcrossServiceBudgets) {
  const Specification mj = Example9Spec();
  const SynDataset syn = SmallSyn();
  // The synthetic template: the ground truth with three attributes
  // re-opened.
  std::vector<std::pair<AttrId, Value>> syn_revisions;
  const Schema& syn_schema = syn.spec.ie.schema();
  for (AttrId a = 0; a < syn.truth.size(); ++a) {
    const std::string& name = syn_schema.name(a);
    if (name == "cur_0" || name == "mst_0" || name == "free_0" ||
        syn.truth.at(a).is_null()) {
      continue;
    }
    syn_revisions.emplace_back(a, syn.truth.at(a));
  }
  const EntityDataset med = CorruptedMed(18);

  const EncodedEngine mj_oracle(mj);
  const EncodedEngine syn_oracle(syn.spec);
  // Tight pop budget: bounds the runtime when few candidates pass and
  // covers the exhausted_budget path as well.
  TopKOptions opts;
  opts.max_expansions = 2000;

  auto run = [&](int budget) {
    BudgetRun out;
    ServiceOptions options;
    options.num_threads = budget;
    auto service = testing_fixture::CreateService(mj, options);
    for (TopKAlgorithm algo : kAlgorithms) {
      Result<TopKResult> ranked = service->TopK(5, algo, opts);
      EXPECT_TRUE(ranked.ok()) << ranked.status().ToString();
      out.topk.push_back(std::move(ranked).value());
    }
    out.suggest_mj = SuggestAfter(*service, {}, opts);
    auto syn_service = testing_fixture::CreateService(syn.spec, options);
    out.suggest_syn = SuggestAfter(*syn_service, syn_revisions, opts);

    out.pipeline = ReportLines(testing_fixture::OneWindowPipeline(
        med.entities, med.masters, med.rules, budget,
        CompletionPolicy::kBestCandidate, nullptr, med.chase_config));
    return out;
  };

  const BudgetRun reference = run(1);
  // Not vacuous: the exact searches and both Suggest rounds find targets,
  // and the pipeline completes some entity by a candidate.
  EXPECT_FALSE(reference.topk[0].targets.empty());
  EXPECT_FALSE(reference.suggest_mj.targets.empty());
  EXPECT_FALSE(reference.suggest_syn.targets.empty());
  EXPECT_NE(std::count_if(reference.pipeline.begin(), reference.pipeline.end(),
                          [](const std::string& e) {
                            return e.find("|1|1|1|") != std::string::npos;
                          }),
            0);
  for (std::size_t a = 0; a < reference.topk.size(); ++a) {
    ExpectVerified(mj_oracle.engine, reference.topk[a],
                   "algorithm " + std::to_string(a));
  }
  ExpectVerified(mj_oracle.engine, reference.suggest_mj, "suggest mj");
  ExpectVerified(syn_oracle.engine, reference.suggest_syn, "suggest syn");

  for (int budget : {2, 8}) {
    const BudgetRun got = run(budget);
    const std::string at = " budget=" + std::to_string(budget);
    ASSERT_EQ(got.topk.size(), reference.topk.size());
    for (std::size_t a = 0; a < got.topk.size(); ++a) {
      ExpectSameResult(got.topk[a], reference.topk[a],
                       "algorithm " + std::to_string(a) + at);
    }
    ExpectSameResult(got.suggest_mj, reference.suggest_mj, "suggest mj" + at);
    ExpectSameResult(got.suggest_syn, reference.suggest_syn,
                     "suggest syn" + at);
    EXPECT_EQ(got.pipeline, reference.pipeline) << at;
  }
}

TEST(TopKDeterminism, BudgetAtExactSpaceExhaustionIsNotReportedAsExhausted) {
  // If the pop budget runs out at the same moment the search space does,
  // the search completed: exhausted_budget must stay false.
  const Specification spec = Example9Spec();
  const PreferenceModel pref =
      PreferenceModel::FromOccurrences(spec.ie, spec.masters);
  EncodedEngine encoded(spec);
  const ChaseEngine& engine = encoded.engine;
  const ChaseOutcome outcome = engine.RunFromInitial();
  ASSERT_TRUE(outcome.church_rosser);

  TopKOptions opts;
  opts.max_expansions = -1;
  const int huge_k = 1000;  // larger than the candidate space
  const TopKResult full =
      TopKCT(engine, spec.masters, outcome.target, pref, huge_k, opts);
  ASSERT_FALSE(full.exhausted_budget);
  ASSERT_GT(full.queue_pops, 1);

  opts.max_expansions = full.queue_pops;  // exactly the space size
  const TopKResult boundary =
      TopKCT(engine, spec.masters, outcome.target, pref, huge_k, opts);
  EXPECT_FALSE(boundary.exhausted_budget);
  EXPECT_EQ(boundary.targets, full.targets);

  opts.max_expansions = full.queue_pops - 1;  // one pop short
  const TopKResult short_of =
      TopKCT(engine, spec.masters, outcome.target, pref, huge_k, opts);
  EXPECT_TRUE(short_of.exhausted_budget);
}

}  // namespace
}  // namespace relacc
