#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/profile_generator.h"
#include "er/resolver.h"
#include "mj_fixture.h"
#include "pipeline/pipeline.h"
#include "service_fixture.h"
#include "util/thread_pool.h"

namespace relacc {
namespace {

using testing_fixture::MjExpectedTarget;
using testing_fixture::MjSpecification;
using testing_fixture::OneWindowPipeline;

// --- thread pool -------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTaskExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(509);
  pool.ParallelFor(static_cast<int64_t>(hits.size()),
                   [&](int64_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ParallelForZeroAndSingleThread) {
  ThreadPool pool(1);
  int calls = 0;
  pool.ParallelFor(0, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(5, [&](int64_t) { ++calls; });  // single worker: serial
  EXPECT_EQ(calls, 5);
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
}

// --- pipeline ----------------------------------------------------------------

TEST(Pipeline, SingleEntityMatchesIsCR) {
  Specification spec = MjSpecification();
  EntityInstance entity(7, spec.ie.schema());
  for (const Tuple& t : spec.ie.tuples()) entity.Add(t);

  PipelineReport report =
      OneWindowPipeline({entity}, spec.masters, spec.rules, /*budget=*/0);
  ASSERT_EQ(report.entities.size(), 1u);
  const EntityReport& e = report.entities[0];
  EXPECT_EQ(e.entity_id, 7);
  EXPECT_TRUE(e.church_rosser);
  EXPECT_TRUE(e.complete);
  EXPECT_FALSE(e.used_candidate);  // the chase alone completes this one
  EXPECT_EQ(e.target, MjExpectedTarget());
  EXPECT_EQ(report.num_church_rosser, 1);
  EXPECT_EQ(report.num_complete_by_chase, 1);
  EXPECT_EQ(report.targets.size(), 1);
  EXPECT_EQ(report.targets.tuple(0), MjExpectedTarget());
}

PipelineReport MedPipelineReport(int num_threads,
                                 CompletionPolicy policy,
                                 int num_entities = 60) {
  ProfileConfig config = MedConfig(/*seed=*/5);
  config.num_entities = num_entities;
  config.master_size = 45;
  EntityDataset dataset = GenerateProfile(config);
  return OneWindowPipeline(dataset.entities, dataset.masters, dataset.rules,
                           num_threads, policy);
}

TEST(Pipeline, ParallelAndSerialRunsAgreeExactly) {
  PipelineReport serial =
      MedPipelineReport(1, CompletionPolicy::kBestCandidate);
  PipelineReport parallel =
      MedPipelineReport(4, CompletionPolicy::kBestCandidate);
  ASSERT_EQ(serial.entities.size(), parallel.entities.size());
  for (size_t i = 0; i < serial.entities.size(); ++i) {
    EXPECT_EQ(serial.entities[i].church_rosser,
              parallel.entities[i].church_rosser) << i;
    EXPECT_EQ(serial.entities[i].complete, parallel.entities[i].complete) << i;
    EXPECT_EQ(serial.entities[i].target, parallel.entities[i].target) << i;
  }
  EXPECT_EQ(serial.num_complete_by_chase, parallel.num_complete_by_chase);
  EXPECT_EQ(serial.num_completed_by_candidates,
            parallel.num_completed_by_candidates);
  ASSERT_EQ(serial.targets.size(), parallel.targets.size());
  for (int i = 0; i < serial.targets.size(); ++i) {
    EXPECT_EQ(serial.targets.tuple(i), parallel.targets.tuple(i)) << i;
  }
}

TEST(Pipeline, CandidateCompletionOnlyAddsCompleteness) {
  PipelineReport leave = MedPipelineReport(4, CompletionPolicy::kLeaveNull);
  PipelineReport fill =
      MedPipelineReport(4, CompletionPolicy::kBestCandidate);
  // Same chase outcomes on both policies.
  EXPECT_EQ(leave.num_church_rosser, fill.num_church_rosser);
  EXPECT_EQ(leave.num_complete_by_chase, fill.num_complete_by_chase);
  // The completion policy can only move entities from incomplete to
  // completed-by-candidates.
  EXPECT_EQ(leave.num_incomplete,
            fill.num_incomplete + fill.num_completed_by_candidates);
  EXPECT_EQ(leave.num_completed_by_candidates, 0);
  // Chase-deduced values are never overwritten by the candidate.
  for (size_t i = 0; i < leave.entities.size(); ++i) {
    if (!leave.entities[i].church_rosser) continue;
    const Tuple& partial = leave.entities[i].target;
    const Tuple& full = fill.entities[i].target;
    for (AttrId a = 0; a < partial.size(); ++a) {
      if (!partial.at(a).is_null()) {
        EXPECT_EQ(partial.at(a), full.at(a)) << "entity " << i << " attr " << a;
      }
    }
  }
}

TEST(Pipeline, HeuristicPolicyAlsoCompletes) {
  PipelineReport heuristic =
      MedPipelineReport(4, CompletionPolicy::kHeuristic, /*num_entities=*/30);
  EXPECT_GT(heuristic.num_church_rosser, 0);
  // TopKCTh guarantees its outputs are candidate targets, so every filled
  // entity must be complete.
  for (const EntityReport& e : heuristic.entities) {
    if (e.church_rosser && e.used_candidate) {
      EXPECT_TRUE(e.complete);
    }
  }
}

TEST(Pipeline, AggregateCountsAreConsistent) {
  PipelineReport report =
      MedPipelineReport(4, CompletionPolicy::kBestCandidate);
  EXPECT_EQ(report.num_church_rosser + report.num_non_church_rosser,
            static_cast<int>(report.entities.size()));
  EXPECT_EQ(report.num_complete_by_chase + report.num_completed_by_candidates +
                report.num_incomplete,
            report.num_church_rosser);
  EXPECT_EQ(report.targets.size(), report.num_church_rosser);
  EXPECT_EQ(report.row_entity.size(),
            static_cast<size_t>(report.targets.size()));
  EXPECT_GT(report.deduced_attr_fraction, 0.0);
  EXPECT_LE(report.deduced_attr_fraction, 1.0);
  int64_t tuples = 0;
  for (const EntityReport& e : report.entities) tuples += e.num_tuples;
  EXPECT_EQ(tuples, report.total_tuples);
}

TEST(Pipeline, FlatInputGoesThroughEntityResolution) {
  // Two entities, three mentions each, distinguished by a name key with
  // small typos that ER must cluster.
  Schema schema({{"name", ValueType::kString}, {"city", ValueType::kString}});
  Relation flat(schema);
  auto S = [](const char* s) { return Value::Str(s); };
  flat.Add(Tuple({S("jordan steakhouse"), S("Chicago")}));
  flat.Add(Tuple({S("jordan steakhouse"), Value::Null()}));
  flat.Add(Tuple({S("jordan steakhous"), S("Chicago")}));
  flat.Add(Tuple({S("blue ribbon diner"), S("New York")}));
  flat.Add(Tuple({S("blue ribbon diner"), S("New York")}));
  flat.Add(Tuple({S("blue ribbon dine"), Value::Null()}));

  ResolverConfig er;
  er.key_attrs = {schema.MustIndexOf("name")};
  PipelineReport report =
      OneWindowPipeline(ResolveEntities(flat, er).entities, /*masters=*/{},
                        /*rules=*/{}, /*budget=*/0);
  EXPECT_EQ(report.entities.size(), 2u);
  EXPECT_EQ(report.total_tuples, 6);
  for (const EntityReport& e : report.entities) {
    EXPECT_TRUE(e.church_rosser);
  }
}

TEST(Pipeline, EmptyInputYieldsEmptyReport) {
  PipelineReport report =
      OneWindowPipeline({}, /*masters=*/{}, /*rules=*/{}, /*budget=*/0);
  EXPECT_TRUE(report.entities.empty());
  EXPECT_EQ(report.targets.size(), 0);
  EXPECT_EQ(report.num_church_rosser, 0);
  EXPECT_EQ(report.deduced_attr_fraction, 0.0);
}

TEST(Pipeline, ReportsAgreeAcrossThreadBudgets) {
  PipelineReport one = MedPipelineReport(1, CompletionPolicy::kBestCandidate);
  PipelineReport three =
      MedPipelineReport(3, CompletionPolicy::kBestCandidate);
  PipelineReport eight =
      MedPipelineReport(8, CompletionPolicy::kBestCandidate);
  ASSERT_EQ(one.entities.size(), three.entities.size());
  ASSERT_EQ(one.entities.size(), eight.entities.size());
  for (size_t i = 0; i < one.entities.size(); ++i) {
    EXPECT_EQ(one.entities[i].target, three.entities[i].target) << i;
    EXPECT_EQ(one.entities[i].target, eight.entities[i].target) << i;
  }
  EXPECT_EQ(one.num_completed_by_candidates,
            eight.num_completed_by_candidates);
}

TEST(Pipeline, SharedPreferenceModelIsHonoured) {
  ProfileConfig config = MedConfig(/*seed=*/11);
  config.num_entities = 10;
  config.master_size = 8;
  EntityDataset dataset = GenerateProfile(config);

  // A degenerate preference model (all zero weights) is still usable; the
  // pipeline must not crash and must produce valid candidates.
  PreferenceModel flat_pref(dataset.schema.size());
  PipelineReport report =
      OneWindowPipeline(dataset.entities, dataset.masters, dataset.rules,
                        /*budget=*/2, CompletionPolicy::kBestCandidate,
                        &flat_pref);
  EXPECT_EQ(report.entities.size(), dataset.entities.size());
}

}  // namespace
}  // namespace relacc
