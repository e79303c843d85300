// Determinism regression tests for the parallel candidate-checking layer
// (topk/batch_check.h): every top-k algorithm and the CLI must produce
// byte-identical ranked results regardless of the thread count, on both
// the Mj fixture and a synthetic spec. Guards the batched check paths of
// TopKCT / TopKCTh / RankJoinCT / TopKBruteForce.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chase/chase_engine.h"
#include "cli/commands.h"
#include "datagen/syn_generator.h"
#include "io/spec_io.h"
#include "mj_fixture.h"
#include "rules/cfd.h"
#include "service_fixture.h"
#include "topk/batch_check.h"
#include "topk/rank_join_ct.h"
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

struct AlgoCase {
  const char* name;
  TopKResult (*run)(const CandidateChecker&, const MasterDomains&,
                    const Tuple&, const PreferenceModel&, int,
                    const TopKOptions&);
};

constexpr AlgoCase kAlgos[] = {
    {"TopKCT", &TopKCT},
    {"TopKCTh", &TopKCTh},
    {"RankJoinCT", &RankJoinCT},
    {"TopKBruteForce", &TopKBruteForce},
};

/// Runs every algorithm with 1, 2 and 8 threads on the target template
/// `te` and requires identical ranked results, and for TopKCTh identical
/// queue_pops and heap_pops: its seeds are never checked, so the seed
/// search must not depend on the checker's width. `expect_accepts`
/// demands that at least one exact algorithm finds targets, so the
/// comparison is not vacuous.
void ExpectIdenticalRankedResults(const Specification& spec,
                                  const PreferenceModel& pref,
                                  const Tuple& te, int k,
                                  bool expect_accepts) {
  EncodedEngine encoded(spec);
  const ChaseEngine& engine = encoded.engine;
  ASSERT_TRUE(engine.RunFromInitial().church_rosser);
  std::size_t max_targets = 0;
  for (const AlgoCase& algo : kAlgos) {
    TopKOptions opts;
    // Tight pop budget: bounds the runtime when few candidates pass and
    // covers determinism of the exhausted_budget path as well.
    opts.max_expansions = 2000;
    const TopKResult seq = algo.run(engine, spec.masters, te, pref, k, opts);
    max_targets = std::max(max_targets, seq.targets.size());
    for (int threads : {2, 8}) {
      const CandidateChecker checker(engine, threads);
      const TopKResult par =
          algo.run(checker, spec.masters, te, pref, k, opts);
      EXPECT_EQ(par.targets, seq.targets)
          << algo.name << " threads=" << threads;
      EXPECT_EQ(par.scores, seq.scores)
          << algo.name << " threads=" << threads;
      EXPECT_EQ(par.exhausted_budget, seq.exhausted_budget)
          << algo.name << " threads=" << threads;
      if (algo.run == &TopKCTh) {
        EXPECT_EQ(par.queue_pops, seq.queue_pops) << "threads=" << threads;
        EXPECT_EQ(par.heap_pops, seq.heap_pops) << "threads=" << threads;
      }
    }
  }
  if (expect_accepts) {
    EXPECT_GT(max_targets, 0u);
  }
}

TEST(TopKDeterminism, AllAlgorithmsMatchSequentialOnMjFixture) {
  const Specification spec = Example9Spec();
  const PreferenceModel pref =
      PreferenceModel::FromOccurrences(spec.ie, spec.masters);
  EncodedEngine encoded(spec);
  const ChaseEngine& engine = encoded.engine;
  const ChaseOutcome outcome = engine.RunFromInitial();
  ASSERT_TRUE(outcome.church_rosser);
  ExpectIdenticalRankedResults(spec, pref, outcome.target, 5,
                               /*expect_accepts=*/true);
}

TEST(TopKDeterminism, AllAlgorithmsMatchSequentialOnSyntheticSpec) {
  // The chase on a tiny Syn instance leaves most attributes null, which
  // would blow up RankJoinCT's join tree; instead complete the template
  // from the ground truth (consistent with the chase by construction) and
  // re-open a handful of attributes, so every algorithm — including the
  // brute-force oracle — searches a small product with a pass/fail mix.
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
  const SynDataset syn = GenerateSyn(config);
  const Schema& schema = syn.spec.ie.schema();
  Tuple te = syn.truth;
  for (const char* name : {"cur_0", "mst_0", "free_0"}) {
    te.set(schema.MustIndexOf(name), Value());
  }
  ASSERT_GE(te.NullCount(), 3);
  ExpectIdenticalRankedResults(syn.spec, syn.pref, te, 4,
                               /*expect_accepts=*/true);
}

TEST(TopKDeterminism, BudgetAtExactSpaceExhaustionIsNotReportedAsExhausted) {
  // If the pop budget runs out at the same moment the search space does,
  // the search completed: exhausted_budget must stay false, as in the
  // pre-batching loop (and for every thread count).
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

  for (int threads : {1, 8}) {
    const CandidateChecker checker(engine, threads);
    opts.max_expansions = full.queue_pops;  // exactly the space size
    const TopKResult boundary =
        TopKCT(checker, spec.masters, outcome.target, pref, huge_k, opts);
    EXPECT_FALSE(boundary.exhausted_budget) << "threads=" << threads;
    EXPECT_EQ(boundary.targets, full.targets) << "threads=" << threads;

    opts.max_expansions = full.queue_pops - 1;  // one pop short
    const TopKResult short_of =
        TopKCT(checker, spec.masters, outcome.target, pref, huge_k, opts);
    EXPECT_TRUE(short_of.exhausted_budget) << "threads=" << threads;
  }
}

TEST(TopKDeterminism, CliTopKOutputIsByteIdenticalAcrossThreadCounts) {
  SpecDocument doc;
  doc.spec = Example9Spec();
  doc.entity_name = "stat";
  doc.master_names = {"nba"};
  const std::string path =
      ::testing::TempDir() + "/relacc_batch_check_spec.json";
  ASSERT_TRUE(WriteFile(path, SpecToJson(doc).Dump(2)).ok());

  for (const char* algo : {"topkct", "heuristic", "rankjoin", "brute"}) {
    auto run = [&](const char* threads) {
      std::ostringstream out, err;
      const int rc = RunCli({"topk", path, "--k=5", "--algo", algo,
                             "--threads", threads},
                            out, err);
      EXPECT_EQ(rc, 0) << algo << " threads=" << threads << ": "
                       << err.str();
      return out.str();
    };
    const std::string seq = run("1");
    EXPECT_NE(seq.find("top-5 candidates"), std::string::npos) << algo;
    EXPECT_EQ(run("8"), seq) << algo;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace relacc
