// Oracle tests for the candidate check (Sec. 6's `check`):
// ChaseEngine::CheckCandidate chases each candidate forward on a
// long-lived probe state and rolls it back in O(changes), and must agree
// with the from-scratch chase Run(t).church_rosser on every candidate —
// including candidates whose probe aborts mid-chase on a Church-Rosser
// violation (the rollback must leave the checkpoint pristine) and probes
// interleaved with ResumeWith calls on the same engine. Also covers the
// batch layer across thread counts, ranked output of all four top-k
// algorithms on one long-lived engine against a fresh engine per search
// (every returned target re-verified by Run), and the checkpoint-backed
// RunFromCheckpoint entry point.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chase/chase_engine.h"
#include "datagen/syn_generator.h"
#include "mj_fixture.h"
#include "rules/grounding.h"
#include "service_fixture.h"
#include "topk/preference.h"
#include "topk/rank_join_ct.h"
#include "topk/topk_ct.h"

namespace relacc {
namespace {

using testing_fixture::EncodedEngine;
using testing_fixture::MjSpecification;

/// Example 9/10 setting (as in test_batch_check.cc): drop `team` from ϕ6
/// so the deduced target is incomplete and candidates exist.
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

/// The re-opened synthetic setting of test_batch_check.cc: a small
/// product with a pass/fail mix every algorithm can search.
struct SynCase {
  SynDataset syn;
  Tuple te;  ///< truth with three attributes re-opened
};

SynCase SyntheticCase() {
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
  SynCase c{GenerateSyn(config), Tuple()};
  const Schema& schema = c.syn.spec.ie.schema();
  c.te = c.syn.truth;
  for (const char* name : {"cur_0", "mst_0", "free_0"}) {
    c.te.set(schema.MustIndexOf(name), Value());
  }
  return c;
}

/// Candidate pool with a guaranteed mix of passing, failing and
/// conflicting tuples: 64 completions of `te` (every `stride`-th in
/// odometer order, so a large product is sampled across its range), plus
/// the completions of `te` with one further attribute — the first one the
/// all-null chase deduced — re-opened. Those carry other active-domain
/// values for a deduced attribute, so their probes abort mid-chase on the
/// te conflict, exercising the abort-path rollback.
std::vector<Tuple> MixedPool(const Specification& spec,
                             const ChaseEngine& engine, const Tuple& te,
                             std::size_t stride = 1) {
  const ChaseOutcome outcome = engine.RunFromCheckpoint();
  EXPECT_TRUE(outcome.church_rosser);
  const std::vector<Tuple> product = EnumerateCandidateProduct(
      engine.encoded_ie(), spec.masters, te,
      /*include_default_values=*/false, /*limit=*/64 * stride);
  std::vector<Tuple> pool;
  for (std::size_t i = 0; i < product.size(); i += stride) {
    pool.push_back(product[i]);
  }
  Tuple reopened = te;
  for (AttrId a = 0; a < reopened.size(); ++a) {
    if (!reopened.at(a).is_null() && !outcome.target.at(a).is_null()) {
      reopened.set(a, Value::Null());
      break;
    }
  }
  const std::vector<Tuple> conflicted = EnumerateCandidateProduct(
      engine.encoded_ie(), spec.masters, reopened,
      /*include_default_values=*/false, /*limit=*/32);
  pool.insert(pool.end(), conflicted.begin(), conflicted.end());
  return pool;
}

/// Every candidate's CheckCandidate verdict must equal the from-scratch
/// oracle Run(t).church_rosser. Every third candidate is also pushed
/// through ResumeWith first (as a full revision, then with half of its
/// attributes re-opened), so probes interleave with session activity on
/// the same engine; the resume outcomes are checked against Run too.
void ExpectVerdictsMatchRun(const Specification& spec, const Tuple& te,
                            std::size_t stride) {
  EncodedEngine encoded(spec);
  const ChaseEngine& engine = encoded.engine;
  const std::vector<Tuple> pool = MixedPool(spec, engine, te, stride);
  ASSERT_GT(pool.size(), 8u);

  int passed = 0, failed = 0, resumed = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Tuple& t = pool[i];
    const ChaseOutcome oracle = engine.Run(t);
    if (i % 3 == 0) {
      Tuple partial = t;
      for (AttrId a = 0; a < partial.size(); a += 2) {
        partial.set(a, Value::Null());
      }
      const Tuple* revisions[] = {&t, &partial};
      for (const Tuple* revision : revisions) {
        const ChaseOutcome full = engine.Run(*revision);
        const ChaseOutcome resume = engine.ResumeWith(*revision);
        ASSERT_EQ(resume.church_rosser, full.church_rosser) << "i=" << i;
        if (full.church_rosser) {
          EXPECT_EQ(resume.target, full.target) << "i=" << i;
        }
        ++resumed;
      }
    }
    EXPECT_EQ(engine.CheckCandidate(t), oracle.church_rosser) << "i=" << i;
    (oracle.church_rosser ? passed : failed) += 1;
  }
  // The pool genuinely mixes outcomes, so the comparison is not vacuous.
  EXPECT_GT(passed, 0);
  EXPECT_GT(failed, 0);
  EXPECT_GT(resumed, 0);
}

TEST(CandidateCheck, VerdictsMatchFromScratchRunOnMjFixture) {
  const Specification spec = Example9Spec();
  EncodedEngine encoded(spec);
  const ChaseEngine& engine = encoded.engine;
  const ChaseOutcome outcome = engine.RunFromCheckpoint();
  ASSERT_TRUE(outcome.church_rosser);
  ExpectVerdictsMatchRun(spec, outcome.target, /*stride=*/1);
}

TEST(CandidateCheck, VerdictsMatchFromScratchRunOnSyntheticSpec) {
  const SynCase c = SyntheticCase();
  ASSERT_GE(c.te.NullCount(), 3);
  // The 4096-candidate product passes ~2% of its members, in clusters;
  // sampling every 8th keeps a pass/fail mix at a tenth of the cost.
  ExpectVerdictsMatchRun(c.syn.spec, c.te, /*stride=*/8);
}

TEST(CandidateCheck, RollbackAfterConflictLeavesCheckpointPristine) {
  const Specification spec = Example9Spec();
  EncodedEngine encoded(spec);
  const ChaseEngine& engine = encoded.engine;

  const std::vector<Tuple> pool =
      MixedPool(spec, engine, engine.RunFromCheckpoint().target);
  std::vector<char> first;
  for (const Tuple& t : pool) first.push_back(engine.CheckCandidate(t));

  // Every probe — successful or aborted mid-chase — must roll the probe
  // state back to the checkpoint: re-checking the pool (forward, then
  // backward, so each candidate also runs right after a different
  // predecessor) must reproduce the verdicts exactly.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(engine.CheckCandidate(pool[i]), first[i] != 0) << "i=" << i;
  }
  for (std::size_t i = pool.size(); i-- > 0;) {
    EXPECT_EQ(engine.CheckCandidate(pool[i]), first[i] != 0) << "i=" << i;
  }
  // The shared checkpoint itself is untouched: the all-null outcome it
  // serves is still the fixture's expected target.
  const ChaseOutcome after = engine.RunFromCheckpoint();
  ASSERT_TRUE(after.church_rosser);
  EXPECT_EQ(after.target, engine.Run(Tuple(std::vector<Value>(
                              spec.ie.schema().size(), Value::Null())))
                              .target);
}

TEST(CandidateCheck, BatchVerdictsMatchFromScratchRunAcrossThreads) {
  const Specification spec = Example9Spec();
  EncodedEngine encoded(spec);
  const ChaseEngine& engine = encoded.engine;
  const std::vector<Tuple> pool =
      MixedPool(spec, engine, engine.RunFromCheckpoint().target);

  std::vector<char> reference;
  for (const Tuple& t : pool) {
    reference.push_back(engine.Run(t).church_rosser ? 1 : 0);
  }
  for (int threads : {1, 4}) {
    EXPECT_EQ(testing_fixture::CheckOnService(spec, pool, threads), reference)
        << "threads=" << threads;
  }
}

struct AlgoCase {
  const char* name;
  TopKResult (*run)(const ChaseEngine&, const MasterDomains&,
                    const Tuple&, const PreferenceModel&, int,
                    const TopKOptions&);
};

constexpr AlgoCase kAlgos[] = {
    {"TopKCT", &TopKCT},
    {"TopKCTh", &TopKCTh},
    {"RankJoinCT", &RankJoinCT},
    {"TopKBruteForce", &TopKBruteForce},
};

/// All four algorithms on one engine shared by every search: the ranked
/// output (targets, scores, counters) must be identical to a search on a
/// fresh engine — the probe state a check leaves behind never leaks into
/// the next — and every returned target must pass the from-scratch chase
/// Run(t).
void ExpectRankedOutputVerified(const Specification& spec,
                                const PreferenceModel& pref, const Tuple& te,
                                int k) {
  std::size_t max_targets = 0;
  const EncodedEngine shared_encoded(spec);
  const ChaseEngine& shared = shared_encoded.engine;
  ASSERT_TRUE(shared.RunFromCheckpoint().church_rosser);
  for (const AlgoCase& algo : kAlgos) {
    TopKOptions opts;
    opts.max_expansions = 2000;

    const EncodedEngine reference_encoded(spec);
    const ChaseEngine& reference_engine = reference_encoded.engine;
    ASSERT_TRUE(reference_engine.RunFromCheckpoint().church_rosser);
    const TopKResult reference =
        algo.run(reference_engine, spec.masters, te, pref, k, opts);
    max_targets = std::max(max_targets, reference.targets.size());
    for (const Tuple& target : reference.targets) {
      EXPECT_TRUE(reference_engine.Run(target).church_rosser) << algo.name;
    }

    const TopKResult got = algo.run(shared, spec.masters, te, pref, k, opts);
    EXPECT_EQ(got.targets, reference.targets) << algo.name;
    EXPECT_EQ(got.scores, reference.scores) << algo.name;
    EXPECT_EQ(got.checks, reference.checks) << algo.name;
    EXPECT_EQ(got.exhausted_budget, reference.exhausted_budget) << algo.name;
  }
  EXPECT_GT(max_targets, 0u);  // not vacuous
}

TEST(CandidateCheck, RankedOutputIdenticalOnMjFixture) {
  const Specification spec = Example9Spec();
  const PreferenceModel pref =
      PreferenceModel::FromOccurrences(spec.ie, spec.masters);
  EncodedEngine encoded(spec);
  const ChaseEngine& engine = encoded.engine;
  const ChaseOutcome outcome = engine.RunFromCheckpoint();
  ASSERT_TRUE(outcome.church_rosser);
  ExpectRankedOutputVerified(spec, pref, outcome.target, 5);
}

TEST(CandidateCheck, RankedOutputIdenticalOnSyntheticSpec) {
  const SynCase c = SyntheticCase();
  ASSERT_GE(c.te.NullCount(), 3);
  ExpectRankedOutputVerified(c.syn.spec, c.syn.pref, c.te, 4);
}

TEST(CandidateCheck, RunFromCheckpointMatchesRunFromInitial) {
  const Specification spec = Example9Spec();
  EncodedEngine encoded(spec);
  const ChaseEngine& engine = encoded.engine;
  const ChaseOutcome fresh = engine.RunFromInitial();
  const ChaseOutcome shared = engine.RunFromCheckpoint();
  ASSERT_EQ(shared.church_rosser, fresh.church_rosser);
  EXPECT_EQ(shared.target, fresh.target);
  EXPECT_EQ(shared.stats.steps_applied, fresh.stats.steps_applied);
  EXPECT_EQ(shared.stats.pairs_derived, fresh.stats.pairs_derived);
  // Served from the cache on repeat calls, still identical.
  EXPECT_EQ(engine.RunFromCheckpoint().target, fresh.target);
}

TEST(CandidateCheck, RunFromCheckpointReportsViolationOfBrokenSpec) {
  // ϕ12 makes the Mj fixture non-Church-Rosser (Example 6); the shared
  // checkpoint must report the same violation as a from-scratch run, and
  // candidate checks against the broken base must refuse everything.
  Specification spec = MjSpecification();
  spec.rules.push_back(testing_fixture::Phi12(spec.ie.schema()));

  EncodedEngine encoded(spec);
  const ChaseEngine& engine = encoded.engine;
  const ChaseOutcome fresh = engine.RunFromInitial();
  const ChaseOutcome shared = engine.RunFromCheckpoint();
  EXPECT_EQ(shared.church_rosser, fresh.church_rosser);
  EXPECT_EQ(shared.violation, fresh.violation);
  if (!fresh.church_rosser) {
    // Candidate checks against a broken base spec refuse everything.
    EXPECT_FALSE(engine.CheckCandidate(testing_fixture::MjExpectedTarget()));
  }
}

}  // namespace
}  // namespace relacc
