// IsCR timing (Sec. 7, text: "IsCR takes about 10ms" per entity) plus the
// interactive-session resume cost: the Fig. 3 loop re-chases once per user
// revision via ChaseEngine::ResumeWith — a persistent session state that
// extends across accumulating revisions and rolls back through its trail.
// Each revision's resume outcome (Church-Rosser flag and target) is
// checked against the from-scratch chase Run(revision), whose per-revision
// cost is reported alongside as the baseline a re-chase without the
// session would pay.
//
// Emits BENCH_iscr_timing.json (bench::JsonReport); exits nonzero only on
// an outcome mismatch, so perf noise cannot break CI.

#include <cstdio>
#include <string>
#include <vector>

#include "chase/chase_engine.h"
#include "common.h"
#include "datagen/profile_generator.h"
#include "datagen/syn_generator.h"
#include "rules/grounding.h"
#include "topk/preference.h"

namespace relacc {
namespace bench {
namespace {

/// Average IsCR wall time (grounding + index + chase) over a dataset.
void TimeIsCR(JsonReport* report, const char* profile,
              const EntityDataset& ds, int entities) {
  const int n = std::min<int>(entities, static_cast<int>(ds.entities.size()));
  int church_rosser = 0;
  const double ms = TimeMs([&] {
    for (int i = 0; i < n; ++i) {
      church_rosser += IsCR(ds.SpecFor(i)).church_rosser ? 1 : 0;
    }
  });
  std::printf("%-24s %6d entities %10.3f ms/entity (%d CR)\n",
              profile, n, ms / n, church_rosser);
  JsonReport::Row row;
  row.Set("section", "iscr")
      .Set("profile", profile)
      .Set("entities", n)
      .Set("church_rosser", church_rosser)
      .Set("ms_per_entity", ms / n);
  report->Add(std::move(row));
}

/// The rounds of one simulated interactive session over `spec`:
/// cumulative truth reveals — round r designates the true values of the
/// first r still-null attributes, exactly the Exp-3 shape DriveInteraction
/// feeds ResumeWith. Each round extends the session prefix, so only the
/// new reveal is chased in.
std::vector<Tuple> SessionRounds(const Specification& spec,
                                 const Tuple& deduced, const Tuple& truth) {
  const int num_attrs = spec.ie.schema().size();
  std::vector<Tuple> rounds;
  Tuple cumulative(std::vector<Value>(num_attrs, Value::Null()));
  for (AttrId a = 0; a < num_attrs; ++a) {
    if (!deduced.at(a).is_null()) continue;
    if (a < truth.size() && !truth.at(a).is_null()) {
      cumulative.set(a, truth.at(a));
      rounds.push_back(cumulative);
    }
  }
  return rounds;
}

/// Independent one-attribute revisions (no two extend each other), so a
/// session resets to the checkpoint on every call — the
/// no-prefix-reuse worst case.
std::vector<Tuple> IndependentRevisions(const Specification& spec,
                                        const ColumnarRelation& cie,
                                        const Tuple& deduced) {
  const int num_attrs = spec.ie.schema().size();
  const MasterDomains domains(spec.masters);
  std::vector<Tuple> revisions;
  for (AttrId a = 0; a < num_attrs; ++a) {
    if (!deduced.at(a).is_null()) continue;
    int taken = 0;
    for (const Value& v :
         ActiveDomain(cie, domains, a, /*defaults=*/false)) {
      if (taken >= 2) break;
      Tuple single(std::vector<Value>(num_attrs, Value::Null()));
      single.set(a, v);
      revisions.push_back(std::move(single));
      ++taken;
    }
  }
  return revisions;
}

/// Outcome of one revision as compared against the oracle: CR flag and
/// target (or an abort marker). Stats are excluded deliberately: a
/// session-extending resume legitimately reports less work.
std::string OutcomeKey(const ChaseOutcome& out) {
  return out.church_rosser ? out.target.ToString() : "abort";
}

struct ResumeRun {
  double ms = 0.0;
  std::vector<std::string> outcomes;  ///< one OutcomeKey per revision
};

/// `rounds` passes over `revisions`, through ResumeWith (`resume`) or the
/// from-scratch Run, on a fresh engine over `probe`'s entity and program.
ResumeRun RunRevisions(const EntityEngine& probe, bool resume,
                       const std::vector<Tuple>& revisions, int rounds) {
  ChaseEngine engine(probe.cie, &probe.program, probe.engine.config());
  ResumeRun run;
  if (!engine.RunFromCheckpoint().church_rosser) return run;
  // Warm-up: builds the session state (a one-time copy a framework
  // session amortizes over all its rounds).
  if (resume) (void)engine.ResumeWith(revisions[0]);
  run.ms = TimeMs([&] {
    for (int r = 0; r < rounds; ++r) {
      for (const Tuple& revision : revisions) {
        const ChaseOutcome out =
            resume ? engine.ResumeWith(revision) : engine.Run(revision);
        if (r == 0) run.outcomes.push_back(OutcomeKey(out));
      }
    }
  });
  return run;
}

int Run() {
  const bool small = SmallScale();
  JsonReport report("iscr_timing");

  std::printf("== IsCR per entity (grounding + chase) ==\n");
  {
    ProfileConfig c = MedConfig();
    c.num_entities = small ? 24 : 200;
    c.master_size = small ? 24 : 178;
    const EntityDataset med = GenerateProfile(c);
    TimeIsCR(&report, "med", med, small ? 24 : 200);
    const EntityDataset cfp =
        GenerateProfile(small ? [] {
          ProfileConfig cc = CfpConfig();
          cc.num_entities = 12;
          cc.master_size = 12;
          return cc;
        }() : CfpConfig());
    TimeIsCR(&report, "cfp", cfp, small ? 12 : 100);
  }

  std::printf("\n== per-revision ResumeWith vs from-scratch Run "
              "(med profile, exact |Ie| per point%s) ==\n",
              small ? "; RELACC_BENCH_SMALL" : "");
  std::printf("%6s %-12s %10s %14s %14s %9s\n", "n", "kind", "revisions",
              "run us/rev", "resume us/rev", "speedup");

  const std::vector<int> sizes =
      small ? std::vector<int>{16, 32} : std::vector<int>{16, 64, 96};
  const int64_t target_resumes = small ? 128 : 512;
  bool all_identical = true;

  for (int n : sizes) {
    ProfileConfig config = MedConfig(/*seed=*/4321 + n);
    config.num_entities = 6;
    config.min_tuples = n;
    config.max_tuples = n;
    config.master_size = 200;
    // Every free attribute corrupted: observations disagree, the chase
    // leaves them null, and the session has real revisions to make. Med
    // proper has two free attributes; eight of them here make the
    // session a realistic multi-round interaction (the paper's Exp-3
    // reports up to ~4 rounds even with top-k suggestions absorbing
    // most of the work).
    config.free_corruption_prob = 1.0;
    config.num_free_attrs = 8;
    const EntityDataset ds = GenerateProfile(config);

    bool found = false;
    for (int i = 0; i < static_cast<int>(ds.entities.size()) && !found; ++i) {
      const Specification spec = ds.SpecFor(i);
      const EntityEngine probe(spec);
      const ChaseOutcome outcome = probe.engine.RunFromCheckpoint();
      if (!outcome.church_rosser || outcome.target.IsComplete()) continue;
      const std::vector<Tuple> session =
          SessionRounds(spec, outcome.target, ds.truths[i]);
      const std::vector<Tuple> independent =
          IndependentRevisions(spec, probe.cie, outcome.target);
      if (session.empty() || independent.empty()) continue;
      found = true;

      const struct {
        const char* kind;
        const std::vector<Tuple>& revisions;
      } kinds[] = {{"session", session}, {"independent", independent}};
      for (const auto& [kind, revisions] : kinds) {
        const int rounds = static_cast<int>(std::max<int64_t>(
            1, target_resumes / static_cast<int64_t>(revisions.size())));
        const int64_t resumes =
            static_cast<int64_t>(revisions.size()) * rounds;
        const ResumeRun full =
            RunRevisions(probe, /*resume=*/false, revisions, rounds);
        const ResumeRun resumed =
            RunRevisions(probe, /*resume=*/true, revisions, rounds);
        if (full.outcomes != resumed.outcomes) all_identical = false;

        const double run_us = full.ms * 1e3 / static_cast<double>(resumes);
        const double resume_us =
            resumed.ms * 1e3 / static_cast<double>(resumes);
        const double speedup =
            resumed.ms > 0.0 ? full.ms / resumed.ms : 0.0;
        std::printf("%6d %-12s %10zu %14.1f %14.1f %8.2fx\n", n, kind,
                    revisions.size(), run_us, resume_us, speedup);

        JsonReport::Row row;
        row.Set("section", "resume")
            .Set("kind", kind)
            .Set("n", n)
            .Set("revisions", static_cast<int64_t>(revisions.size()))
            .Set("rounds", rounds)
            .Set("run_us_per_revision", run_us)
            .Set("resume_us_per_revision", resume_us)
            .Set("speedup", speedup);
        report.Add(std::move(row));
      }
    }
    if (!found) {
      std::printf("%6d   (no incomplete Church-Rosser entity; skipped)\n",
                  n);
    }
  }

  report.Write();
  std::printf("resume outcomes identical to from-scratch runs: %s\n",
              all_identical ? "yes" : "NO (BUG)");
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace relacc

int main() { return relacc::bench::Run(); }
