// Whole-database accuracy pipeline (the paper's Sec. 8 future-work
// scenario) under the single thread budget, in two sections:
//
// 1. Batch (the whole dataset in one Submit, default 64-entity window)
//    across budgets: the reference report, which must be identical for
//    every budget.
//
// 2. Streaming (AccuracyService::StartPipeline): entities submitted in
//    arrival-sized batches through a bounded window. The report must be
//    byte-identical to the batch path for every window, while
//    stats().peak_in_flight_engines stays <= window — memory is
//    O(window), not O(entities).
//
// 3. Completion A/B (many_entities_completion scenario): phase-2
//    entity-parallel completion (the 2-D thread plan) vs the one-entity-
//    at-a-time schedule at the same budget, identical reports enforced;
//    the parallel row carries speedup_vs_serial for the CI gate.
//
// 4. ground_scaling: sharded Instantiate at several |Ie| points and
//    shard counts — step-for-step program identity enforced, timing
//    recorded.
//
// Exits nonzero only on a report/program mismatch or a window-bound
// violation, so perf noise cannot break CI. Emits
// BENCH_pipeline_scaling.json.
//
// Extra mode for the CI peak-memory lane:
//   bench_pipeline_scaling --stream N [--window W] [--chunk C]
// streams N med-shaped entities (the same C-entity chunk resubmitted, so
// input memory is constant) through one session and prints a JSON line
// with the process peak RSS; the lane runs it at two entity counts and
// asserts the RSS does not scale with N.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "api/accuracy_service.h"
#include "common.h"
#include "datagen/profile_generator.h"
#include "pipeline/pipeline.h"

namespace relacc {
namespace bench {
namespace {

/// Canonical form of a report for cross-run comparison: per-entity CR
/// flag and final target, plus the aggregate counters. The thread plan is
/// deliberately excluded — it varies with the budget by design while
/// everything else must not.
std::string ReportKey(const PipelineReport& report) {
  std::string key;
  for (const EntityReport& e : report.entities) {
    key += e.church_rosser ? e.target.ToString() : "!CR";
    key += '\n';
  }
  key += std::to_string(report.num_complete_by_chase) + "/" +
         std::to_string(report.num_completed_by_candidates) + "/" +
         std::to_string(report.num_incomplete);
  return key;
}

/// Peak RSS of this process in KiB (0 where unsupported).
int64_t PeakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return usage.ru_maxrss / 1024;  // bytes on macOS
#else
  return usage.ru_maxrss;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// One streaming run: `entities` submitted in batches of `batch`,
/// through a session with the given window (and, when
/// `completion_workers` > 0, a forced phase-2 entity-parallel width).
/// Returns the final report; peak/ok flow out through the out-params.
PipelineReport RunStreaming(const EntityDataset& dataset, int budget,
                            int64_t window, std::size_t batch,
                            int64_t* peak_in_flight, bool* ok,
                            int completion_workers = 0) {
  Specification spec;
  spec.ie = Relation(dataset.schema);
  spec.masters = dataset.masters;
  spec.rules = dataset.rules;
  spec.config = dataset.chase_config;
  ServiceOptions options;
  options.num_threads = budget;
  options.window = window;
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(std::move(spec), options);
  if (!service.ok()) {
    *ok = false;
    return {};
  }
  PipelineSessionOptions session_options;
  session_options.completion_workers = completion_workers;
  Result<std::unique_ptr<PipelineSession>> session =
      service.value()->StartPipeline(std::move(session_options));
  if (!session.ok()) {
    *ok = false;
    return {};
  }
  for (std::size_t begin = 0; begin < dataset.entities.size();
       begin += batch) {
    const std::size_t end =
        std::min(dataset.entities.size(), begin + batch);
    std::vector<EntityInstance> chunk(dataset.entities.begin() + begin,
                                      dataset.entities.begin() + end);
    if (!session.value()->Submit(std::move(chunk)).ok()) {
      *ok = false;
      return {};
    }
  }
  Result<PipelineReport> report = session.value()->Finish();
  if (!report.ok()) {
    *ok = false;
    return {};
  }
  *peak_in_flight = session.value()->stats().peak_in_flight_engines;
  *ok = *peak_in_flight <= window;
  return std::move(report).value();
}

struct Scenario {
  const char* name;
  EntityDataset dataset;
  std::vector<int> budgets;
  int reps;
  /// Emit the completion-serial vs completion-parallel A/B rows (the
  /// phase-2 entity-parallelism satellite) for this scenario.
  bool completion_ab = false;
};

/// Sharded-grounding rows: Instantiate one med-shaped entity of exactly
/// `n` tuples at several shard counts. The sharded program must equal
/// the serial one step for step (determinism is the gate; the timing
/// rows record the speedup trajectory). Returns false on a mismatch.
bool RunGroundScaling(JsonReport* json) {
  const bool small = SmallScale();
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  bool identical = true;
  const std::vector<int> sizes = small ? std::vector<int>{16, 32}
                                       : std::vector<int>{32, 64, 96};
  std::printf("== ground_scaling (Instantiate, shards {1,4,hw=%d}) ==\n",
              hw);
  std::printf("%6s %8s %6s %12s %12s %10s\n", "n", "shards", "reps",
              "steps", "ms/ground", "speedup");
  for (const int n : sizes) {
    ProfileConfig config = MedConfig(/*seed=*/41);
    config.num_entities = 1;
    config.min_tuples = n;
    config.max_tuples = n;
    config.master_size = 60;
    const EntityDataset ds = GenerateProfile(config);
    const Relation& ie = ds.entities[0];
    const int reps = small ? 3 : (n >= 96 ? 5 : 10);
    const GroundProgram reference = Instantiate(ie, ds.masters, ds.rules);
    double serial_ms = 0.0;
    std::vector<int> shard_counts = {1, 4, hw};
    shard_counts.erase(std::unique(shard_counts.begin(), shard_counts.end()),
                       shard_counts.end());
    if (hw == 1) shard_counts = {1, 4};  // hw duplicates the serial row
    for (const int shards : shard_counts) {
      GroundProgram program;
      const double ms = TimeMs([&] {
        for (int r = 0; r < reps; ++r) {
          program = shards <= 1
                        ? Instantiate(ie, ds.masters, ds.rules)
                        : Instantiate(ie, ds.masters, ds.rules, shards);
        }
      });
      const double ms_per = ms / reps;
      if (shards <= 1) serial_ms = ms_per;
      if (!(program == reference)) identical = false;
      const double speedup = ms_per > 0.0 ? serial_ms / ms_per : 0.0;
      std::printf("%6d %8d %6d %12zu %12.3f %9.2fx\n", n, shards, reps,
                  program.size(), ms_per, speedup);
      JsonReport::Row row;
      row.Set("scenario", "ground_scaling")
          .Set("n", n)
          .Set("shards", shards)
          .Set("steps", static_cast<int64_t>(program.size()))
          .Set("ms_per_ground", ms_per)
          .Set("speedup_vs_serial", speedup);
      json->Add(std::move(row));
    }
  }
  return identical;
}

/// The CI peak-memory lane: stream `total` entities (one `chunk`-sized
/// generated set resubmitted over and over, so the *input* held by the
/// driver is constant) through a single window-bounded session and print
/// peak RSS. With a bounded window the RSS must not scale with `total` —
/// the lane runs two entity counts and compares.
int RunStreamRssMode(int64_t total, int64_t window, int64_t chunk) {
  ProfileConfig config = MedConfig(/*seed=*/29);
  config.num_entities = static_cast<int>(chunk);
  config.min_tuples = 16;
  config.max_tuples = 16;
  config.master_size = 60;
  config.free_corruption_prob = 0.6;  // most targets reach phase 2
  const EntityDataset dataset = GenerateProfile(config);

  Specification spec;
  spec.ie = Relation(dataset.schema);
  spec.masters = dataset.masters;
  spec.rules = dataset.rules;
  spec.config = dataset.chase_config;
  ServiceOptions options;
  options.num_threads = 2;
  options.window = window;
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(std::move(spec), options);
  if (!service.ok()) {
    std::printf("stream: %s\n", service.status().ToString().c_str());
    return 1;
  }
  Result<std::unique_ptr<PipelineSession>> session =
      service.value()->StartPipeline();
  if (!session.ok()) {
    std::printf("stream: %s\n", session.status().ToString().c_str());
    return 1;
  }
  int64_t submitted = 0;
  double ms = TimeMs([&] {
    while (submitted < total) {
      const int64_t take =
          std::min<int64_t>(chunk, total - submitted);
      std::vector<EntityInstance> batch(
          dataset.entities.begin(), dataset.entities.begin() + take);
      if (!session.value()->Submit(std::move(batch)).ok()) return;
      submitted += take;
      // Consume reports as they complete, as a real caller would.
      (void)session.value()->Drain();
    }
  });
  Result<PipelineReport> report = session.value()->Finish();
  if (!report.ok() || submitted != total) {
    std::printf("stream failed after %lld entities\n",
                static_cast<long long>(submitted));
    return 1;
  }
  const int64_t peak = session.value()->stats().peak_in_flight_engines;
  const int64_t rss_kb = PeakRssKb();
  // Machine-readable single line for the CI lane.
  std::printf(
      "STREAM_RSS {\"entities\": %lld, \"window\": %lld, "
      "\"peak_in_flight\": %lld, \"maxrss_kb\": %lld, \"ms\": %.1f, "
      "\"church_rosser\": %d}\n",
      static_cast<long long>(total), static_cast<long long>(window),
      static_cast<long long>(peak), static_cast<long long>(rss_kb), ms,
      report.value().num_church_rosser);
  if (peak > window) {
    std::printf("window bound violated: %lld > %lld\n",
                static_cast<long long>(peak),
                static_cast<long long>(window));
    return 1;
  }
  return 0;
}

int Run() {
  const bool small = SmallScale();
  JsonReport json("pipeline_scaling");

  std::vector<Scenario> scenarios;
  {
    // Many small entities: the chase phase is the embarrassingly-parallel
    // bulk; the minority of incomplete targets flows through the shared
    // completion checker one entity at a time.
    ProfileConfig config = MedConfig(/*seed=*/3);
    config.num_entities = small ? 36 : 150;
    config.master_size = small ? 40 : 120;
    scenarios.push_back({"many_entities", GenerateProfile(config),
                         small ? std::vector<int>{1, 4}
                               : std::vector<int>{1, 2, 4, 8},
                         small ? 1 : 3});
  }
  {
    // Few large entities with every free attribute corrupted: targets
    // stay incomplete and the per-entity top-1 candidate search (checks
    // included) dominates, exercising the wide shared checker.
    ProfileConfig config = MedConfig(/*seed=*/17);
    config.num_entities = 4;
    config.min_tuples = small ? 24 : 48;
    config.max_tuples = small ? 24 : 48;
    config.master_size = 120;
    config.free_corruption_prob = 1.0;
    scenarios.push_back({"few_entities_deep", GenerateProfile(config),
                         small ? std::vector<int>{8} : std::vector<int>{4, 8},
                         small ? 2 : 5});
  }
  {
    // Many entities, every target incomplete: phase 2 dominates and is
    // embarrassingly parallel across entities — the scenario behind the
    // completion-serial vs completion-parallel A/B rows and the
    // budget-8-vs-1 end-to-end acceptance number.
    ProfileConfig config = MedConfig(/*seed=*/31);
    config.num_entities = small ? 16 : 64;
    config.min_tuples = 12;
    config.max_tuples = 12;
    config.master_size = 60;
    config.free_corruption_prob = 1.0;
    // Budget 8 in small mode too: the CI gate reads the top-budget
    // completion-parallel row, and the acceptance number is budget 8 vs
    // budget 1.
    scenarios.push_back({"many_entities_completion", GenerateProfile(config),
                         std::vector<int>{1, 8},
                         small ? 2 : 3, /*completion_ab=*/true});
  }

  bool all_identical = true;
  bool window_bound_held = true;
  for (const Scenario& scenario : scenarios) {
    std::printf("== pipeline %s (%zu entities%s) ==\n", scenario.name,
                scenario.dataset.entities.size(),
                small ? "; RELACC_BENCH_SMALL" : "");
    std::printf("%8s %10s %6s %6s %12s %14s\n", "budget", "mode", "chase",
                "check", "ms/run", "entities/s");
    std::string reference_key;
    const std::size_t all = scenario.dataset.entities.size();
    {
      // Untimed warm-up: faults in the dataset and allocator so the first
      // timed configuration is not charged for cold caches.
      int64_t peak = 0;
      bool ok = true;
      (void)RunStreaming(scenario.dataset, scenario.budgets.front(),
                         /*window=*/64, all, &peak, &ok);
    }
    for (int budget : scenario.budgets) {
      {
        int64_t peak = 0;
        bool ok = true;
        PipelineReport report;
        const double ms = TimeMs([&] {
          for (int r = 0; r < scenario.reps; ++r) {
            report = RunStreaming(scenario.dataset, budget, /*window=*/64,
                                  all, &peak, &ok);
          }
        });
        const double ms_per_run = ms / scenario.reps;
        if (!ok) window_bound_held = false;
        const double entities_per_s =
            ms_per_run > 0.0
                ? static_cast<double>(scenario.dataset.entities.size()) /
                      (ms_per_run / 1e3)
                : 0.0;
        const std::string key = ReportKey(report);
        if (reference_key.empty()) {
          reference_key = key;
        } else if (key != reference_key) {
          all_identical = false;
        }
        std::printf("%8d %10s %6d %6d %12.2f %14.0f\n", budget, "batch",
                    report.plan.chase_threads, report.plan.check_threads,
                    ms_per_run, entities_per_s);
        JsonReport::Row row;
        row.Set("scenario", scenario.name)
            .Set("mode", "batch")
            .Set("budget", budget)
            .Set("chase_threads", report.plan.chase_threads)
            .Set("completion_workers", report.plan.completion_workers)
            .Set("check_threads", report.plan.check_threads)
            .Set("entities",
                 static_cast<int64_t>(scenario.dataset.entities.size()))
            .Set("ms_per_run", ms_per_run)
            .Set("entities_per_s", entities_per_s);
        json.Add(std::move(row));
      }

      // Streaming session at the same budget: submitted in small
      // arrival batches across several windows; the report must match
      // the batch reference byte for byte while the in-flight engine
      // count respects the window.
      for (const int64_t window :
           {static_cast<int64_t>(1), static_cast<int64_t>(5),
            static_cast<int64_t>(64)}) {
        int64_t peak = 0;
        bool ok = true;
        PipelineReport report;
        const double ms = TimeMs([&] {
          for (int r = 0; r < scenario.reps; ++r) {
            report = RunStreaming(scenario.dataset, budget, window,
                                  /*batch=*/7, &peak, &ok);
          }
        });
        const double ms_per_run = ms / scenario.reps;
        if (!ok) window_bound_held = false;
        const std::string key = ReportKey(report);
        if (key != reference_key) all_identical = false;
        std::string mode = "stream/w" + std::to_string(window);
        std::printf("%8d %10s %6s %6s %12.2f %14.0f  peak=%lld\n", budget,
                    mode.c_str(), "-", "-", ms_per_run,
                    ms_per_run > 0.0
                        ? scenario.dataset.entities.size() /
                              (ms_per_run / 1e3)
                        : 0.0,
                    static_cast<long long>(peak));
        JsonReport::Row row;
        row.Set("scenario", scenario.name)
            .Set("mode", mode)
            .Set("budget", budget)
            .Set("window", window)
            .Set("peak_in_flight", peak)
            .Set("entities",
                 static_cast<int64_t>(scenario.dataset.entities.size()))
            .Set("ms_per_run", ms_per_run);
        json.Add(std::move(row));
      }

      // Completion A/B at this budget: one entity at a time through a
      // budget-wide checker (workers=1, the pre-2-D schedule) vs the
      // plan's entity-parallel completion (workers=0, auto). Identical
      // reports enforced; the parallel row records its speedup — the
      // bench-json CI job gates on it at the highest budget.
      if (scenario.completion_ab) {
        double serial_ms = 0.0;
        for (const int workers : {1, 0}) {
          int64_t peak = 0;
          bool ok = true;
          PipelineReport report;
          const double ms = TimeMs([&] {
            for (int r = 0; r < scenario.reps; ++r) {
              report = RunStreaming(scenario.dataset, budget, /*window=*/64,
                                    /*batch=*/16, &peak, &ok, workers);
            }
          });
          const double ms_per_run = ms / scenario.reps;
          if (!ok) window_bound_held = false;
          if (ReportKey(report) != reference_key) all_identical = false;
          if (workers == 1) serial_ms = ms_per_run;
          const double speedup =
              ms_per_run > 0.0 ? serial_ms / ms_per_run : 0.0;
          const std::string mode = workers == 1 ? "completion-serial"
                                                : "completion-parallel";
          std::printf("%8d %18s %12.2f  speedup=%.2fx\n", budget,
                      mode.c_str(), ms_per_run, speedup);
          JsonReport::Row row;
          row.Set("scenario", scenario.name)
              .Set("mode", mode)
              .Set("budget", budget)
              .Set("completion_workers", workers)
              .Set("entities",
                   static_cast<int64_t>(scenario.dataset.entities.size()))
              .Set("ms_per_run", ms_per_run)
              .Set("speedup_vs_serial", speedup);
          json.Add(std::move(row));
        }
      }
    }
  }

  const bool ground_identical = RunGroundScaling(&json);
  if (!ground_identical) all_identical = false;

  json.Write();
  std::printf("reports identical across modes, budgets and windows: %s\n",
              all_identical ? "yes" : "NO (BUG)");
  std::printf("streaming window bound held: %s\n",
              window_bound_held ? "yes" : "NO (BUG)");
  return all_identical && window_bound_held ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace relacc

int main(int argc, char** argv) {
  int64_t stream_total = 0;
  int64_t window = 8;
  int64_t chunk = 48;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stream") == 0 && i + 1 < argc) {
      stream_total = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc) {
      window = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--chunk") == 0 && i + 1 < argc) {
      chunk = std::atoll(argv[++i]);
    } else {
      std::printf("usage: %s [--stream N [--window W] [--chunk C]]\n",
                  argv[0]);
      return 2;
    }
  }
  if (stream_total > 0) {
    return relacc::bench::RunStreamRssMode(stream_total, window, chunk);
  }
  return relacc::bench::Run();
}
