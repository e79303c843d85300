// Scaling of the batch candidate check (AccuracyService::CheckCandidates
// on the service's pool): a fixed pool of candidate targets over a Syn
// workload is checked with 1, 2, 4 and 8 worker threads. Reports
// wall-clock per thread count, the speedup over the sequential run
// (expect >= 2x at 8 threads on hardware with >= 4 cores; a 1-core
// machine shows ~1x), and verifies that the verdicts are identical across
// thread counts.
// Emits BENCH_batch_check_scaling.json
// (bench::JsonReport); RELACC_BENCH_SMALL shrinks the workload for CI.

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "api/accuracy_service.h"
#include "chase/chase_engine.h"
#include "common.h"
#include "datagen/syn_generator.h"
#include "rules/grounding.h"
#include "topk/preference.h"

namespace relacc {
namespace bench {
namespace {

/// The batch `check` at a `threads` budget, paying what a caller without
/// a warm service pays: grounding, the checkpoint chase and the worker
/// engines of a fresh AccuracyService. Empty on a service error.
std::vector<char> CheckOnFreshService(const Specification& spec,
                                      const std::vector<Tuple>& candidates,
                                      int threads) {
  ServiceOptions options;
  options.num_threads = threads;
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(spec, std::move(options));
  if (!service.ok()) return {};
  Result<std::vector<char>> verdicts =
      service.value()->CheckCandidates(candidates);
  if (!verdicts.ok()) return {};
  return std::move(verdicts).value();
}

int Run() {
  const bool small = SmallScale();
  SynConfig config;
  // The paper's low ‖Ie‖ point: 300 tuples.
  config.num_tuples = small ? 100 : 300;
  config.master_size = small ? 50 : 150;
  std::printf("== batch candidate-check scaling "
              "(Syn, |Ie|=%d; expect >=2x at 8 threads on >=4 cores) ==\n",
              config.num_tuples);
  const SynDataset syn = GenerateSyn(config);
  const Specification& spec = syn.spec;
  const EntityEngine entity(spec);
  const ChaseEngine& engine = entity.engine;
  const ChaseOutcome outcome = engine.RunFromCheckpoint();
  if (!outcome.church_rosser) {
    std::printf("unexpected: Syn spec not Church-Rosser\n");
    return 1;
  }

  // Candidate pool: what the top-k algorithms inspect — completions of
  // the deduced target over the active domains of its null attributes.
  const Tuple& te = outcome.target;
  const std::vector<Tuple> candidates = EnumerateCandidateProduct(
      entity.cie, spec.masters, te, /*include_default_values=*/false,
      small ? 128 : 512);
  std::printf("candidates: %zu  (null attrs of template: %d)\n\n",
              candidates.size(), te.NullCount());

  JsonReport report("batch_check_scaling");
  std::printf("%8s %12s %9s %8s\n", "threads", "ms", "speedup", "passed");
  std::vector<char> baseline;
  double base_ms = 0.0;
  bool all_identical = true;
  for (int threads : {1, 2, 4, 8}) {
    std::vector<char> verdicts;
    // Engine construction and the per-worker checkpoint chase are part of
    // the measured cost: that is what a top-k caller pays too.
    const double ms = TimeMs([&] {
      verdicts = CheckOnFreshService(spec, candidates, threads);
    });
    if (baseline.empty()) {
      baseline = verdicts;
      base_ms = ms;
    } else if (verdicts != baseline) {
      all_identical = false;
    }
    std::size_t passed = 0;
    for (char v : verdicts) passed += v != 0;
    const double speedup = ms > 0.0 ? base_ms / ms : 0.0;
    std::printf("%8d %12.1f %8.2fx %8zu\n", threads, ms, speedup, passed);
    JsonReport::Row row;
    row.Set("name", "batch_check_scaling")
        .Set("threads", threads)
        .Set("n", config.num_tuples)
        .Set("candidates", static_cast<int64_t>(candidates.size()))
        .Set("ms", ms)
        .Set("ns_per_check",
             ms * 1e6 / static_cast<double>(candidates.size()))
        .Set("checks_per_s",
             ms > 0.0 ? static_cast<double>(candidates.size()) / (ms / 1e3)
                      : 0.0)
        .Set("speedup_vs_seq", speedup);
    report.Add(std::move(row));
  }
  std::printf("verdicts identical across thread counts: %s\n",
              all_identical ? "yes" : "NO (BUG)");

  report.Write();
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace relacc

int main() { return relacc::bench::Run(); }
