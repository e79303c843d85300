#ifndef RELACC_PERFBENCH_WORKLOADS_H_
#define RELACC_PERFBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"
#include "replay.h"

namespace relacc {
namespace perfbench {

/// The workloads (see README.md). Each reads the inputs `gen`
/// wrote, sets up kSetups times, runs its closed loop for
/// `config.seconds`, checks every output, and fills `result`.
void RunBatchMed(const RunConfig& config, RunResult* result);
void RunServeMixed(const RunConfig& config, RunResult* result);

/// The five end-to-end metrics of every workload, plus the latency
/// sample count (result->info and the layer metric latency.samples).
void SetEndToEnd(const std::vector<double>& setup_s, double entities_per_s,
                 const Latency& latency, double peak_rss_mb, RunResult* result);

/// Every per-layer metric, zero where the workload bypasses the layer,
/// from the replay's spans and counts. `service_ms_per_entity` is the
/// service-side time per entity the replay is compared against.
void SetLayers(const Tracer& tracer, const LayerCounts& counts,
               double service_ms_per_entity, int64_t timed_spans,
               double timed_ms, RunResult* result);

/// The serve wire methods, in the order their metrics are reported.
const std::vector<const char*>& ServeMethods();

}  // namespace perfbench
}  // namespace relacc

#endif  // RELACC_PERFBENCH_WORKLOADS_H_
