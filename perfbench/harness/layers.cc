// End-to-end and per-layer metric assembly shared by the workloads.

#include <string>
#include <vector>

#include "workloads.h"

namespace relacc {
namespace perfbench {
namespace {

double MeanMs(const Tracer& tracer, const std::string& name) {
  const int64_t n = tracer.Count(name);
  return n > 0 ? tracer.TotalMs(name) / static_cast<double>(n) : 0.0;
}

/// Cost of one recorded span (Begin + End), measured on a throwaway tracer.
double SpanCostNs() {
  Tracer probe(true);
  constexpr int kSpans = 20000;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSpans; ++i) Span span(&probe, "probe", i);
  return MsBetween(start, Clock::now()) * 1e6 / kSpans;
}

}  // namespace

const std::vector<const char*>& ServeMethods() {
  static const std::vector<const char*> methods = {
      "pipeline.start",  "pipeline.submit",  "pipeline.finish",
      "interact.start",  "interact.suggest", "interact.revise",
      "interact.accept", "session.close"};
  return methods;
}

void SetEndToEnd(const std::vector<double>& setup_s, double entities_per_s,
                 const Latency& latency, double peak_rss_mb,
                 RunResult* result) {
  Metrics& m = result->end_to_end;
  m.Set("setup_s", Median(setup_s), "s");
  m.Set("entities_per_s", entities_per_s, "entities/s");
  m.Set("latency_p50_ms", latency.p50_ms, "ms");
  m.Set("latency_tail_ms", latency.tail_ms, "ms");
  m.Set("peak_rss_mb", peak_rss_mb, "MiB");
  result->info.Set("latency_samples", Json::Int(latency.samples));
  result->info.Set("setups", Json::Int(static_cast<int64_t>(setup_s.size())));
  if (!latency.tail_ok) {
    result->Fail("latency tail: " + std::to_string(latency.samples) +
                 " samples leave fewer than ten beyond p95");
  }
  result->layers.Set("latency.samples", static_cast<double>(latency.samples),
                     "count");
}

void SetLayers(const Tracer& tracer, const LayerCounts& c,
               double service_ms_per_entity, int64_t timed_spans,
               double timed_ms, RunResult* result) {
  Metrics& m = result->layers;
  m.Set("io.parse_ms", MeanMs(tracer, "io.parse"), "ms");
  m.Set("er.resolve_ms", tracer.TotalMs("er.resolve"), "ms");
  m.Set("er.pairs_compared", 0, "count");
  m.Set("er.entities", 0, "count");
  m.Set("rules.ground_ms", tracer.TotalMs("rules.ground"), "ms");
  m.Set("rules.ground_steps", static_cast<double>(c.ground_steps), "count");
  m.Set("chase.index_ms", tracer.TotalMs("chase.index"), "ms");
  m.Set("chase.checkpoint_ms", tracer.TotalMs("chase.checkpoint"), "ms");
  m.Set("chase.steps_applied", static_cast<double>(c.steps_applied), "count");
  m.Set("chase.pairs_derived", static_cast<double>(c.pairs_derived), "count");
  m.Set("chase.check_ms", tracer.TotalMs("chase.check"), "ms");
  m.Set("chase.checks", static_cast<double>(c.checks), "count");
  m.Set("chase.resume_ms", tracer.TotalMs("chase.resume"), "ms");
  m.Set("chase.resumes", static_cast<double>(c.resumes), "count");
  m.Set("topk.preference_ms", tracer.TotalMs("topk.preference"), "ms");
  m.Set("topk.search_ms", tracer.TotalMs("topk.search"), "ms");
  m.Set("topk.heap_pops", static_cast<double>(c.heap_pops), "count");
  m.Set("topk.queue_pops", static_cast<double>(c.queue_pops), "count");
  m.Set("topk.accept_ratio",
        c.topk_checks > 0 ? static_cast<double>(c.topk_targets) /
                                static_cast<double>(c.topk_checks)
                          : 0.0,
        "ratio");
  m.Set("api.create_ms", MeanMs(tracer, "api.create"), "ms");
  m.Set("api.submit_ms", MeanMs(tracer, "api.submit"), "ms");
  m.Set("api.finish_ms", MeanMs(tracer, "api.finish"), "ms");
  m.Set("api.windows", 0, "count");
  m.Set("api.peak_in_flight_engines", 0, "count");
  double layer_ms = 0.0;
  for (const char* layer :
       {"rules.ground", "chase.index", "chase.checkpoint", "chase.resume",
        "topk.preference", "topk.search", "chase.check"}) {
    layer_ms += tracer.TotalMs(layer);
  }
  m.Set("api.unattributed_ms",
        c.entities > 0 ? service_ms_per_entity -
                             layer_ms / static_cast<double>(c.entities)
                       : 0.0,
        "ms");
  m.Set("snapshot.write_ms", MeanMs(tracer, "snapshot.write"), "ms");
  m.Set("snapshot.open_ms", MeanMs(tracer, "snapshot.open"), "ms");
  m.Set("snapshot.bytes", 0, "B");
  m.Set("serve.overhead_ms", 0, "ms");
  m.Set("serve.request_bytes", 0, "B");
  m.Set("serve.response_bytes", 0, "B");
  for (const char* counter : {"serve.executed_interactive",
                              "serve.executed_batch", "serve.rejected",
                              "serve.shed"}) {
    m.Set(counter, 0, "count");
  }
  for (const char* method : ServeMethods()) {
    const std::string base = std::string("serve.") + method;
    m.Set(base + ".p50_ms", 0, "ms");
    m.Set(base + ".tail_ms", 0, "ms");
    m.Set(base + ".n", 0, "count");
  }
  m.Set("json.report_ms", MeanMs(tracer, "json.report"), "ms");
  m.Set("json.report_bytes", 0, "B");
  m.Set("trace.spans", static_cast<double>(tracer.size()), "count");
  m.Set("trace.overhead_pct",
        timed_ms > 0.0 ? 100.0 * static_cast<double>(timed_spans) *
                             SpanCostNs() / (timed_ms * 1e6)
                       : 0.0,
        "%");
}

}  // namespace perfbench
}  // namespace relacc
