#ifndef RELACC_PERFBENCH_COMMON_H_
#define RELACC_PERFBENCH_COMMON_H_

// Shared pieces of the benchmark harness: clocks and percentiles, the
// span recorder behind the traced run, the metric sink, and the input
// files `relacc_perfbench gen` writes and the workloads read back.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/relation.h"
#include "io/spec_io.h"
#include "topk/topk_ct.h"
#include "util/json.h"
#include "util/status.h"

namespace relacc {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Median with the two middle samples averaged; 0 for no samples.
double Median(std::vector<double> samples);

/// One latency metric over one operation type: the median and the tail,
/// p95. The tail percentile is fixed rather than the highest one with ten
/// samples beyond it, which would move with the sample count and so with
/// the speed of the code under test. `tail_ok` is false when fewer than
/// ten samples lie beyond p95.
struct Latency {
  int64_t samples = 0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  bool tail_ok = false;
};
Latency SummarizeLatency(std::vector<double> samples_ms);

/// Peak resident set of this process (VmHWM), in MiB, since the start or
/// the last ResetPeakRss.
double PeakRssMb();

/// Restarts the peak-RSS count at the current resident set, so the peak
/// excludes the benchmark's own input decoding (Linux clear_refs).
void ResetPeakRss();

/// In-memory span recorder of the traced run. A span is one call into a
/// public function of the library, recorded from the benchmark's side:
/// name, start and end (ns since the tracer was created), the span that
/// was open on the same thread when it began, and the request it serves.
/// Disabled tracers record nothing. Thread-safe.
class Tracer {
 public:
  struct Record {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    int64_t request = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span; returns its id, or -1 when disabled.
  int32_t Begin(const char* name, int64_t request);
  void End(int32_t id);

  /// Sum of the durations (ms) and number of the closed spans `name`.
  double TotalMs(const std::string& name) const;
  int64_t Count(const std::string& name) const;
  int64_t size() const;

  /// Writes every span as one JSON document.
  Status Write(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// RAII span; a no-op on a disabled (or null) tracer.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int64_t request = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, request) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Named metrics with units, in insertion order of first Set.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  Json ToJson() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// What one workload run reports back to main.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks, first few
  Metrics end_to_end;
  Metrics layers;
  Json info = Json::Object();  ///< sample counts, digests, sizes

  /// Counts one failed op and keeps its reason (the first 20).
  void Fail(const std::string& what);
  bool correct() const { return failed == 0 && errors.empty(); }
};

/// Options of `relacc_perfbench run`.
struct RunConfig {
  std::string inputs_dir;  ///< written by `relacc_perfbench gen`
  std::string out_dir;     ///< working files (snapshot, trace)
  double seconds = 10.0;   ///< timed phase length
  bool trace = false;
};

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// The thread budget of every service the benchmark creates.
inline constexpr int kThreadBudget = 2;

/// Queue pops one TopKCT ranking may spend (TopKOptions::max_expansions)
/// in the workloads that can set it. A few entities of every seed need
/// hundreds or thousands of pops; the budget bounds an op's cost, so a
/// run measures the layers rather than how many such entities its seed
/// happened to draw.
inline constexpr int64_t kSearchBudget = 64;

inline TopKOptions SearchOptions() {
  TopKOptions topk;
  topk.max_expansions = kSearchBudget;
  return topk;
}

/// Reads and parses one spec document, timing it as io.parse.
Result<SpecDocument> LoadSpec(const std::string& path, Tracer* tracer);

/// Reads and parses a JSON file.
Result<Json> LoadJson(const std::string& path);

/// Tuples as arrays of cells (the spec-document convention), and back.
Json TuplesToJson(const std::vector<Tuple>& tuples);
Result<std::vector<Tuple>> TuplesFromJson(const Json& array,
                                          const Schema& schema);

/// The Specification a service is created from: the document's masters,
/// rules and chase config over `ie`.
Specification ServiceSpec(const Specification& doc_spec, Relation ie);

/// FNV-1a over a string, as 16 hex digits.
std::string HexDigest(const std::string& text);

}  // namespace perfbench
}  // namespace relacc

#endif  // RELACC_PERFBENCH_COMMON_H_
