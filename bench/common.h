#ifndef RELACC_BENCH_COMMON_H_
#define RELACC_BENCH_COMMON_H_

// Shared harness for the per-figure benchmark binaries. Each binary prints
// the rows/series of one table or figure of the paper (Sec. 7), named in
// the binary's own header comment.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "api/version.h"
#include "chase/chase_engine.h"
#include "datagen/dataset.h"
#include "datagen/profile_generator.h"
#include "io/spec_io.h"
#include "topk/rank_join_ct.h"
#include "topk/topk_ct.h"
#include "truth/metrics.h"
#include "util/json.h"
#include "util/status.h"

namespace relacc {
namespace bench {

/// Wall-clock milliseconds of `fn`.
inline double TimeMs(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// True when RELACC_BENCH_SMALL is set (non-empty, not "0"): benches shrink
/// their workloads to smoke-test scale so CI can run them in seconds.
inline bool SmallScale() {
  const char* v = std::getenv("RELACC_BENCH_SMALL");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

/// Machine-readable results: each Row becomes one JSON object in a
/// top-level array written to BENCH_<bench>.json (under
/// RELACC_BENCH_JSON_DIR when set, else the working directory). CI
/// smoke-runs the benches and uploads these as artifacts, so the perf
/// trajectory (ns/check, checks/s, speedups) is recorded per commit.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : bench_name_(std::move(bench_name)), rows_(Json::Array()) {}

  class Row {
   public:
    Row() : json_(Json::Object()) {}
    Row& Set(const std::string& key, const std::string& v) {
      json_.Set(key, Json::Str(v));
      return *this;
    }
    Row& Set(const std::string& key, double v) {
      json_.Set(key, Json::Real(v));
      return *this;
    }
    Row& Set(const std::string& key, int64_t v) {
      json_.Set(key, Json::Int(v));
      return *this;
    }
    Row& Set(const std::string& key, int v) {
      return Set(key, static_cast<int64_t>(v));
    }
    Json json_;
  };

  void Add(Row row) { rows_.Append(std::move(row.json_)); }

  /// Writes BENCH_<bench_name>.json; returns false (and warns on stdout)
  /// on I/O failure so benches can keep their exit code meaningful.
  bool Write() {
    Json doc = Json::Object();
    doc.Set("bench", Json::Str(bench_name_));
    doc.Set("version", Json::Str(kRelaccVersion));
    doc.Set("small_scale", Json::Bool(SmallScale()));
    doc.Set("rows", std::move(rows_));
    rows_ = Json::Array();
    const char* dir = std::getenv("RELACC_BENCH_JSON_DIR");
    const std::string path = (dir != nullptr && *dir != '\0'
                                  ? std::string(dir) + "/"
                                  : std::string()) +
                             "BENCH_" + bench_name_ + ".json";
    const Status st = WriteFile(path, doc.Dump(2) + "\n");
    if (!st.ok()) {
      std::printf("warning: could not write %s: %s\n", path.c_str(),
                  st.ToString().c_str());
      return false;
    }
    std::printf("bench json: %s\n", path.c_str());
    return true;
  }

 private:
  std::string bench_name_;
  Json rows_;
};

/// Per-entity chase result against ground truth.
struct EntityOutcome {
  bool church_rosser = false;
  bool complete = false;
  bool complete_correct = false;
  TargetQuality quality;
  Tuple target;
};

/// Chases entity `i` of `ds` under `filter` over `masters` (usually
/// ds.masters; substitute a truncated copy for the ‖Im‖ sweeps).
inline EntityOutcome ChaseEntity(const EntityDataset& ds, int i,
                                 const std::vector<Relation>& masters,
                                 RuleFormFilter filter) {
  EntityOutcome out;
  const std::vector<AccuracyRule> rules = ds.FilteredRules(filter);
  const GroundProgram prog = Instantiate(ds.entities[i], masters, rules);
  ChaseEngine engine(ds.entities[i], &prog, ds.chase_config);
  const ChaseOutcome res = engine.RunFromInitial();
  out.church_rosser = res.church_rosser;
  if (!res.church_rosser) return out;
  out.target = res.target;
  out.complete = res.target.IsComplete();
  out.quality = CompareTarget(res.target, ds.truths[i]);
  out.complete_correct = out.quality.complete_and_correct > 0.5;
  return out;
}

enum class TopKAlgo { kTopKCT, kTopKCTh, kRankJoinCT };

inline const char* AlgoName(TopKAlgo algo) {
  switch (algo) {
    case TopKAlgo::kTopKCT:
      return "TopKCT";
    case TopKAlgo::kTopKCTh:
      return "TopKCTh";
    case TopKAlgo::kRankJoinCT:
      return "RankJoinCT";
  }
  return "?";
}

inline TopKResult RunTopK(TopKAlgo algo, const ChaseEngine& engine,
                          const std::vector<Relation>& masters,
                          const Tuple& te, const PreferenceModel& pref, int k,
                          const TopKOptions& opts = {}) {
  switch (algo) {
    case TopKAlgo::kTopKCT:
      return TopKCT(engine, masters, te, pref, k, opts);
    case TopKAlgo::kTopKCTh:
      return TopKCTh(engine, masters, te, pref, k, opts);
    case TopKAlgo::kRankJoinCT:
      return RankJoinCT(engine, masters, te, pref, k, opts);
  }
  return {};
}

/// For one entity: the 1-based rank at which the true target appears among
/// the top-`max_k` candidates of `algo`, or 0 if absent. A complete deduced
/// target counts as rank 1 when it equals the truth. Running once at max_k
/// yields the whole Fig. 6(b)/(f) k-sweep.
inline int TruthRank(TopKAlgo algo, const EntityDataset& ds, int i,
                     const std::vector<Relation>& masters,
                     RuleFormFilter filter, int max_k) {
  const std::vector<AccuracyRule> rules = ds.FilteredRules(filter);
  const GroundProgram prog = Instantiate(ds.entities[i], masters, rules);
  ChaseEngine engine(ds.entities[i], &prog, ds.chase_config);
  // Checkpoint-backed: RunTopK's candidate checks resume from this run.
  const ChaseOutcome res = engine.RunFromCheckpoint();
  if (!res.church_rosser) return 0;
  if (res.target.IsComplete()) {
    return res.target == ds.truths[i] ? 1 : 0;
  }
  const PreferenceModel pref =
      PreferenceModel::FromOccurrences(ds.entities[i], masters);
  const TopKResult topk =
      RunTopK(algo, engine, masters, res.target, pref, max_k);
  for (std::size_t r = 0; r < topk.targets.size(); ++r) {
    if (topk.targets[r] == ds.truths[i]) return static_cast<int>(r) + 1;
  }
  return 0;
}

/// Percent formatting helper.
inline std::string Pct(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%5.1f%%", 100.0 * x);
  return buf;
}

}  // namespace bench
}  // namespace relacc

#endif  // RELACC_BENCH_COMMON_H_
