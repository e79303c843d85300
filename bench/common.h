#ifndef RELACC_BENCH_COMMON_H_
#define RELACC_BENCH_COMMON_H_

// Shared harness for the per-figure benchmark binaries. Each binary prints
// the rows/series of one table or figure of the paper (Sec. 7), named in
// the binary's own header comment.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/version.h"
#include "chase/chase_engine.h"
#include "core/columnar.h"
#include "core/dictionary.h"
#include "datagen/dataset.h"
#include "datagen/profile_generator.h"
#include "io/spec_io.h"
#include "rules/grounding.h"
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

/// A rule list grounded once against one master set: the master block
/// every entity's program over (`masters`, `rules`) shares, so a sweep
/// over many entities pays the form-(2) grounding once, as a service does,
/// and the top-k master tables every entity's preference model and search
/// space share.
struct SharedRules {
  SharedRules(const std::vector<Relation>& masters,
              std::vector<AccuracyRule> rule_list)
      : rules(std::move(rule_list)),
        block(MasterBlock::Build(masters, rules,
                                 std::make_shared<Dictionary>())),
        domains(masters) {}
  /// `ds`'s rules under `filter` over `masters` (usually ds.masters;
  /// substitute a truncated copy for the ‖Im‖ sweeps).
  SharedRules(const EntityDataset& ds, const std::vector<Relation>& masters,
              RuleFormFilter filter)
      : SharedRules(masters, ds.FilteredRules(filter)) {}

  std::vector<AccuracyRule> rules;
  std::shared_ptr<const MasterBlock> block;
  MasterDomains domains;
};

/// One entity encoded, grounded and indexed: the relation, its program
/// and the engine over both. Not movable — the engine points into the
/// relation and the program.
struct EntityEngine {
  /// On `shared`'s rules: encoded into the block's dictionary and
  /// grounded over the block.
  EntityEngine(const SharedRules& shared, const Relation& ie,
               const ChaseConfig& config)
      : cie(ColumnarRelation::FromRelation(ie, shared.block->dict())),
        program(Instantiate(cie, *shared.block, shared.rules)),
        engine(cie, &program, config) {}
  /// On `spec` alone: a private dictionary and master block.
  explicit EntityEngine(const Specification& spec)
      : cie(ColumnarRelation::FromRelation(spec.ie, &own_dict)),
        program(Instantiate(cie, spec.masters, spec.rules)),
        engine(cie, &program, spec.config) {}

  Dictionary own_dict;  ///< unused over a shared block
  ColumnarRelation cie;
  GroundProgram program;
  ChaseEngine engine;
};

/// Chases entity `i` of `ds` under `shared`'s rules and masters.
inline EntityOutcome ChaseEntity(const EntityDataset& ds, int i,
                                 const SharedRules& shared) {
  EntityOutcome out;
  const EntityEngine entity(shared, ds.entities[i], ds.chase_config);
  const ChaseOutcome res = entity.engine.RunFromInitial();
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
                          const MasterDomains& masters,
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
                     const SharedRules& shared, int max_k) {
  const EntityEngine entity(shared, ds.entities[i], ds.chase_config);
  const ChaseEngine& engine = entity.engine;
  // Checkpoint-backed: RunTopK's candidate checks resume from this run.
  const ChaseOutcome res = engine.RunFromCheckpoint();
  if (!res.church_rosser) return 0;
  if (res.target.IsComplete()) {
    return res.target == ds.truths[i] ? 1 : 0;
  }
  const PreferenceModel pref =
      PreferenceModel::FromOccurrences(entity.cie, shared.domains);
  const TopKResult topk =
      RunTopK(algo, engine, shared.domains, res.target, pref, max_k);
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
