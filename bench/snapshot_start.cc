// snapshot_start: cold vs warm service start over a large master.
//
// Cold start is the full bring-up `AccuracyService::Create` performs
// from a specification — intern the masters, ground the rules, chase
// the all-null checkpoint — timed together with the first
// DeduceEntity(). Warm start is the same service restored from a
// `relacc snapshot build` artifact (ServiceOptions::snapshot_path):
// the master columns stay mmap-backed and untouched, the grounded
// program and chased checkpoint are loaded, and the first
// DeduceEntity() is served straight from the stored outcome.
//
// The master relation is padded to 1e6 tuples (20k under
// RELACC_BENCH_SMALL) with rows whose keys match no entity, so the
// outcome is unchanged while cold grounding pays the full scan. The
// bench verifies the two outcomes digest-identically (exit 1 on any
// divergence) and, at full scale, gates warm >= 10x faster than cold.
//
// Row: BENCH_snapshot_start.json — cold_ms, warm_ms, build_ms,
// speedup, master_rows.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/accuracy_service.h"
#include "common.h"
#include "snapshot/memo_cache.h"

namespace relacc {
namespace bench {
namespace {

/// Order-sensitive digest of everything a caller can observe in an
/// outcome; cold and warm must agree bit for bit.
uint64_t OutcomeDigest(const ChaseOutcome& outcome) {
  uint64_t h = snapshot::kFnvOffset;
  const uint8_t cr = outcome.church_rosser ? 1 : 0;
  h = snapshot::FingerprintBytes(h, &cr, 1);
  h = snapshot::FingerprintTuple(h, outcome.target);
  h = snapshot::FingerprintBytes(h, outcome.violation.data(),
                                 outcome.violation.size());
  return h;
}

int Run() {
  const bool small = SmallScale();
  const int64_t master_rows = small ? 20000 : 1000000;

  ProfileConfig config = MedConfig(7);
  config.num_entities = 40;
  config.master_size = 40;
  EntityDataset ds = GenerateProfile(config);
  Specification spec = ds.SpecFor(0);

  // Pad the master to `master_rows`: cloned rows under fresh keys that
  // match no entity, so grounding scans them and deduces past them.
  Relation& master = spec.masters[0];
  const int64_t base_rows = master.size();
  const Schema& master_schema = master.schema();
  for (int64_t i = 0; master.size() < master_rows; ++i) {
    const Tuple& base = master.tuple(static_cast<int>(i % base_rows));
    std::vector<Value> row;
    row.reserve(static_cast<std::size_t>(master_schema.size()));
    for (AttrId a = 0; a < master_schema.size(); ++a) {
      row.push_back(base.at(a));
    }
    row[0] = Value::Str("pad-" + std::to_string(i));
    master.Add(Tuple(std::move(row)));
  }
  std::printf("snapshot_start: master=%lld rows (%s scale)\n",
              static_cast<long long>(master.size()),
              small ? "small" : "full");

  // --- cold: ground + chase from the specification -----------------------
  std::unique_ptr<AccuracyService> cold_service;
  ChaseOutcome cold_outcome;
  Status failure = Status::OK();
  const double cold_ms = TimeMs([&] {
    ServiceOptions options;
    Result<std::unique_ptr<AccuracyService>> created =
        AccuracyService::Create(spec, options);
    if (!created.ok()) {
      failure = created.status();
      return;
    }
    cold_service = std::move(created).value();
    Result<ChaseOutcome> outcome = cold_service->DeduceEntity();
    if (!outcome.ok()) {
      failure = outcome.status();
      return;
    }
    cold_outcome = std::move(outcome).value();
  });
  if (!failure.ok()) {
    std::fprintf(stderr, "error: cold start: %s\n",
                 failure.ToString().c_str());
    return 1;
  }

  // --- build the artifact (reported, not part of either start time) ------
  const char* dir = std::getenv("RELACC_BENCH_JSON_DIR");
  const std::string snap_path = (dir != nullptr && *dir != '\0'
                                     ? std::string(dir) + "/"
                                     : std::string()) +
                                "BENCH_snapshot_start.snap";
  const double build_ms = TimeMs([&] {
    failure = cold_service->WriteSnapshot(snap_path);
  });
  if (!failure.ok()) {
    std::fprintf(stderr, "error: snapshot build: %s\n",
                 failure.ToString().c_str());
    return 1;
  }

  // --- warm: mmap the artifact --------------------------------------------
  ChaseOutcome warm_outcome;
  const double warm_ms = TimeMs([&] {
    ServiceOptions options;
    options.snapshot_path = snap_path;
    Result<std::unique_ptr<AccuracyService>> created =
        AccuracyService::Create(Specification(), options);
    if (!created.ok()) {
      failure = created.status();
      return;
    }
    Result<ChaseOutcome> outcome = created.value()->DeduceEntity();
    if (!outcome.ok()) {
      failure = outcome.status();
      return;
    }
    warm_outcome = std::move(outcome).value();
  });
  std::remove(snap_path.c_str());
  if (!failure.ok()) {
    std::fprintf(stderr, "error: warm start: %s\n",
                 failure.ToString().c_str());
    return 1;
  }

  const uint64_t cold_digest = OutcomeDigest(cold_outcome);
  const uint64_t warm_digest = OutcomeDigest(warm_outcome);
  if (cold_digest != warm_digest) {
    std::fprintf(stderr,
                 "error: warm outcome diverges from cold "
                 "(cold=%016llx warm=%016llx)\n",
                 static_cast<unsigned long long>(cold_digest),
                 static_cast<unsigned long long>(warm_digest));
    return 1;
  }

  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  std::printf(
      "snapshot_start: cold=%.1fms build=%.1fms warm=%.1fms speedup=%.1fx "
      "digest=%016llx\n",
      cold_ms, build_ms, warm_ms, speedup,
      static_cast<unsigned long long>(cold_digest));

  JsonReport json("snapshot_start");
  JsonReport::Row row;
  row.Set("scenario", std::string("cold_vs_warm_start"))
      .Set("master_rows", master.size())
      .Set("cold_ms", cold_ms)
      .Set("build_ms", build_ms)
      .Set("warm_ms", warm_ms)
      .Set("speedup", speedup)
      .Set("outcomes_identical", std::string("yes"));
  json.Add(std::move(row));
  json.Write();

  // The acceptance gate of the subsystem: at full scale a warm start of
  // a million-tuple master must be at least 10x faster than cold. Small
  // scale stays informational — fixed costs dominate tiny masters.
  if (!small && speedup < 10.0) {
    std::fprintf(stderr, "error: warm start speedup %.1fx < 10x gate\n",
                 speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace relacc

int main() { return relacc::bench::Run(); }
