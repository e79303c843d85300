// Storage-layer scale sweep: the same med-shaped tuple stream held as a
// row Relation vs a dictionary-encoded ColumnarRelation, at 1e5 / 1e6
// (and 1e7 with --full) total tuples. Because peak RSS is monotone over
// a process's lifetime, the two modes cannot share a process: with no
// --mode flag this binary is the driver and re-executes itself once per
// (scale, mode) pair via /proc/self/exe, parsing one machine-readable
// line per child.
//
// Each mode run measures
//   * build_ms    — appending the stream into the store (interning cost
//                   is visible here for the columnar side);
//   * ground_ms   — Instantiate over a fixed sample of entity instances,
//                   including the per-entity FromRelation encode, exactly
//                   as the pipeline pays it (the engine only runs on
//                   encoded entities, so both modes ground and chase the
//                   sample the same way; only the resident store differs);
//   * chase_ms    — ChaseEngine::RunFromInitial over the same sample;
//   * maxrss_kb   — getrusage peak RSS with the full store resident;
// and prints a digest of the chase targets. The driver asserts the
// digests match between modes (byte-identical reports are the
// correctness gate; the RSS/wall ratios are recorded for the CI scale
// lane to threshold) and emits BENCH_datagen_scale.json.
//
// The input stream is one constant generated chunk replayed until the
// target size, so the generator's own footprint does not scale with N
// and the RSS delta is the store representation itself.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common.h"
#include "core/columnar.h"
#include "core/dictionary.h"
#include "datagen/profile_generator.h"
#include "rules/grounding.h"

namespace relacc {
namespace bench {
namespace {

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

/// FNV-1a over the sampled chase targets; the driver compares this
/// across modes, so any representation-dependent divergence in ground or
/// chase behaviour fails the bench.
uint64_t DigestAppend(uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The shared chunk: a narrow med-shaped profile (12 attributes) with a
/// fixed tuples-per-entity so `--tuples N` maps to an exact replay
/// count. Narrow on purpose — the sweep scales rows, not schema width.
EntityDataset MakeChunk() {
  ProfileConfig config = MedConfig(/*seed=*/57);
  config.num_entities = 500;
  config.min_tuples = 10;
  config.max_tuples = 10;
  config.num_currency_attrs = 3;
  config.num_master_attrs = 2;
  config.num_dep_attrs = 2;
  config.num_free_attrs = 3;
  config.master_size = 60;
  return GenerateProfile(config);
}

constexpr int kChaseSample = 200;

/// One in-process measurement; prints the DATAGEN_SCALE line the driver
/// parses. Only this mode's store representation is ever resident.
int RunMode(const std::string& mode, int64_t tuples) {
  const EntityDataset chunk = MakeChunk();
  const bool columnar = mode == "columnar";

  Dictionary dict;
  Relation row_store(chunk.schema);
  ColumnarRelation col_store(chunk.schema, &dict);

  int64_t appended = 0;
  const double build_ms = TimeMs([&] {
    while (appended < tuples) {
      for (const EntityInstance& e : chunk.entities) {
        for (int i = 0; i < e.size() && appended < tuples; ++i) {
          if (columnar) {
            col_store.Add(e.tuple(i));
          } else {
            row_store.Add(e.tuple(i));
          }
          ++appended;
        }
        if (appended >= tuples) break;
      }
    }
  });

  // Ground + chase a fixed entity sample with the full store resident.
  // Best-of-3: the sample is scale-independent by design, so the minimum
  // is the representation's cost and the reps reject scheduler noise.
  constexpr int kReps = 3;
  const int sample =
      std::min<int>(kChaseSample, static_cast<int>(chunk.entities.size()));
  std::vector<GroundProgram> programs(sample);
  std::vector<ColumnarRelation> encoded;
  double ground_ms = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    encoded.clear();
    encoded.reserve(sample);
    const double ms = TimeMs([&] {
      for (int i = 0; i < sample; ++i) {
        encoded.push_back(
            ColumnarRelation::FromRelation(chunk.entities[i], &dict));
        programs[i] = Instantiate(encoded.back(), chunk.masters, chunk.rules);
      }
    });
    ground_ms = rep == 0 ? ms : std::min(ground_ms, ms);
  }

  uint64_t digest = 1469598103934665603ull;  // FNV offset basis
  int church_rosser = 0;
  double chase_ms = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const bool record = rep == 0;  // digest once; targets are deterministic
    const double ms = TimeMs([&] {
      for (int i = 0; i < sample; ++i) {
        const ChaseEngine engine(encoded[i], &programs[i],
                                 chunk.chase_config);
        const ChaseOutcome res = engine.RunFromInitial();
        if (record) {
          church_rosser += res.church_rosser ? 1 : 0;
          digest = DigestAppend(
              digest, res.church_rosser ? res.target.ToString() : "!CR");
        }
      }
    });
    chase_ms = rep == 0 ? ms : std::min(chase_ms, ms);
  }

  const int64_t store_bytes =
      columnar ? static_cast<int64_t>(col_store.ApproxBytes() +
                                      dict.ApproxBytes())
               : -1;
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));
  std::printf(
      "DATAGEN_SCALE {\"mode\": \"%s\", \"tuples\": %lld, "
      "\"build_ms\": %.1f, \"ground_ms\": %.1f, \"chase_ms\": %.1f, "
      "\"maxrss_kb\": %lld, \"store_bytes\": %lld, \"dict_terms\": %lld, "
      "\"entities_chased\": %d, \"church_rosser\": %d, "
      "\"digest\": \"%s\"}\n",
      mode.c_str(), static_cast<long long>(tuples), build_ms, ground_ms,
      chase_ms, static_cast<long long>(PeakRssKb()),
      static_cast<long long>(store_bytes),
      static_cast<long long>(dict.size()), sample, church_rosser,
      digest_hex);
  return 0;
}

/// Runs `self --mode <mode> --tuples <n>` and parses its DATAGEN_SCALE
/// line.
Result<Json> RunChild(const std::string& self, const std::string& mode,
                      int64_t tuples) {
  const std::string cmd = self + " --mode " + mode + " --tuples " +
                          std::to_string(tuples) + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return Status::IoError("popen failed for: " + cmd);
  std::string output;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  const int rc = pclose(pipe);
  if (rc != 0) {
    return Status::Internal("child exited with " + std::to_string(rc) +
                            ": " + output);
  }
  const std::size_t at = output.find("DATAGEN_SCALE ");
  if (at == std::string::npos) {
    return Status::ParseError("no DATAGEN_SCALE line in: " + output);
  }
  const std::size_t end = output.find('\n', at);
  return Json::Parse(output.substr(at + 14, end - (at + 14)));
}

int RunDriver(const std::string& self, bool full) {
  const bool small = SmallScale();
  std::vector<int64_t> scales =
      small ? std::vector<int64_t>{10000, 30000}
            : std::vector<int64_t>{100000, 1000000};
  if (full && !small) scales.push_back(10000000);

  JsonReport json("datagen_scale");
  bool identical = true;
  std::printf("== datagen_scale (row vs columnar store) ==\n");
  std::printf("%9s %9s %10s %10s %10s %12s\n", "tuples", "mode", "build_ms",
              "ground_ms", "chase_ms", "maxrss_kb");
  for (const int64_t tuples : scales) {
    std::string digests[2];
    double rss[2] = {0, 0};
    double wall[2] = {0, 0};
    bool scale_ok = true;
    for (const std::string mode : {"row", "columnar"}) {
      Result<Json> child = RunChild(self, mode, tuples);
      if (!child.ok()) {
        std::printf("%9lld %9s FAILED: %s\n", static_cast<long long>(tuples),
                    mode.c_str(), child.status().ToString().c_str());
        identical = false;
        scale_ok = false;
        continue;
      }
      const Json& r = child.value();
      const int idx = mode == "row" ? 0 : 1;
      digests[idx] = r.GetString("digest").value();
      rss[idx] = static_cast<double>(r.GetInt("maxrss_kb").value());
      wall[idx] =
          r.GetDouble("ground_ms").value() + r.GetDouble("chase_ms").value();
      std::printf("%9lld %9s %10.1f %10.1f %10.1f %12lld\n",
                  static_cast<long long>(tuples), mode.c_str(),
                  r.GetDouble("build_ms").value(),
                  r.GetDouble("ground_ms").value(),
                  r.GetDouble("chase_ms").value(),
                  static_cast<long long>(r.GetInt("maxrss_kb").value()));
      JsonReport::Row out;
      out.Set("mode", mode)
          .Set("tuples", tuples)
          .Set("build_ms", r.GetDouble("build_ms").value())
          .Set("ground_ms", r.GetDouble("ground_ms").value())
          .Set("chase_ms", r.GetDouble("chase_ms").value())
          .Set("maxrss_kb", r.GetInt("maxrss_kb").value())
          .Set("store_bytes", r.GetInt("store_bytes").value())
          .Set("dict_terms", r.GetInt("dict_terms").value())
          .Set("church_rosser", r.GetInt("church_rosser").value())
          .Set("digest", digests[idx]);
      json.Add(std::move(out));
    }
    if (!scale_ok) continue;
    if (digests[0] != digests[1]) {
      std::printf("%9lld DIGEST MISMATCH: row=%s columnar=%s (BUG)\n",
                  static_cast<long long>(tuples), digests[0].c_str(),
                  digests[1].c_str());
      identical = false;
    }
    const double rss_ratio = rss[0] > 0 ? rss[1] / rss[0] : 0.0;
    const double wall_ratio = wall[0] > 0 ? wall[1] / wall[0] : 0.0;
    std::printf("%9lld %9s rss_ratio=%.3f ground+chase_ratio=%.3f\n",
                static_cast<long long>(tuples), "ratio", rss_ratio,
                wall_ratio);
    JsonReport::Row ratio;
    ratio.Set("mode", "ratio")
        .Set("tuples", tuples)
        .Set("rss_ratio", rss_ratio)
        .Set("ground_chase_ratio", wall_ratio)
        .Set("reports_identical",
             static_cast<int64_t>(digests[0] == digests[1] ? 1 : 0));
    json.Add(std::move(ratio));
  }
  json.Write();
  std::printf("chase targets identical across representations: %s\n",
              identical ? "yes" : "NO (BUG)");
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace relacc

int main(int argc, char** argv) {
  std::string mode;
  int64_t tuples = 100000;
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      mode = argv[++i];
    } else if (std::strcmp(argv[i], "--tuples") == 0 && i + 1 < argc) {
      tuples = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else {
      std::printf(
          "usage: %s [--full] | [--mode row|columnar --tuples N]\n",
          argv[0]);
      return 2;
    }
  }
  if (!mode.empty()) {
    if (mode != "row" && mode != "columnar") {
      std::printf("--mode must be row or columnar\n");
      return 2;
    }
    return relacc::bench::RunMode(mode, tuples);
  }
#if defined(__linux__)
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
  const std::string self_path =
      n > 0 ? std::string(self, static_cast<std::size_t>(n))
            : std::string(argv[0]);
#else
  const std::string self_path = argv[0];
#endif
  return relacc::bench::RunDriver(self_path, full);
}
