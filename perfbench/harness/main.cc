// relacc_perfbench: the harness behind perfbench/run.py.
//
//   relacc_perfbench gen --workload W --seed N [--scale full|tiny] --out DIR
//   relacc_perfbench run --workload W --inputs DIR --out DIR
//                        [--seconds S] [--trace 0|1]
//
// `gen` writes a workload's inputs from a seed; `run` is the measured
// process: it reads only those inputs, runs the workload, and prints one
// JSON line with its end-to-end metrics, per-layer metrics (traced runs),
// op counts, failed checks and run facts. Exit codes: 0 when the run
// finished (its JSON says whether every check passed), 1 on a failure to
// run, 2 on usage errors.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "gen.h"
#include "workloads.h"

namespace relacc {
namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: relacc_perfbench gen --workload W --seed N "
               "[--scale full|tiny] --out DIR\n"
               "       relacc_perfbench run --workload W --inputs DIR --out DIR "
               "[--seconds S] [--trace 0|1]\n");
  return 2;
}

int Gen(const std::map<std::string, std::string>& flags) {
  if (!flags.count("workload") || !flags.count("seed") || !flags.count("out")) {
    return Usage();
  }
  const std::string scale = flags.count("scale") ? flags.at("scale") : "full";
  if (scale != "full" && scale != "tiny") return Usage();
  const Status st = Generate(
      flags.at("workload"), std::strtoull(flags.at("seed").c_str(), nullptr, 10),
      scale == "tiny" ? TinyScale() : FullScale(), flags.at("out"));
  if (!st.ok()) {
    std::fprintf(stderr, "gen: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

int Run(const std::map<std::string, std::string>& flags) {
  if (!flags.count("workload") || !flags.count("inputs") || !flags.count("out")) {
    return Usage();
  }
  RunConfig config;
  config.inputs_dir = flags.at("inputs");
  config.out_dir = flags.at("out");
  if (flags.count("seconds")) config.seconds = std::atof(flags.at("seconds").c_str());
  if (flags.count("trace")) config.trace = flags.at("trace") == "1";
  if (config.seconds <= 0) return Usage();

  const std::string& workload = flags.at("workload");
  RunResult result;
  if (workload == "batch_med") {
    RunBatchMed(config, &result);
  } else if (workload == "serve_mixed") {
    RunServeMixed(config, &result);
  } else {
    return Usage();
  }
  Json errors = Json::Array();
  for (const std::string& e : result.errors) errors.Append(Json::Str(e));
  Json out = Json::Object();
  out.Set("workload", Json::Str(workload));
  out.Set("correct", Json::Bool(result.correct()));
  out.Set("attempted", Json::Int(result.attempted));
  out.Set("failed", Json::Int(result.failed));
  out.Set("errors", std::move(errors));
  out.Set("info", std::move(result.info));
  out.Set("end_to_end", result.end_to_end.ToJson());
  out.Set("layers", result.layers.ToJson());
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace relacc

int main(int argc, char** argv) {
  if (argc < 2) return relacc::perfbench::Usage();
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) return relacc::perfbench::Usage();
    flags[flag.substr(2)] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return relacc::perfbench::Usage();
  const std::string command = argv[1];
  if (command == "gen") return relacc::perfbench::Gen(flags);
  if (command == "run") return relacc::perfbench::Run(flags);
  return relacc::perfbench::Usage();
}
