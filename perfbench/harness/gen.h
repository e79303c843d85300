#ifndef RELACC_PERFBENCH_GEN_H_
#define RELACC_PERFBENCH_GEN_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace relacc {
namespace perfbench {

/// Input sizes of the workloads. Full scale is what BENCHMARK.json
/// describes; tiny scale is the smoke test's.
struct GenScale {
  // Paper-shaped Med data behind batch_med and serve_mixed.
  int med_entities = 2700;
  int master_rows = 2400;
  // batch_med: jobs of entities_per_job entities, one flat relation each.
  int batch_jobs = 64;
  int entities_per_job = 12;
  // serve_mixed: batch chunks (entities_per_job each) and the
  // interactive pool, at least interactive_min_tuples tuples per entity.
  int serve_chunks = 32;
  int interactive_pool = 256;
  int interactive_min_tuples = 4;
};

GenScale FullScale();
GenScale TinyScale();

/// Writes spec.json and inputs.json of `workload` into `dir`.
Status Generate(const std::string& workload, uint64_t seed,
                const GenScale& scale, const std::string& dir);

}  // namespace perfbench
}  // namespace relacc

#endif  // RELACC_PERFBENCH_GEN_H_
