#include "pipeline/pipeline.h"

#include <algorithm>
#include <thread>

namespace relacc {

PipelineThreadPlan ComputePipelineThreadPlan(int budget,
                                             int64_t num_entities) {
  if (budget <= 0) {
    budget = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  PipelineThreadPlan plan;
  plan.chase_threads = static_cast<int>(std::clamp<int64_t>(
      num_entities, 1, static_cast<int64_t>(budget)));
  plan.completion_workers = plan.chase_threads;
  plan.check_threads = std::max(1, budget / plan.completion_workers);
  return plan;
}

}  // namespace relacc
