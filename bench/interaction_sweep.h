#ifndef RELACC_BENCH_INTERACTION_SWEEP_H_
#define RELACC_BENCH_INTERACTION_SWEEP_H_

// Shared driver for the user-interaction figures 6(d)/(h): the Exp-3
// protocol — while the top-k candidates miss the true target, reveal the
// true value of one null attribute and re-run; report the cumulative % of
// targets found after h rounds.

#include <map>
#include <memory>

#include "api/accuracy_service.h"
#include "common.h"
#include "framework/framework.h"

namespace relacc {
namespace bench {

inline void RunInteractionSweep(const EntityDataset& ds, int sample,
                                int max_h) {
  const int n = std::min<int>(sample, static_cast<int>(ds.entities.size()));
  std::map<int, int> found_at;  // rounds -> count
  int never = 0;
  for (int i = 0; i < n; ++i) {
    Specification spec = ds.SpecFor(i);
    SimulatedUser user(ds.truths[i]);
    // One single-threaded service per entity, its own instance the entity.
    ServiceOptions service_options;
    service_options.num_threads = 1;
    Result<std::unique_ptr<AccuracyService>> service =
        AccuracyService::Create(std::move(spec), std::move(service_options));
    // No preference: the session weighs occurrences over the entity and
    // the service's master tables.
    InteractionOptions options;
    options.k = 15;
    FrameworkResult r;  // a service error counts as never found
    if (service.ok()) {
      Result<std::unique_ptr<InteractionSession>> session =
          service.value()->StartInteraction(std::move(options));
      if (session.ok()) r = DriveInteraction(*session.value(), &user);
    }
    if (r.found_complete_target && r.target == ds.truths[i]) {
      ++found_at[r.interaction_rounds];
    } else {
      ++never;
    }
  }
  int cumulative = 0;
  std::printf("rounds h :");
  for (int h = 0; h <= max_h; ++h) std::printf("  h<=%-3d", h);
  std::printf("\n%% found  :");
  for (int h = 0; h <= max_h; ++h) {
    auto it = found_at.find(h);
    if (it != found_at.end()) cumulative += it->second;
    std::printf("  %s", Pct(static_cast<double>(cumulative) / n).c_str());
  }
  int max_rounds = 0;
  for (const auto& [h, c] : found_at) max_rounds = std::max(max_rounds, h);
  std::printf("\nmax rounds needed: %d; true target never reached: %s\n",
              max_rounds, Pct(static_cast<double>(never) / n).c_str());
}

}  // namespace bench
}  // namespace relacc

#endif  // RELACC_BENCH_INTERACTION_SWEEP_H_
