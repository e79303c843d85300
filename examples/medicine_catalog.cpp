// Medicine catalog: an end-to-end Med-style pipeline (DESIGN.md §5).
//
// A medicine distributor holds noisy sale records from many stores plus a
// curated reference list (master data). One AccuracyService holds the
// reference data, rules and master tables; for each medicine (entity) an
// interaction session
//   1. deduces the target tuple automatically (Suggest / IsCR),
//   2. when incomplete, suggests top-k candidates,
//   3. loops in a (simulated) data steward until the record is complete,
// and finally the cleaned catalog is exported as CSV. Every session
// shares the service's master block and master tables instead of
// building its own.

#include <cstdio>
#include <map>

#include "api/accuracy_service.h"
#include "datagen/profile_generator.h"
#include "framework/framework.h"
#include "truth/metrics.h"
#include "util/csv.h"

using namespace relacc;

int main() {
  ProfileConfig config = MedConfig(/*seed=*/2024);
  config.num_entities = 400;  // a catalog slice; full Med runs in bench/
  config.master_size = 356;
  const EntityDataset ds = GenerateProfile(config);
  std::printf("== medicine_catalog: %zu entities, %d-attribute schema, "
              "%d master rows, %zu rules ==\n\n",
              ds.entities.size(), ds.schema.size(), ds.masters[0].size(),
              ds.rules.size());

  int complete_auto = 0;
  std::vector<TargetQuality> quality;
  std::map<int, int> rounds_histogram;
  CsvWriter catalog;
  {
    std::vector<std::string> header;
    for (const Attribute& a : ds.schema.attributes()) header.push_back(a.name);
    catalog.WriteRow(header);
  }

  // One service for the whole catalog: masters, rules and the master
  // tables persist; each medicine gets its own interaction session.
  Specification shared;
  shared.ie = Relation(ds.schema);
  shared.masters = ds.masters;
  shared.rules = ds.rules;
  shared.config = ds.chase_config;
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(std::move(shared));
  if (!service.ok()) {
    std::printf("service: %s\n", service.status().ToString().c_str());
    return 1;
  }

  for (std::size_t i = 0; i < ds.entities.size(); ++i) {
    SimulatedUser steward(ds.truths[i]);
    InteractionOptions opts;
    opts.k = 15;
    Result<std::unique_ptr<InteractionSession>> session =
        service.value()->StartInteraction(ds.entities[i], opts);
    if (!session.ok()) {
      std::printf("entity %zu: %s\n", i, session.status().ToString().c_str());
      continue;
    }
    const FrameworkResult r =
        DriveInteraction(*session.value(), &steward, /*max_rounds=*/32);
    if (!r.church_rosser) {
      std::printf("entity %zu: specification not Church-Rosser — skipped\n", i);
      continue;
    }
    if (r.interaction_rounds == 0 && r.found_complete_target) ++complete_auto;
    ++rounds_histogram[r.interaction_rounds];
    quality.push_back(CompareTarget(r.target, ds.truths[i]));
    std::vector<std::string> row;
    for (const Value& v : r.target.values()) row.push_back(v.ToString());
    catalog.WriteRow(row);
  }

  const TargetQuality avg = AverageQuality(quality);
  std::printf("automatically complete targets : %.1f%%\n",
              100.0 * complete_auto / ds.entities.size());
  std::printf("final attribute correctness    : %.1f%%\n",
              100.0 * avg.attrs_correct);
  std::printf("interaction rounds histogram   :");
  for (const auto& [rounds, count] : rounds_histogram) {
    std::printf("  %d rounds x%d", rounds, count);
  }
  std::printf("\n");

  const std::string out_path = "/tmp/relacc_medicine_catalog.csv";
  const Status st = catalog.Flush(out_path);
  std::printf("cleaned catalog written to %s (%s)\n", out_path.c_str(),
              st.ToString().c_str());
  return st.ok() ? 0 : 1;
}
