// `relacc_perfbench gen`: writes one workload's inputs from a seed.
//
// Every workload draws paper-shaped Med data from the library's own
// generator (datagen/profile_generator.h, MedConfig: ~58 rules, 30
// attributes, a 2400-row master at full scale) and selects entities by
// tuple count alone — batch jobs against a fixed size list, the
// interactive pool by a minimum size in generation order — so that two
// seeds give different data with the same size profile. Nothing
// here depends on what the engine deduces for an entity.
//
// Output (in --out): spec.json, the spec document the program parses
// during set-up, and inputs.json, the client-side inputs (entities,
// ground truths, job boundaries).

#include "gen.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "datagen/profile_generator.h"
#include "serve/wire.h"

namespace relacc {
namespace perfbench {
namespace {

/// Sizes (tuples per entity) of one batch job: the mid-quantiles of the
/// Med size distribution, 1 + floor(Exp(mean 3)), so every job (and every
/// serve_mixed chunk) has the same size profile as the whole data set.
std::vector<int> MedSizeProfile(int entities) {
  std::vector<int> sizes;
  for (int i = 0; i < entities; ++i) {
    const double q = (i + 0.5) / entities;
    sizes.push_back(1 + static_cast<int>(-3.0 * std::log(1.0 - q)));
  }
  return sizes;
}

/// The first `count` unused entities with at least `min_tuples` tuples,
/// in generation order (sizes as the generator draws them).
std::vector<int> SelectAtLeast(const EntityDataset& ds, int count,
                               int min_tuples, std::vector<char>* used) {
  std::vector<int> picked;
  for (std::size_t i = 0;
       i < ds.entities.size() && static_cast<int>(picked.size()) < count; ++i) {
    if (!(*used)[i] && ds.entities[i].size() >= min_tuples) {
      (*used)[i] = 1;
      picked.push_back(static_cast<int>(i));
    }
  }
  return picked;
}

/// Picks, for each wanted size, the first unused entity of that size
/// (nearest size when none is left), marking it used. Input property
/// only: tuple counts.
std::vector<int> SelectBySize(const EntityDataset& ds,
                              const std::vector<int>& sizes,
                              std::vector<char>* used) {
  std::map<int, std::vector<int>> by_size;  // size -> entity indices
  for (int i = static_cast<int>(ds.entities.size()) - 1; i >= 0; --i) {
    if (!(*used)[static_cast<std::size_t>(i)]) {
      by_size[ds.entities[static_cast<std::size_t>(i)].size()].push_back(i);
    }
  }
  std::vector<int> picked;
  for (int want : sizes) {
    auto best = by_size.end();
    for (auto it = by_size.begin(); it != by_size.end(); ++it) {
      if (it->second.empty()) continue;
      if (best == by_size.end() ||
          std::abs(it->first - want) < std::abs(best->first - want)) {
        best = it;
      }
    }
    if (best == by_size.end()) break;  // data set exhausted
    picked.push_back(best->second.back());
    best->second.pop_back();
    (*used)[static_cast<std::size_t>(picked.back())] = 1;
  }
  return picked;
}

std::vector<EntityInstance> Pick(const EntityDataset& ds,
                                 const std::vector<int>& idx) {
  std::vector<EntityInstance> out;
  for (int i : idx) out.push_back(ds.entities[static_cast<std::size_t>(i)]);
  return out;
}

std::vector<Tuple> Truths(const EntityDataset& ds, const std::vector<int>& idx) {
  std::vector<Tuple> out;
  for (int i : idx) out.push_back(ds.truths[static_cast<std::size_t>(i)]);
  return out;
}

Status WriteSpec(const EntityDataset& ds, Relation ie, const std::string& dir) {
  SpecDocument doc;
  doc.spec.ie = std::move(ie);
  doc.spec.masters = ds.masters;
  doc.spec.rules = ds.rules;
  doc.spec.config = ds.chase_config;
  doc.entity_name = "R";
  for (std::size_t m = 0; m < ds.masters.size(); ++m) {
    doc.master_names.push_back("m" + std::to_string(m));
  }
  return WriteFile(dir + "/spec.json", SpecToJson(doc).Dump() + "\n");
}

Relation Flatten(const Schema& schema, const std::vector<EntityInstance>& es) {
  Relation flat(schema);
  for (const EntityInstance& e : es) {
    for (const Tuple& t : e.tuples()) flat.Add(t);
  }
  return flat;
}

ProfileConfig MedData(uint64_t seed, const GenScale& scale) {
  ProfileConfig config = MedConfig(seed);
  config.num_entities = scale.med_entities;
  config.master_size = scale.master_rows;
  return config;
}

Status GenBatchMed(uint64_t seed, const GenScale& scale, const std::string& dir) {
  const EntityDataset ds = GenerateProfile(MedData(seed, scale));
  std::vector<char> used(ds.entities.size(), 0);
  const std::vector<int> sizes = MedSizeProfile(scale.entities_per_job);
  std::vector<EntityInstance> all;
  std::vector<int> all_idx;
  Json jobs = Json::Array();
  int64_t rows = 0;
  for (int j = 0; j < scale.batch_jobs; ++j) {
    Json range = Json::Array();
    range.Append(Json::Int(rows));
    for (int i : SelectBySize(ds, sizes, &used)) {
      all.push_back(ds.entities[static_cast<std::size_t>(i)]);
      all_idx.push_back(i);
      rows += all.back().size();
    }
    range.Append(Json::Int(rows));
    jobs.Append(std::move(range));
  }
  RELACC_RETURN_NOT_OK(WriteSpec(ds, Flatten(ds.schema, all), dir));
  Json inputs = Json::Object();
  inputs.Set("workload", Json::Str("batch_med"));
  inputs.Set("jobs", std::move(jobs));
  inputs.Set("truths", TuplesToJson(Truths(ds, all_idx)));
  return WriteFile(dir + "/inputs.json", inputs.Dump() + "\n");
}

Status GenServeMixed(uint64_t seed, const GenScale& scale,
                     const std::string& dir) {
  const EntityDataset ds = GenerateProfile(MedData(seed, scale));
  std::vector<char> used(ds.entities.size(), 0);
  const std::vector<int> own = SelectBySize(ds, {1}, &used);
  // Interactive entities first, so the batch stream cannot take them:
  // at least interactive_min_tuples tuples each.
  const std::vector<int> interactive = SelectAtLeast(
      ds, scale.interactive_pool, scale.interactive_min_tuples, &used);
  const std::vector<int> sizes = MedSizeProfile(scale.entities_per_job);
  Json batch = Json::Array();
  for (int c = 0; c < scale.serve_chunks; ++c) {
    batch.Append(serve::EntitiesToJson(Pick(ds, SelectBySize(ds, sizes, &used)),
                                       ds.schema));
  }
  RELACC_RETURN_NOT_OK(WriteSpec(ds, Flatten(ds.schema, Pick(ds, own)), dir));
  Json inputs = Json::Object();
  inputs.Set("workload", Json::Str("serve_mixed"));
  inputs.Set("batch", std::move(batch));
  inputs.Set("interactive", serve::EntitiesToJson(Pick(ds, interactive), ds.schema));
  inputs.Set("truths", TuplesToJson(Truths(ds, interactive)));
  return WriteFile(dir + "/inputs.json", inputs.Dump() + "\n");
}

}  // namespace

GenScale FullScale() { return GenScale{}; }

GenScale TinyScale() {
  GenScale s;
  s.med_entities = 160;
  s.master_rows = 140;
  s.batch_jobs = 3;
  s.entities_per_job = 6;
  s.serve_chunks = 3;
  s.interactive_pool = 8;
  s.interactive_min_tuples = 4;
  return s;
}

Status Generate(const std::string& workload, uint64_t seed,
                const GenScale& scale, const std::string& dir) {
  if (workload == "batch_med") return GenBatchMed(seed, scale, dir);
  if (workload == "serve_mixed") return GenServeMixed(seed, scale, dir);
  return Status::InvalidArgument("unknown workload '" + workload + "'");
}

}  // namespace perfbench
}  // namespace relacc
