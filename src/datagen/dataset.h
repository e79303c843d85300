#ifndef RELACC_DATAGEN_DATASET_H_
#define RELACC_DATAGEN_DATASET_H_

#include <string>
#include <vector>

#include "chase/specification.h"
#include "core/relation.h"
#include "rules/accuracy_rule.h"

namespace relacc {

/// Σ ablation used by Exps 1-2 (Figs 6(b), 6(e), 6(f)).
enum class RuleFormFilter { kBoth, kForm1Only, kForm2Only };

/// A generated benchmark dataset: many entity instances over one schema,
/// parallel ground-truth tuples, shared master relations, and a shared AR
/// set. This is the substitute for the paper's proprietary Med / crawled
/// CFP data (Sec. 7; see datagen/profile_generator.h): the chase only
/// ever sees tuples + orders + rules, so the generators control exactly
/// the coverage structure the experiments measure.
struct EntityDataset {
  std::string name;
  Schema schema;
  std::vector<EntityInstance> entities;
  std::vector<Tuple> truths;          ///< ground-truth target per entity
  std::vector<Relation> masters;
  std::vector<AccuracyRule> rules;
  ChaseConfig chase_config;

  /// Rules surviving `filter`.
  std::vector<AccuracyRule> FilteredRules(RuleFormFilter filter) const;

  /// Master list truncated to `size` tuples of masters[0] (Figs 6(c)/(g):
  /// varying ‖Im‖). Other master relations (CFD patterns) are kept.
  std::vector<Relation> TruncatedMasters(int size) const;

  /// Owning specification for entity `i` (copies; prefer the explicit
  /// Instantiate/ChaseEngine route plus shared `masters` in hot loops).
  Specification SpecFor(int i, RuleFormFilter filter = RuleFormFilter::kBoth)
      const;
};

}  // namespace relacc

#endif  // RELACC_DATAGEN_DATASET_H_
