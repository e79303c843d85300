#ifndef RELACC_TOPK_PREFERENCE_H_
#define RELACC_TOPK_PREFERENCE_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/columnar.h"
#include "core/relation.h"
#include "core/schema.h"
#include "core/value.h"

namespace relacc {

/// The preference model (k, p(·)) of Sec. 3: a monotone scoring function
/// p(Te) = Σ_{t∈Te} Σ_{Ai} w_Ai(t[Ai]) defined by per-attribute value
/// weights. Weights can be
///  * occurrence counts in the Ie column (the paper's default, used by
///    Exps 1-4 and the `voting`-preference row of Table 4), or
///  * probabilities produced by a truth-discovery algorithm such as
///    copyCEF (Table 4 last row), or
///  * user-supplied confidences.
/// Values outside every table share `default_weight` (the paper: for an
/// infinite domain, w is constant outside Ie and Im).
class PreferenceModel {
 public:
  PreferenceModel() = default;
  explicit PreferenceModel(int num_attrs) : weights_(num_attrs) {}

  /// Occurrence-count weights over the Ie columns; values that also appear
  /// in a master column of the same attribute name get +master_bonus once
  /// per master relation that holds them (master data is curated, so its
  /// values deserve at least a tie-break).
  static PreferenceModel FromOccurrences(const Relation& ie,
                                         const std::vector<Relation>& masters,
                                         double master_bonus = 1.0);

  /// Weight w_Ai(v).
  double Weight(AttrId a, const Value& v) const;

  /// Overrides / defines one weight.
  void SetWeight(AttrId a, const Value& v, double w);

  void set_default_weight(double w) { default_weight_ = w; }
  double default_weight() const { return default_weight_; }

  /// p({t}) = Σ_Ai w_Ai(t[Ai]). Null attributes contribute 0.
  double Score(const Tuple& t) const;

  int num_attrs() const { return static_cast<int>(weights_.size()); }

 private:
  std::vector<std::unordered_map<Value, double, ValueHash>> weights_;
  double default_weight_ = 0.0;
};

/// The distinct non-null values of `im`'s column `name` in row order (none
/// if absent): the master half of ActiveDomain and FromOccurrences.
std::vector<Value> MasterColumnDomain(const Relation& im,
                                      const std::string& name);

/// The active domain of attribute `a` (Sec. 6.1), in the order top-k ties
/// break on: the Ie column's values by first appearance (decoded to the
/// column type), then same-named master values not yet in it, in
/// master/row order, then — for infinite domains, when `include_default`
/// — one synthetic "default value" ⊥_a for everything outside the tables.
/// Booleans are a finite domain: always {true, false}, no default.
std::vector<Value> ActiveDomain(const ColumnarRelation& ie,
                                const std::vector<Relation>& masters,
                                AttrId a, bool include_default);

/// The synthetic default value for an attribute (distinct per type).
Value MakeDefaultValue(ValueType type);

/// An active domain in domain order, each value with its weight w_Ai(v).
using WeightedDomain = std::vector<std::pair<Value, double>>;

/// The search space of every top-k algorithm: the null attributes Z of
/// the deduced target and their weighted active domains.
struct SearchSpace {
  std::vector<AttrId> z;                ///< null attributes of te
  std::vector<WeightedDomain> domains;  ///< one per z-attribute
};

/// Builds the search space of `te` over the encoded Ie (ChaseEngine::
/// encoded_ie()) and the masters, weighting each value with `pref`.
SearchSpace BuildSearchSpace(const ColumnarRelation& ie,
                             const std::vector<Relation>& masters,
                             const Tuple& te, const PreferenceModel& pref,
                             bool include_default);

/// Sorts a domain by descending weight, ties by Value::TotalLess: the
/// ranked lists of RankJoinCT and TopKCTh's greedy repair order.
void SortByDescendingWeight(WeightedDomain* domain);

/// Visits the completions of `te` over the product of `space`'s domains in
/// odometer order (first null attribute fastest), scored `base_score` +
/// Σ weights, until `visit` returns false. Visits nothing when a domain
/// is empty, and `te` itself once when it has no nulls.
void ForEachCompletion(const SearchSpace& space, const Tuple& te,
                       double base_score,
                       const std::function<bool(Tuple, double)>& visit);

}  // namespace relacc

#endif  // RELACC_TOPK_PREFERENCE_H_
