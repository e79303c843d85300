#ifndef RELACC_TOPK_PREFERENCE_H_
#define RELACC_TOPK_PREFERENCE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/columnar.h"
#include "core/relation.h"
#include "core/schema.h"
#include "core/value.h"

namespace relacc {

/// The master half of the top-k preparation, built once per master set
/// and shared by every entity ranked against it (an AccuracyService
/// builds one, lazily, next to its MasterBlock). For each master
/// attribute name it holds the distinct non-null values in master-then-
/// row order, each with m_v, the number of masters whose same-named
/// column holds it. Keys are Values: preference weights are Value-keyed.
///
/// Immutable after construction; copies share one set of tables, so a
/// copy is O(1) and thread-safe to read. Converting from the row masters
/// builds a private set of tables (the row call sites of the top-k API).
class MasterDomains {
 public:
  /// One attribute name's table.
  class Column {
   public:
    std::vector<Value> values;  ///< distinct, master-then-row order
    std::vector<int> holders;   ///< m_v of values[i]

    /// Position of `v` in `values` (Value equality), or -1.
    int Find(const Value& v) const;

   private:
    friend class MasterDomains;
    std::unordered_map<Value, int, ValueHash> index_;
  };

  /// No masters.
  MasterDomains() = default;
  /// The tables of `masters`. Implicit, so the top-k API keeps its row
  /// call sites (`TopKCT(engine, spec.masters, ...)`).
  MasterDomains(const std::vector<Relation>& masters);  // NOLINT

  /// The table of attribute `name`; null when no master has the column.
  const Column* Find(const std::string& name) const;

  /// Number of master relations the tables were built from.
  int num_masters() const;

 private:
  struct Tables;
  std::shared_ptr<const Tables> tables_;
};

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
  /// values deserve at least a tie-break). O(|Ie|): the model keeps the
  /// Ie values in a per-entity overlay and shares `masters`' tables for
  /// the master-only values. The Ie column values are decoded to the
  /// column type, as ActiveDomain decodes them.
  static PreferenceModel FromOccurrences(const ColumnarRelation& ie,
                                         const MasterDomains& masters,
                                         double master_bonus = 1.0);
  /// The same weights over a row Ie (encoded into a private dictionary
  /// first).
  static PreferenceModel FromOccurrences(const Relation& ie,
                                         const MasterDomains& masters,
                                         double master_bonus = 1.0);

  /// Weight w_Ai(v).
  double Weight(AttrId a, const Value& v) const;

  /// Overrides / defines one weight. Aborts unless 0 <= a < num_attrs().
  void SetWeight(AttrId a, const Value& v, double w);

  void set_default_weight(double w) { default_weight_ = w; }
  double default_weight() const { return default_weight_; }

  /// p({t}) = Σ_Ai w_Ai(t[Ai]). Null attributes contribute 0.
  double Score(const Tuple& t) const;

  int num_attrs() const { return static_cast<int>(weights_.size()); }

 private:
  /// The per-entity overlay: Ie values and SetWeight overrides.
  std::vector<std::unordered_map<Value, double, ValueHash>> weights_;
  double default_weight_ = 0.0;
  MasterDomains masters_;
  /// Per attribute: its master table, or null.
  std::vector<const MasterDomains::Column*> master_columns_;
  /// master_only_[m]: the weight of a value m masters hold and Ie does
  /// not, 0.0 plus m bonuses summed one at a time.
  std::vector<double> master_only_;
};

/// The active domain of attribute `a` (Sec. 6.1), in the order top-k ties
/// break on: the Ie column's values by first appearance (decoded to the
/// column type), then same-named master values not yet in it, in
/// master/row order, then — for infinite domains, when `include_default`
/// — one synthetic "default value" ⊥_a for everything outside the tables.
/// Booleans are a finite domain: always {true, false}, no default.
std::vector<Value> ActiveDomain(const ColumnarRelation& ie,
                                const MasterDomains& masters, AttrId a,
                                bool include_default);

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
/// encoded_ie()) and the master tables, weighting each value with `pref`.
SearchSpace BuildSearchSpace(const ColumnarRelation& ie,
                             const MasterDomains& masters,
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

/// The first `limit` completions of `te` over the top-k search space
/// (ForEachCompletion over BuildSearchSpace, odometer order); empty if a
/// domain is empty. Tests and benchmarks build candidate pools from it.
std::vector<Tuple> EnumerateCandidateProduct(
    const ColumnarRelation& ie, const MasterDomains& masters,
    const Tuple& te, bool include_default_values, std::size_t limit);

}  // namespace relacc

#endif  // RELACC_TOPK_PREFERENCE_H_
