#include "topk/preference.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

namespace relacc {

PreferenceModel PreferenceModel::FromOccurrences(
    const Relation& ie, const std::vector<Relation>& masters,
    double master_bonus) {
  PreferenceModel model(ie.schema().size());
  for (AttrId a = 0; a < ie.schema().size(); ++a) {
    auto& col = model.weights_[a];
    for (const Tuple& t : ie.tuples()) {
      const Value& v = t.at(a);
      if (!v.is_null()) col[v] += 1.0;
    }
    for (const Relation& im : masters) {
      // Presence bonus: each distinct master value counts once, however
      // many master rows carry it — master data is curated, but its row
      // multiplicities say nothing about *this* entity.
      for (const Value& v : MasterColumnDomain(im, ie.schema().name(a))) {
        col[v] += master_bonus;
      }
    }
  }
  return model;
}

double PreferenceModel::Weight(AttrId a, const Value& v) const {
  if (a < 0 || a >= num_attrs()) return default_weight_;
  const auto it = weights_[a].find(v);
  return it == weights_[a].end() ? default_weight_ : it->second;
}

void PreferenceModel::SetWeight(AttrId a, const Value& v, double w) {
  weights_[a][v] = w;
}

double PreferenceModel::Score(const Tuple& t) const {
  double s = 0.0;
  for (AttrId a = 0; a < t.size() && a < num_attrs(); ++a) {
    if (!t.at(a).is_null()) s += Weight(a, t.at(a));
  }
  return s;
}

Value MakeDefaultValue(ValueType type) {
  switch (type) {
    case ValueType::kInt:
      // An implausible sentinel far outside generated domains.
      return Value::Int(std::numeric_limits<int64_t>::min() / 2);
    case ValueType::kDouble:
      return Value::Real(-1.7976931348623157e308);
    case ValueType::kString:
      return Value::Str("\x01_bottom");
    case ValueType::kBool:
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

std::vector<Value> MasterColumnDomain(const Relation& im,
                                      const std::string& name) {
  const auto ma = im.schema().IndexOf(name);
  if (!ma.has_value()) return {};
  return im.ColumnDomain(*ma);
}

std::vector<Value> ActiveDomain(const ColumnarRelation& ie,
                                const std::vector<Relation>& masters,
                                AttrId a, bool include_default) {
  const ValueType type = ie.schema().type(a);
  if (type == ValueType::kBool) {
    return {Value::Bool(true), Value::Bool(false)};
  }
  std::vector<Value> domain;
  std::unordered_set<Value, ValueHash> seen;
  // Equal values share one TermId, so the Ie column dedups on ids and
  // decodes each distinct one once.
  std::unordered_set<TermId> ids;
  for (const TermId id : ie.column(a)) {
    if (id == kNullTermId || !ids.insert(id).second) continue;
    Value v = MaterializeAs(ie.dict(), id, type);
    seen.insert(v);
    domain.push_back(std::move(v));
  }
  for (const Relation& im : masters) {
    for (Value& v : MasterColumnDomain(im, ie.schema().name(a))) {
      if (seen.insert(v).second) domain.push_back(std::move(v));
    }
  }
  if (include_default) {
    Value def = MakeDefaultValue(type);
    if (!def.is_null() && seen.insert(def).second) {
      domain.push_back(std::move(def));
    }
  }
  return domain;
}

SearchSpace BuildSearchSpace(const ColumnarRelation& ie,
                             const std::vector<Relation>& masters,
                             const Tuple& te, const PreferenceModel& pref,
                             bool include_default) {
  SearchSpace space;
  for (AttrId a = 0; a < ie.schema().size(); ++a) {
    if (!te.at(a).is_null()) continue;
    space.z.push_back(a);
    WeightedDomain dom;
    for (Value& v : ActiveDomain(ie, masters, a, include_default)) {
      const double w = pref.Weight(a, v);
      dom.emplace_back(std::move(v), w);
    }
    space.domains.push_back(std::move(dom));
  }
  return space;
}

void SortByDescendingWeight(WeightedDomain* domain) {
  std::sort(domain->begin(), domain->end(),
            [](const auto& x, const auto& y) {
              if (x.second != y.second) return x.second > y.second;
              return x.first.TotalLess(y.first);
            });
}

void ForEachCompletion(const SearchSpace& space, const Tuple& te,
                       double base_score,
                       const std::function<bool(Tuple, double)>& visit) {
  for (const WeightedDomain& dom : space.domains) {
    if (dom.empty()) return;
  }
  const std::size_t m = space.z.size();
  std::vector<std::size_t> idx(m, 0);
  for (;;) {
    Tuple t = te;
    double score = base_score;
    for (std::size_t i = 0; i < m; ++i) {
      const auto& [v, w] = space.domains[i][idx[i]];
      t.set(space.z[i], v);
      score += w;
    }
    if (!visit(std::move(t), score)) return;
    // Odometer increment over the product space.
    std::size_t i = 0;
    for (; i < m; ++i) {
      if (++idx[i] < space.domains[i].size()) break;
      idx[i] = 0;
    }
    if (i == m) return;
  }
}

}  // namespace relacc
