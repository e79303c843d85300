#include "topk/preference.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <unordered_set>

namespace relacc {

struct MasterDomains::Tables {
  std::unordered_map<std::string, Column> columns;
  int num_masters = 0;
};

int MasterDomains::Column::Find(const Value& v) const {
  const auto it = index_.find(v);
  return it == index_.end() ? -1 : it->second;
}

MasterDomains::MasterDomains(const std::vector<Relation>& masters) {
  auto tables = std::make_shared<Tables>();
  tables->num_masters = static_cast<int>(masters.size());
  for (const Relation& im : masters) {
    const Schema& schema = im.schema();
    for (AttrId c = 0; c < schema.size(); ++c) {
      const std::string& name = schema.name(c);
      // A repeated column name reads its first column, as IndexOf does.
      if (schema.IndexOf(name) != c) continue;
      Column& col = tables->columns[name];
      // Distinct within one master, so each master counts a value once.
      for (Value& v : im.ColumnDomain(c)) {
        const auto [it, fresh] =
            col.index_.try_emplace(v, static_cast<int>(col.values.size()));
        if (fresh) {
          col.values.push_back(std::move(v));
          col.holders.push_back(0);
        }
        ++col.holders[static_cast<std::size_t>(it->second)];
      }
    }
  }
  tables_ = std::move(tables);
}

const MasterDomains::Column* MasterDomains::Find(
    const std::string& name) const {
  if (tables_ == nullptr) return nullptr;
  const auto it = tables_->columns.find(name);
  return it == tables_->columns.end() ? nullptr : &it->second;
}

int MasterDomains::num_masters() const {
  return tables_ == nullptr ? 0 : tables_->num_masters;
}

PreferenceModel PreferenceModel::FromOccurrences(const ColumnarRelation& ie,
                                                 const MasterDomains& masters,
                                                 double master_bonus) {
  const Schema& schema = ie.schema();
  PreferenceModel model(schema.size());
  model.masters_ = masters;
  model.master_columns_.assign(static_cast<std::size_t>(schema.size()),
                               nullptr);
  model.master_only_.assign(1, 0.0);
  for (int m = 0; m < masters.num_masters(); ++m) {
    model.master_only_.push_back(model.master_only_.back() + master_bonus);
  }
  std::vector<TermId> ids;
  for (AttrId a = 0; a < schema.size(); ++a) {
    // Equal values share one TermId: count runs of sorted ids, decode
    // each distinct one once.
    ids.assign(ie.column(a).begin(), ie.column(a).end());
    std::sort(ids.begin(), ids.end());
    auto& col = model.weights_[static_cast<std::size_t>(a)];
    for (std::size_t i = 0; i < ids.size();) {
      std::size_t j = i;
      while (j < ids.size() && ids[j] == ids[i]) ++j;
      if (ids[i] != kNullTermId) {
        col.emplace(MaterializeAs(ie.dict(), ids[i], schema.type(a)),
                    static_cast<double>(j - i));
      }
      i = j;
    }
    const MasterDomains::Column* table = masters.Find(schema.name(a));
    model.master_columns_[static_cast<std::size_t>(a)] = table;
    if (table == nullptr) continue;
    // Presence bonus: each master holding the value counts once, however
    // many of its rows carry it — master data is curated, but its row
    // multiplicities say nothing about *this* entity. Added one master at
    // a time, in the order the bonus was always summed.
    for (auto& [v, w] : col) {
      const int i = table->Find(v);
      if (i < 0) continue;
      for (int h = 0; h < table->holders[static_cast<std::size_t>(i)]; ++h) {
        w += master_bonus;
      }
    }
  }
  return model;
}

PreferenceModel PreferenceModel::FromOccurrences(const Relation& ie,
                                                 const MasterDomains& masters,
                                                 double master_bonus) {
  Dictionary dict;
  return FromOccurrences(ColumnarRelation::FromRelation(ie, &dict), masters,
                         master_bonus);
}

double PreferenceModel::Weight(AttrId a, const Value& v) const {
  if (a < 0 || a >= num_attrs()) return default_weight_;
  const auto& overlay = weights_[static_cast<std::size_t>(a)];
  const auto it = overlay.find(v);
  if (it != overlay.end()) return it->second;
  if (static_cast<std::size_t>(a) < master_columns_.size()) {
    const MasterDomains::Column* table =
        master_columns_[static_cast<std::size_t>(a)];
    const int i = table == nullptr ? -1 : table->Find(v);
    if (i >= 0) {
      return master_only_[static_cast<std::size_t>(
          table->holders[static_cast<std::size_t>(i)])];
    }
  }
  return default_weight_;
}

void PreferenceModel::SetWeight(AttrId a, const Value& v, double w) {
  if (a < 0 || a >= num_attrs()) {
    std::fprintf(stderr,
                 "PreferenceModel::SetWeight: attribute %d out of range "
                 "[0, num_attrs() = %d)\n",
                 a, num_attrs());
    std::abort();
  }
  weights_[static_cast<std::size_t>(a)][v] = w;
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

std::vector<Value> ActiveDomain(const ColumnarRelation& ie,
                                const MasterDomains& masters, AttrId a,
                                bool include_default) {
  const ValueType type = ie.schema().type(a);
  if (type == ValueType::kBool) {
    return {Value::Bool(true), Value::Bool(false)};
  }
  const MasterDomains::Column* table = masters.Find(ie.schema().name(a));
  std::vector<Value> domain;
  // Master values already in the domain (they came from Ie).
  std::vector<char> in_ie(table == nullptr ? 0 : table->values.size(), 0);
  // Equal values share one TermId, so the Ie column dedups on ids and
  // decodes each distinct one once.
  std::unordered_set<TermId> ids;
  for (const TermId id : ie.column(a)) {
    if (id == kNullTermId || !ids.insert(id).second) continue;
    Value v = MaterializeAs(ie.dict(), id, type);
    const int i = table == nullptr ? -1 : table->Find(v);
    if (i >= 0) in_ie[static_cast<std::size_t>(i)] = 1;
    domain.push_back(std::move(v));
  }
  for (std::size_t i = 0; i < in_ie.size(); ++i) {
    if (!in_ie[i]) domain.push_back(table->values[i]);
  }
  if (include_default) {
    Value def = MakeDefaultValue(type);
    if (!def.is_null() &&
        std::find(domain.begin(), domain.end(), def) == domain.end()) {
      domain.push_back(std::move(def));
    }
  }
  return domain;
}

SearchSpace BuildSearchSpace(const ColumnarRelation& ie,
                             const MasterDomains& masters,
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

std::vector<Tuple> EnumerateCandidateProduct(
    const ColumnarRelation& ie, const MasterDomains& masters,
    const Tuple& te, bool include_default_values, std::size_t limit) {
  std::vector<Tuple> out;
  // Unweighted: the default model scores every value 0.
  ForEachCompletion(BuildSearchSpace(ie, masters, te, PreferenceModel(),
                                     include_default_values),
                    te, 0.0, [&](Tuple t, double) {
                      if (out.size() >= limit) return false;
                      out.push_back(std::move(t));
                      return true;
                    });
  return out;
}

}  // namespace relacc
