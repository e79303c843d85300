// Focused tests for ClaimSet semantics, the Rest generator's structural
// invariants, PreferenceModel / ActiveDomain edge cases, and the shared
// master tables (MasterDomains) against a naive per-call reference.

#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/profile_generator.h"
#include "datagen/rest_generator.h"
#include "datagen/syn_generator.h"
#include "topk/preference.h"
#include "truth/claims.h"

namespace relacc {
namespace {

TEST(ClaimSet, LatestClaimTracksSnapshots) {
  ClaimSet cs(2, 2, 5);
  cs.Add({0, 0, 3, Value::Bool(true)});
  cs.Add({0, 0, 1, Value::Bool(false)});  // out-of-order insert, older
  ASSERT_TRUE(cs.LatestClaim(0, 0).has_value());
  EXPECT_EQ(cs.LatestClaim(0, 0)->value, Value::Bool(true));
  EXPECT_FALSE(cs.LatestClaim(0, 1).has_value());
  EXPECT_FALSE(cs.LatestClaim(1, 0).has_value());
  EXPECT_EQ(cs.CellClaims(0, 0).size(), 2u);
}

TEST(ClaimSet, EqualSnapshotPrefersLatestInsert) {
  ClaimSet cs(1, 1, 3);
  cs.Add({0, 0, 2, Value::Bool(false)});
  cs.Add({0, 0, 2, Value::Bool(true)});  // re-crawl within the snapshot
  EXPECT_EQ(cs.LatestClaim(0, 0)->value, Value::Bool(true));
}

TEST(RestGenerator, TrackersObserveEverySnapshotTheyCover) {
  RestConfig c;
  c.num_restaurants = 120;
  const RestDataset ds = GenerateRest(c);
  for (int s = 0; s < c.num_trackers; ++s) {
    for (int o = 0; o < c.num_restaurants; ++o) {
      const auto& cell = ds.claims.CellClaims(o, s);
      // Covered => all snapshots; uncovered => none.
      EXPECT_TRUE(cell.empty() ||
                  static_cast<int>(cell.size()) == c.num_snapshots)
          << "tracker " << s << " object " << o;
    }
  }
}

TEST(RestGenerator, ClosureIsAbsorbingInTruth) {
  // Ground-truth invariant exploited by the monotone-closed AR: once a
  // restaurant closes it stays closed, so a false-then-true transition
  // within an exact source is conclusive.
  RestConfig c;
  c.num_restaurants = 300;
  c.casual_fp = 0.0;
  c.casual_fn = 0.0;
  c.tracker_fp = 0.0;
  c.tracker_fn = 0.0;
  const RestDataset ds = GenerateRest(c);
  for (int o = 0; o < c.num_restaurants; ++o) {
    for (int s = 0; s < c.num_sources; ++s) {
      bool seen_closed = false;
      // Claims within one cell are inserted in snapshot order for
      // trackers; verify the absorbing property over those.
      if (s >= c.num_trackers) continue;
      for (int idx : ds.claims.CellClaims(o, s)) {
        const bool closed = ds.claims.claim(idx).value.as_bool();
        if (seen_closed) {
          EXPECT_TRUE(closed) << "o=" << o << " s=" << s;
        }
        seen_closed |= closed;
      }
    }
  }
}

TEST(RestGenerator, CopiersReplicateParentValues) {
  RestConfig c;
  c.num_restaurants = 400;
  c.copy_rate = 1.0;  // always copy when the parent has data
  const RestDataset ds = GenerateRest(c);
  for (int copier = 0; copier < c.num_sources; ++copier) {
    const int parent = ds.copies_from[copier];
    if (parent < 0) continue;
    int checked = 0, matched = 0;
    for (int o = 0; o < c.num_restaurants; ++o) {
      const auto cell = ds.claims.CellClaims(o, copier);
      if (cell.size() != 1) continue;
      const Claim& cl = ds.claims.claim(cell[0]);
      // Parent's latest claim at or before the copier's snapshot.
      Value expect = Value::Null();
      for (int idx : ds.claims.CellClaims(o, parent)) {
        const Claim& pc = ds.claims.claim(idx);
        if (pc.snapshot <= cl.snapshot) expect = pc.value;
      }
      if (expect.is_null()) continue;  // copier had to observe on its own
      ++checked;
      matched += cl.value == expect ? 1 : 0;
    }
    EXPECT_GT(checked, 10) << "copier " << copier;
    EXPECT_EQ(matched, checked) << "copier " << copier;
  }
}

TEST(Preference, ScoreIgnoresNullAttributes) {
  Schema schema({{"a", ValueType::kString}, {"b", ValueType::kString}});
  Relation ie(schema);
  ie.Add(Tuple({Value::Str("x"), Value::Str("y")}));
  ie.Add(Tuple({Value::Str("x"), Value::Null()}));
  const PreferenceModel pref = PreferenceModel::FromOccurrences(ie, {});
  EXPECT_DOUBLE_EQ(pref.Score(Tuple({Value::Str("x"), Value::Null()})), 2.0);
  EXPECT_DOUBLE_EQ(pref.Score(Tuple({Value::Str("x"), Value::Str("y")})),
                   3.0);
}

/// The domain edge cases: Ie repeats values (and has nulls), `y` is in Ie
/// and in master m1, `w` repeats within m1, `v` is in both masters, and
/// m2's double column `n` holds 5.0 (equal to Ie's int 5) and 9.5.
struct EdgeCaseInput {
  EdgeCaseInput()
      : ie(Schema({{"name", ValueType::kString},
                   {"n", ValueType::kInt},
                   {"flag", ValueType::kBool}})) {
    auto S = [](const char* s) { return Value::Str(s); };
    auto I = [](int64_t i) { return Value::Int(i); };
    const Value N = Value::Null();
    ie.Add(Tuple({S("x"), I(3), Value::Bool(false)}));
    ie.Add(Tuple({S("y"), N, N}));
    ie.Add(Tuple({S("x"), I(3), Value::Bool(false)}));
    ie.Add(Tuple({N, I(5), N}));
    ie.Add(Tuple({S("z"), I(3), N}));
    ie.Add(Tuple({S("y"), I(7), N}));
    Relation m1(Schema({{"name", ValueType::kString},
                        {"other", ValueType::kString}}));
    for (const Value& v : {S("w"), S("y"), S("v"), S("w"), N}) {
      m1.Add(Tuple({v, S("o")}));
    }
    Relation m2(
        Schema({{"n", ValueType::kDouble}, {"name", ValueType::kString}}));
    m2.Add(Tuple({Value::Real(5.0), S("v")}));
    m2.Add(Tuple({Value::Real(9.5), S("u")}));
    m2.Add(Tuple({N, S("v")}));
    masters = {std::move(m1), std::move(m2)};
  }

  Relation ie;
  std::vector<Relation> masters;
};

TEST(Preference, DefaultWeightAppliesToUnknownValues) {
  Schema schema({{"a", ValueType::kString}});
  Relation ie(schema);
  ie.Add(Tuple({Value::Str("x")}));
  PreferenceModel pref = PreferenceModel::FromOccurrences(ie, {});
  pref.set_default_weight(0.25);
  EXPECT_DOUBLE_EQ(pref.Weight(0, Value::Str("unknown")), 0.25);
  EXPECT_DOUBLE_EQ(pref.Weight(0, Value::Str("x")), 1.0);

  // Occurrences count every Ie row; the master bonus counts once per
  // master that holds the value, however many of its rows do.
  const EdgeCaseInput edge;
  const PreferenceModel weights =
      PreferenceModel::FromOccurrences(edge.ie, edge.masters);
  const std::vector<std::pair<const char*, double>> names = {
      {"x", 2.0}, {"y", 3.0}, {"z", 1.0}, {"w", 1.0}, {"v", 2.0}, {"u", 1.0}};
  for (const auto& [name, w] : names) {
    EXPECT_EQ(weights.Weight(0, Value::Str(name)), w) << name;
  }
  EXPECT_EQ(weights.Weight(1, Value::Int(3)), 3.0);
  EXPECT_EQ(weights.Weight(1, Value::Int(5)), 2.0);  // Ie once + m2's 5.0
  EXPECT_EQ(weights.Weight(1, Value::Int(7)), 1.0);
  EXPECT_EQ(weights.Weight(1, Value::Real(9.5)), 1.0);
  EXPECT_EQ(weights.Weight(2, Value::Bool(true)), 0.0);
  EXPECT_EQ(weights.Weight(2, Value::Bool(false)), 2.0);
}

TEST(Preference, BoolActiveDomainIsExactlyBothConstants) {
  Schema schema({{"flag", ValueType::kBool}});
  Relation ie(schema);
  ie.Add(Tuple({Value::Bool(true)}));
  Dictionary dict;
  const ColumnarRelation cie = ColumnarRelation::FromRelation(ie, &dict);
  const auto dom = ActiveDomain(cie, {}, 0, /*include_default=*/true);
  ASSERT_EQ(dom.size(), 2u);  // finite domain: no synthetic default
  EXPECT_NE(dom[0], dom[1]);

  // Always {true, false} in that order, whatever Ie holds.
  const EdgeCaseInput edge;
  Dictionary edge_dict;
  const ColumnarRelation edge_ie =
      ColumnarRelation::FromRelation(edge.ie, &edge_dict);
  const std::vector<Value> both = {Value::Bool(true), Value::Bool(false)};
  for (const bool with_default : {false, true}) {
    EXPECT_EQ(ActiveDomain(edge_ie, edge.masters, 2, with_default), both);
  }
}

TEST(Preference, DefaultValueJoinsInfiniteDomainsWhenRequested) {
  Schema schema({{"name", ValueType::kString}});
  Relation ie(schema);
  ie.Add(Tuple({Value::Str("x")}));
  Dictionary dict;
  const ColumnarRelation cie = ColumnarRelation::FromRelation(ie, &dict);
  const auto without = ActiveDomain(cie, {}, 0, false);
  const auto with = ActiveDomain(cie, {}, 0, true);
  EXPECT_EQ(without.size(), 1u);
  EXPECT_EQ(with.size(), 2u);
  EXPECT_EQ(with[1], MakeDefaultValue(ValueType::kString));

  // Ie values once each in first-appearance order, then master values not
  // already in the domain in master/row order, then the default.
  const EdgeCaseInput edge;
  Dictionary edge_dict;
  const ColumnarRelation edge_ie =
      ColumnarRelation::FromRelation(edge.ie, &edge_dict);
  std::vector<Value> names;
  for (const char* v : {"x", "y", "z", "w", "v", "u"}) {
    names.push_back(Value::Str(v));
  }
  EXPECT_EQ(ActiveDomain(edge_ie, edge.masters, 0, false), names);
  names.push_back(MakeDefaultValue(ValueType::kString));
  EXPECT_EQ(ActiveDomain(edge_ie, edge.masters, 0, true), names);

  std::vector<Value> numbers = {Value::Int(3), Value::Int(5), Value::Int(7),
                                Value::Real(9.5)};
  EXPECT_EQ(ActiveDomain(edge_ie, edge.masters, 1, false), numbers);
  numbers.push_back(MakeDefaultValue(ValueType::kInt));
  const std::vector<Value> with_default =
      ActiveDomain(edge_ie, edge.masters, 1, true);
  EXPECT_EQ(with_default, numbers);
  ASSERT_EQ(with_default.size(), 5u);
  for (const std::size_t i : {0u, 1u, 2u, 4u}) {
    EXPECT_EQ(with_default[i].type(), ValueType::kInt) << i;
  }
  EXPECT_EQ(with_default[3].type(), ValueType::kDouble);
}

TEST(PreferenceDeathTest, SetWeightRejectsAnOutOfRangeAttribute) {
  EXPECT_DEATH(PreferenceModel().SetWeight(0, Value::Int(1), 1.0),
               "attribute 0 out of range \\[0, num_attrs\\(\\) = 0\\)");
  PreferenceModel two(2);
  EXPECT_DEATH(two.SetWeight(2, Value::Int(1), 1.0),
               "attribute 2 out of range \\[0, num_attrs\\(\\) = 2\\)");
  EXPECT_DEATH(two.SetWeight(-1, Value::Int(1), 1.0),
               "attribute -1 out of range");
  two.SetWeight(1, Value::Int(1), 4.0);
  EXPECT_EQ(two.Weight(1, Value::Int(1)), 4.0);
  EXPECT_EQ(two.Weight(2, Value::Int(1)), 0.0);  // Weight tolerates it
}

// --- shared master tables vs the per-call reference ------------------------

using Weights = std::vector<std::unordered_map<Value, double, ValueHash>>;

/// The per-call preparation the shared tables replace, master rows
/// rescanned on every call: the oracle they must reproduce bit for bit.
std::vector<Value> ReferenceMasterColumn(const Relation& im,
                                         const std::string& name) {
  const auto ma = im.schema().IndexOf(name);
  return ma.has_value() ? im.ColumnDomain(*ma) : std::vector<Value>{};
}

Weights ReferenceWeights(const Relation& ie,
                         const std::vector<Relation>& masters, double bonus) {
  Weights weights(static_cast<std::size_t>(ie.schema().size()));
  for (AttrId a = 0; a < ie.schema().size(); ++a) {
    auto& col = weights[static_cast<std::size_t>(a)];
    for (const Tuple& t : ie.tuples()) {
      if (!t.at(a).is_null()) col[t.at(a)] += 1.0;
    }
    for (const Relation& im : masters) {
      for (const Value& v : ReferenceMasterColumn(im, ie.schema().name(a))) {
        col[v] += bonus;
      }
    }
  }
  return weights;
}

std::vector<Value> ReferenceActiveDomain(const ColumnarRelation& ie,
                                         const std::vector<Relation>& masters,
                                         AttrId a, bool include_default) {
  const ValueType type = ie.schema().type(a);
  if (type == ValueType::kBool) return {Value::Bool(true), Value::Bool(false)};
  std::vector<Value> domain;
  std::unordered_set<Value, ValueHash> seen;
  std::unordered_set<TermId> ids;
  for (const TermId id : ie.column(a)) {
    if (id == kNullTermId || !ids.insert(id).second) continue;
    Value v = MaterializeAs(ie.dict(), id, type);
    seen.insert(v);
    domain.push_back(std::move(v));
  }
  for (const Relation& im : masters) {
    for (Value& v : ReferenceMasterColumn(im, ie.schema().name(a))) {
      if (seen.insert(v).second) domain.push_back(std::move(v));
    }
  }
  Value def = MakeDefaultValue(type);
  if (include_default && !def.is_null() && seen.insert(def).second) {
    domain.push_back(std::move(def));
  }
  return domain;
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

/// Compares the table path with the reference on one entity for every
/// bonus: the weights of every Ie and master value (both FromOccurrences
/// overloads), and the full search space — domain order and weights —
/// of an all-null target, with and without the default value. Returns
/// the number of values compared.
int64_t ExpectTablesMatchReference(const Relation& ie,
                                   const std::vector<Relation>& masters,
                                   const MasterDomains& domains,
                                   const std::string& label) {
  Dictionary dict;
  const ColumnarRelation cie = ColumnarRelation::FromRelation(ie, &dict);
  const Tuple all_null(
      std::vector<Value>(static_cast<std::size_t>(ie.schema().size())));
  int64_t compared = 0;
  for (const double bonus : {1.0, 0.1, 0.3, 2.5}) {
    const Weights reference = ReferenceWeights(ie, masters, bonus);
    const PreferenceModel encoded =
        PreferenceModel::FromOccurrences(cie, domains, bonus);
    const PreferenceModel rows =
        PreferenceModel::FromOccurrences(ie, domains, bonus);
    const auto expect_weight = [&](AttrId a, const Value& v) {
      const auto& col = reference[static_cast<std::size_t>(a)];
      const auto it = col.find(v);
      const double want = it == col.end() ? 0.0 : it->second;
      EXPECT_EQ(Bits(encoded.Weight(a, v)), Bits(want))
          << label << " bonus " << bonus << " attr " << a << " " << v.ToString();
      EXPECT_EQ(Bits(rows.Weight(a, v)), Bits(want))
          << label << " bonus " << bonus << " attr " << a << " " << v.ToString();
      ++compared;
    };
    for (AttrId a = 0; a < ie.schema().size(); ++a) {
      for (const auto& [v, w] : reference[static_cast<std::size_t>(a)]) {
        expect_weight(a, v);
      }
      expect_weight(a, Value::Str("\x02 in no table"));
    }
    for (const bool with_default : {false, true}) {
      const SearchSpace got =
          BuildSearchSpace(cie, domains, all_null, encoded, with_default);
      EXPECT_EQ(got.z.size(), static_cast<std::size_t>(ie.schema().size()));
      for (std::size_t i = 0; i < got.z.size(); ++i) {
        const AttrId a = got.z[i];
        const std::vector<Value> want =
            ReferenceActiveDomain(cie, masters, a, with_default);
        EXPECT_EQ(ActiveDomain(cie, domains, a, with_default), want)
            << label << " attr " << a;
        EXPECT_EQ(got.domains[i].size(), want.size()) << label << " " << a;
        if (got.domains[i].size() != want.size()) continue;
        for (std::size_t j = 0; j < want.size(); ++j) {
          const Value& v = got.domains[i][j].first;
          EXPECT_EQ(v, want[j]) << label << " attr " << a << " #" << j;
          EXPECT_EQ(v.type(), want[j].type()) << label << " attr " << a;
          expect_weight(a, v);
          EXPECT_EQ(Bits(got.domains[i][j].second), Bits(encoded.Weight(a, v)));
        }
      }
    }
  }
  return compared;
}

/// `relacc gen --profile <profile>` generates this dataset (its defaults:
/// 50 entities, seed 42, 40 master rows).
EntityDataset GenDefaultProfile(bool med) {
  ProfileConfig config = med ? MedConfig(42) : CfpConfig(42);
  config.num_entities = 50;
  config.master_size = 40;
  return GenerateProfile(config);
}

TEST(MasterDomains, MatchReferenceOnEveryGeneratedEntity) {
  for (const bool med : {true, false}) {
    const EntityDataset ds = GenDefaultProfile(med);
    const MasterDomains domains(ds.masters);
    ASSERT_EQ(domains.num_masters(), static_cast<int>(ds.masters.size()));
    int64_t compared = 0;
    for (std::size_t i = 0; i < ds.entities.size(); ++i) {
      compared += ExpectTablesMatchReference(
          ds.entities[i], ds.masters, domains,
          std::string(med ? "med" : "cfp") + " entity " + std::to_string(i));
    }
    EXPECT_GT(compared, 10000) << (med ? "med" : "cfp");
  }
}

TEST(MasterDomains, MatchReferenceOnASynSpec) {
  SynConfig config;
  config.seed = 20260726;
  config.num_tuples = 40;
  config.master_size = 20;
  config.num_mst_attrs = 3;
  const SynDataset syn = GenerateSyn(config);
  ASSERT_FALSE(syn.spec.masters.empty());
  EXPECT_GT(ExpectTablesMatchReference(syn.spec.ie, syn.spec.masters,
                                       syn.spec.masters, "syn"),
            0);
}

TEST(MasterDomains, MatchReferenceOnTheEdgeCases) {
  // A value in two masters (`v`), a value repeated within one master
  // (`w`), and m2's double 5.0 equal to Ie's int 5.
  const EdgeCaseInput edge;
  const MasterDomains domains(edge.masters);
  EXPECT_GT(ExpectTablesMatchReference(edge.ie, edge.masters, domains, "edge"),
            0);
  // Only the one-bonus-at-a-time summation matches bit for bit: an Ie
  // value three masters hold weighs 1 + 0.1 + 0.1 + 0.1, not 1 + 0.3, and
  // a master-only value six masters hold weighs 0.6, not 6 * 0.1.
  Relation ie_v = edge.ie;
  ie_v.Add(Tuple({Value::Str("v"), Value::Null(), Value::Null()}));
  std::vector<Relation> eight = edge.masters;
  for (int m = 0; m < 6; ++m) {
    Relation more(Schema({{"name", ValueType::kString}}));
    more.Add(Tuple({Value::Str("t")}));
    if (m == 0) more.Add(Tuple({Value::Str("v")}));
    eight.push_back(std::move(more));
  }
  EXPECT_GT(ExpectTablesMatchReference(ie_v, eight, eight, "edge+v"), 0);
  const MasterDomains::Column* names = domains.Find("name");
  ASSERT_NE(names, nullptr);
  const std::vector<Value> order = {Value::Str("w"), Value::Str("y"),
                                    Value::Str("v"), Value::Str("u")};
  EXPECT_EQ(names->values, order);
  EXPECT_EQ(names->holders, (std::vector<int>{1, 1, 2, 1}));
  const MasterDomains::Column* numbers = domains.Find("n");
  ASSERT_NE(numbers, nullptr);
  EXPECT_EQ(numbers->Find(Value::Int(5)), 0);
  EXPECT_EQ(domains.Find("other")->values, std::vector<Value>{Value::Str("o")});
  EXPECT_EQ(domains.Find("flag"), nullptr);
  EXPECT_EQ(MasterDomains().Find("name"), nullptr);

  // Copies share one set of tables; a second build does not.
  const MasterDomains copy = domains;
  EXPECT_EQ(copy.Find("name"), names);
  EXPECT_NE(MasterDomains(edge.masters).Find("name"), names);
}

}  // namespace
}  // namespace relacc
