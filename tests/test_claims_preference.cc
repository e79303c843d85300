// Focused tests for ClaimSet semantics, the Rest generator's structural
// invariants, and PreferenceModel / ActiveDomain edge cases.

#include <gtest/gtest.h>

#include "datagen/rest_generator.h"
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

}  // namespace
}  // namespace relacc
