#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "chase/chase_engine.h"
#include "io/spec_io.h"
#include "mj_fixture.h"

namespace relacc {
namespace {

using testing_fixture::MjExpectedTarget;
using testing_fixture::MjSpecification;

SpecDocument MjDocument() {
  SpecDocument doc;
  doc.spec = MjSpecification();
  doc.entity_name = "stat";
  doc.master_names = {"nba"};
  return doc;
}

TEST(SpecIo, SerializedDocumentHasExpectedShape) {
  Json json = SpecToJson(MjDocument());
  ASSERT_TRUE(json.is_object());
  const Json* entity = json.Find("entity");
  ASSERT_NE(entity, nullptr);
  EXPECT_EQ(entity->GetString("name").value(), "stat");
  EXPECT_EQ(entity->Find("schema")->size(), 9);
  EXPECT_EQ(entity->Find("tuples")->size(), 4);
  EXPECT_EQ(json.Find("masters")->size(), 1);
  EXPECT_TRUE(json.Find("rules")->is_string());
  EXPECT_NE(json.Find("rules")->as_string().find("rule phi1"),
            std::string::npos);
}

TEST(SpecIo, RoundTripPreservesDataAndSemantics) {
  SpecDocument doc = MjDocument();
  Json json = SpecToJson(doc);
  Result<SpecDocument> loaded = SpecFromJsonText(json.Dump(2));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const Specification& spec = loaded.value().spec;
  EXPECT_EQ(loaded.value().entity_name, "stat");
  ASSERT_EQ(loaded.value().master_names.size(), 1u);
  EXPECT_EQ(loaded.value().master_names[0], "nba");
  EXPECT_EQ(spec.ie.size(), 4);
  EXPECT_EQ(spec.ie.schema(), doc.spec.ie.schema());
  ASSERT_EQ(spec.masters.size(), 1u);
  EXPECT_EQ(spec.masters[0].size(), 2);
  EXPECT_EQ(spec.rules.size(), doc.spec.rules.size());

  // Tuples survive byte-for-byte.
  for (int i = 0; i < spec.ie.size(); ++i) {
    EXPECT_EQ(spec.ie.tuple(i), doc.spec.ie.tuple(i)) << "tuple " << i;
  }

  // And the chase still deduces the paper's target.
  ChaseOutcome outcome = IsCR(spec);
  ASSERT_TRUE(outcome.church_rosser);
  EXPECT_EQ(outcome.target, MjExpectedTarget());
}

TEST(SpecIo, DoubleRoundTripIsAFixpoint) {
  Json once = SpecToJson(MjDocument());
  Result<SpecDocument> loaded = SpecFromJson(once);
  ASSERT_TRUE(loaded.ok());
  Json twice = SpecToJson(loaded.value());
  EXPECT_EQ(once.Dump(2), twice.Dump(2));
}

TEST(SpecIo, MinimalDocumentDefaults) {
  const std::string text = R"json({
    "entity": {
      "schema": [{"name": "A", "type": "int"}],
      "tuples": [[1], [2], [null]]
    }
  })json";
  Result<SpecDocument> doc = SpecFromJsonText(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value().entity_name, "R");
  EXPECT_TRUE(doc.value().spec.masters.empty());
  EXPECT_TRUE(doc.value().spec.rules.empty());
  EXPECT_TRUE(doc.value().spec.config.builtin_axioms);
  EXPECT_EQ(doc.value().spec.ie.size(), 3);
  EXPECT_TRUE(doc.value().spec.ie.tuple(2).at(0).is_null());
}

TEST(SpecIo, ConfigIsApplied) {
  const std::string text = R"json({
    "entity": {"schema": [{"name": "A", "type": "int"}], "tuples": []},
    "config": {"builtin_axioms": false, "keep_orders": true,
               "max_actions": 99}
  })json";
  Result<SpecDocument> doc = SpecFromJsonText(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_FALSE(doc.value().spec.config.builtin_axioms);
  EXPECT_TRUE(doc.value().spec.config.keep_orders);
  EXPECT_EQ(doc.value().spec.config.max_actions, 99);
}

TEST(SpecIo, RejectsWrongTypedConfigKeys) {
  // A known config key of the wrong type is an error naming the key, not
  // a silent fall-back to the default.
  const struct {
    const char* key;
    const char* config;
  } cases[] = {
      {"builtin_axioms", R"("builtin_axioms": "false")"},
      {"builtin_axioms", R"("builtin_axioms": 0)"},
      {"keep_orders", R"("keep_orders": "true")"},
      {"max_actions", R"("max_actions": 1.5)"},
      {"max_actions", R"("max_actions": "99")"},
  };
  for (const auto& c : cases) {
    const std::string text =
        std::string(R"json({
    "entity": {"schema": [{"name": "A", "type": "int"}], "tuples": []},
    "config": {)json") +
        c.config + "}}";
    Result<SpecDocument> doc = SpecFromJsonText(text);
    ASSERT_FALSE(doc.ok()) << c.config;
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument) << c.config;
    EXPECT_NE(doc.status().message().find(c.key), std::string::npos)
        << doc.status().ToString();
  }
}

TEST(SpecIo, LegacyCheckStrategyKeyIsIgnored) {
  // Documents written before the candidate check had a single rollback
  // path carry "check_strategy"; like any unknown key it is ignored.
  const std::string base = R"json({
    "entity": {"schema": [{"name": "A", "type": "int"}], "tuples": [[1]]},
    "config": {"builtin_axioms": false, "keep_orders": true,
               "max_actions": 99)json";
  Result<SpecDocument> plain = SpecFromJsonText(base + "}}");
  Result<SpecDocument> legacy =
      SpecFromJsonText(base + R"(, "check_strategy": "copy"}})");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  const ChaseConfig& a = plain.value().spec.config;
  const ChaseConfig& b = legacy.value().spec.config;
  EXPECT_EQ(a.builtin_axioms, b.builtin_axioms);
  EXPECT_EQ(a.keep_orders, b.keep_orders);
  EXPECT_EQ(a.max_actions, b.max_actions);
  // And it is not written back out.
  EXPECT_EQ(SpecToJson(legacy.value()).Dump(2),
            SpecToJson(plain.value()).Dump(2));
}

TEST(SpecIo, IntegerCellWidensForDoubleAttribute) {
  const std::string text = R"json({
    "entity": {"schema": [{"name": "x", "type": "double"}], "tuples": [[3]]}
  })json";
  Result<SpecDocument> doc = SpecFromJsonText(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Value& v = doc.value().spec.ie.tuple(0).at(0);
  EXPECT_EQ(v.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v.as_double(), 3.0);
}

TEST(SpecIo, RejectsTypeMismatchedCell) {
  const std::string text = R"json({
    "entity": {"schema": [{"name": "x", "type": "int"}], "tuples": [["oops"]]}
  })json";
  Result<SpecDocument> doc = SpecFromJsonText(text);
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("'x'"), std::string::npos);
}

TEST(SpecIo, RejectsArityMismatch) {
  const std::string text = R"json({
    "entity": {"schema": [{"name": "x", "type": "int"},
                          {"name": "y", "type": "int"}],
               "tuples": [[1]]}
  })json";
  ASSERT_FALSE(SpecFromJsonText(text).ok());
}

TEST(SpecIo, RejectsUnknownAttributeType) {
  const std::string text = R"json({
    "entity": {"schema": [{"name": "x", "type": "decimal"}], "tuples": []}
  })json";
  Result<SpecDocument> doc = SpecFromJsonText(text);
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("decimal"), std::string::npos);
}

TEST(SpecIo, RejectsBadRuleProgramWithDiagnostics) {
  const std::string text = R"json({
    "entity": {"name": "stat",
               "schema": [{"name": "x", "type": "int"}], "tuples": []},
    "rules": "rule r: forall t1, t2 in stat (t1[bogus] = t2[x] -> t1 <= t2 on [x])"
  })json";
  Result<SpecDocument> doc = SpecFromJsonText(text);
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("bogus"), std::string::npos);
}

TEST(SpecIo, RulesCanReferenceNamedMasters) {
  const std::string text = R"json({
    "entity": {"name": "stat",
               "schema": [{"name": "x", "type": "string"}], "tuples": []},
    "masters": [{"name": "ref",
                 "schema": [{"name": "y", "type": "string"}],
                 "tuples": [["v"]]}],
    "rules": "rule m: forall tm in ref (te[x] = tm[y] -> te[x] := tm[y])"
  })json";
  Result<SpecDocument> doc = SpecFromJsonText(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc.value().spec.rules.size(), 1u);
  EXPECT_EQ(doc.value().spec.rules[0].form, AccuracyRule::Form::kMaster);
  EXPECT_EQ(doc.value().spec.rules[0].master_index, 0);
}

TEST(SpecIo, OutcomeSerialization) {
  Specification spec = MjSpecification();
  ChaseOutcome outcome = IsCR(spec);
  ASSERT_TRUE(outcome.church_rosser);
  Json json = OutcomeToJson(outcome, spec.ie.schema());
  EXPECT_TRUE(json.GetBool("church_rosser").value());
  EXPECT_TRUE(json.GetBool("complete").value());
  const Json* target = json.Find("target");
  ASSERT_NE(target, nullptr);
  EXPECT_EQ(target->GetString("MN").value(), "Jeffrey");
  EXPECT_EQ(target->GetInt("totalPts").value(), 772);
  EXPECT_GT(json.Find("stats")->GetInt("steps_applied").value(), 0);
}

TEST(SpecIo, NonChurchRosserOutcomeSerialization) {
  Specification spec = MjSpecification();
  spec.rules.push_back(testing_fixture::Phi12(spec.ie.schema()));
  ChaseOutcome outcome = IsCR(spec);
  ASSERT_FALSE(outcome.church_rosser);
  Json json = OutcomeToJson(outcome, spec.ie.schema());
  EXPECT_FALSE(json.GetBool("church_rosser").value());
  EXPECT_TRUE(json.Find("target")->is_null());
  EXPECT_FALSE(json.GetString("violation").value().empty());
}

TEST(SpecIo, CsvReferenceLoadsRows) {
  const std::string dir = ::testing::TempDir();
  const std::string csv_path = dir + "/relacc_rows.csv";
  ASSERT_TRUE(WriteFile(csv_path, "A,B\n1,x\n2,y\n,z\n").ok());
  const std::string text = R"json({
    "entity": {
      "schema": [{"name": "A", "type": "int"}, {"name": "B", "type": "string"}],
      "tuples": [[0, "inline"]],
      "tuples_csv": "relacc_rows.csv"
    }
  })json";
  Result<SpecDocument> doc = SpecFromJsonText(text, dir);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Relation& ie = doc.value().spec.ie;
  ASSERT_EQ(ie.size(), 4);  // 1 inline + 3 from the CSV
  EXPECT_EQ(ie.tuple(0).at(1), Value::Str("inline"));
  EXPECT_EQ(ie.tuple(1).at(0), Value::Int(1));
  EXPECT_EQ(ie.tuple(3).at(0), Value::Null());  // empty cell -> null
  EXPECT_EQ(ie.tuple(3).at(1), Value::Str("z"));
  std::remove(csv_path.c_str());
}

TEST(SpecIo, MissingCsvReferenceFailsCleanly) {
  const std::string text = R"json({
    "entity": {"schema": [{"name": "A", "type": "int"}],
               "tuples_csv": "does-not-exist.csv"}
  })json";
  Result<SpecDocument> doc = SpecFromJsonText(text, ::testing::TempDir());
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kIoError);
}

TEST(SpecIo, CsvHeaderMismatchIsAParseError) {
  const std::string dir = ::testing::TempDir();
  const std::string csv_path = dir + "/relacc_badheader.csv";
  ASSERT_TRUE(WriteFile(csv_path, "WRONG\n1\n").ok());
  const std::string text = R"json({
    "entity": {"schema": [{"name": "A", "type": "int"}],
               "tuples_csv": "relacc_badheader.csv"}
  })json";
  Result<SpecDocument> doc = SpecFromJsonText(text, dir);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
  std::remove(csv_path.c_str());
}

TEST(SpecIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/relacc_spec_io_test.json";
  Json json = SpecToJson(MjDocument());
  ASSERT_TRUE(WriteFile(path, json.Dump(2)).ok());
  Result<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), json.Dump(2));
  std::remove(path.c_str());

  Result<std::string> missing = ReadFile(path + ".does-not-exist");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace relacc
