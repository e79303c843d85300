// Tests for the dictionary-encoded storage layer (core/dictionary.h,
// core/columnar.h) and its end-to-end identity guarantees: TermId
// equality must coincide with Value equality (including the numeric
// cross-type classes), FromRelation/ToRelation must round-trip exactly,
// the TermId grounder must produce the naive oracle's Value-level program
// step for step, and the service must reproduce, byte for byte and
// across thread budgets, the pipeline/top-k reports pinned from the
// former row storage.

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/accuracy_service.h"
#include "chase/explain.h"
#include "core/columnar.h"
#include "core/dictionary.h"
#include "datagen/profile_generator.h"
#include "io/spec_io.h"
#include "rules/grounding.h"

namespace relacc {
namespace {

EntityDataset SmallMed(uint64_t seed = 5, int entities = 24,
                       double corruption = -1.0) {
  ProfileConfig config = MedConfig(seed);
  config.num_entities = entities;
  config.master_size = 45;
  if (corruption >= 0.0) config.free_corruption_prob = corruption;
  return GenerateProfile(config);
}

Specification SpecOf(const EntityDataset& ds, Relation ie) {
  Specification spec;
  spec.ie = std::move(ie);
  spec.masters = ds.masters;
  spec.rules = ds.rules;
  spec.config = ds.chase_config;
  return spec;
}

std::unique_ptr<AccuracyService> MakeService(Specification spec,
                                             ServiceOptions options) {
  Result<std::unique_ptr<AccuracyService>> service =
      AccuracyService::Create(std::move(spec), std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

/// Every observable field of a PipelineReport — "byte identical" means
/// these strings match.
std::string Serialize(const PipelineReport& r) {
  std::ostringstream os;
  for (const EntityReport& e : r.entities) {
    os << e.entity_id << '|' << e.num_tuples << '|' << e.church_rosser
       << '|' << e.complete << '|' << e.used_candidate << '|'
       << e.deduced_attrs << '|' << e.target.ToString() << '|'
       << e.violation << '\n';
  }
  os << r.targets.ToCsv();
  os << r.total_tuples << ' ' << r.num_church_rosser << ' '
     << r.num_complete_by_chase << ' ' << r.num_completed_by_candidates
     << ' ' << r.num_incomplete << ' ' << r.deduced_attr_fraction;
  return os.str();
}

std::string Serialize(const TopKResult& r) {
  std::ostringstream os;
  for (std::size_t i = 0; i < r.targets.size(); ++i) {
    os << r.targets[i].ToString() << '@' << r.scores[i] << '\n';
  }
  os << r.checks << ' ' << r.heap_pops;
  return os.str();
}

// --- dictionary ------------------------------------------------------------

TEST(DictionaryTest, NullAndBasicInterning) {
  Dictionary dict;
  EXPECT_EQ(dict.Intern(Value::Null()), kNullTermId);
  const TermId a = dict.Intern(Value::Str("alpha"));
  const TermId b = dict.Intern(Value::Str("beta"));
  EXPECT_NE(a, kNullTermId);
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern(Value::Str("alpha")), a);
  EXPECT_EQ(dict.value(a), Value::Str("alpha"));
  EXPECT_EQ(dict.value(kNullTermId), Value::Null());
}

TEST(DictionaryTest, NumericCrossTypeClassesShareOneId) {
  // Value::operator== is cross-type numeric (Int(3) == Real(3.0)) and
  // ValueHash collides the classes on purpose; the dictionary must give
  // the whole class ONE id so id equality is value equality.
  Dictionary dict;
  const TermId i3 = dict.Intern(Value::Int(3));
  EXPECT_EQ(dict.Intern(Value::Real(3.0)), i3);
  EXPECT_NE(dict.Intern(Value::Real(3.5)), i3);
  EXPECT_NE(dict.Intern(Value::Str("3")), i3);
  // The representative is whichever member was interned first; it is
  // ==-equal to every member of the class.
  EXPECT_EQ(dict.value(i3), Value::Int(3));
  EXPECT_EQ(dict.value(i3), Value::Real(3.0));
}

TEST(DictionaryTest, IdEqualityMatchesValueEqualityAndHash) {
  Dictionary dict;
  const std::vector<Value> values = {
      Value::Int(0),     Value::Real(0.0),   Value::Int(7),
      Value::Real(7.5),  Value::Str("7"),    Value::Str(""),
      Value::Bool(true), Value::Bool(false), Value::Int(-2),
      Value::Real(-2.0)};
  std::vector<TermId> ids;
  ids.reserve(values.size());
  for (const Value& v : values) ids.push_back(dict.Intern(v));
  ValueHash hash;
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t j = 0; j < values.size(); ++j) {
      EXPECT_EQ(ids[i] == ids[j], values[i] == values[j])
          << values[i].ToString() << " vs " << values[j].ToString();
      if (values[i] == values[j]) {
        EXPECT_EQ(hash(values[i]), hash(values[j]));
      }
    }
  }
}

TEST(DictionaryTest, ConcurrentInterningYieldsConsistentIds) {
  // Hammer one dictionary from several threads with an overlapping value
  // set; every thread must observe the same Value -> id mapping.
  Dictionary dict;
  constexpr int kThreads = 4;
  constexpr int kValues = 500;
  std::vector<std::vector<TermId>> seen(kThreads,
                                        std::vector<TermId>(kValues));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dict, &seen, t] {
      for (int v = 0; v < kValues; ++v) {
        // Interleave types so the numeric classes race too.
        seen[t][v] = (v % 2 == 0) ? dict.Intern(Value::Int(v / 2))
                                  : dict.Intern(Value::Real((v - 1) / 2.0));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);
  }
  // Even v and the following odd v are the same numeric class.
  for (int v = 0; v + 1 < kValues; v += 2) {
    EXPECT_EQ(seen[0][v], seen[0][v + 1]);
  }
}

// --- columnar round-trip ---------------------------------------------------

TEST(ColumnarRoundTrip, MedProfileIsIdentity) {
  const EntityDataset ds = SmallMed();
  Dictionary dict;
  for (const EntityInstance& e : ds.entities) {
    const ColumnarRelation col = ColumnarRelation::FromRelation(e, &dict);
    const Relation back = col.ToRelation();
    ASSERT_EQ(back.size(), e.size());
    for (int i = 0; i < e.size(); ++i) {
      for (AttrId a = 0; a < ds.schema.size(); ++a) {
        const Value& orig = e.tuple(i).at(a);
        const Value& got = back.tuple(i).at(a);
        EXPECT_EQ(got, orig);
        // Not merely ==-equal: the schema-typed cell comes back with its
        // exact representation.
        EXPECT_EQ(got.type(), orig.type());
      }
      EXPECT_EQ(back.tuple(i).id(), e.tuple(i).id());
      EXPECT_EQ(back.tuple(i).source(), e.tuple(i).source());
      EXPECT_EQ(back.tuple(i).snapshot(), e.tuple(i).snapshot());
    }
  }
}

TEST(ColumnarRoundTrip, EmptyRelation) {
  const EntityDataset ds = SmallMed();
  Dictionary dict;
  const Relation empty(ds.schema);
  const ColumnarRelation col = ColumnarRelation::FromRelation(empty, &dict);
  EXPECT_TRUE(col.empty());
  EXPECT_EQ(col.ToRelation().size(), 0);
}

TEST(ColumnarRoundTrip, ForeignRepresentativeCoercesBackToSchemaType) {
  // Pre-intern Real(3.0) so the class representative is a double, then
  // round-trip an int-typed cell of the same class: MaterializeAs must
  // hand back Int(3), not the double representative.
  const Schema schema({{"x", ValueType::kInt}});
  Dictionary dict;
  ASSERT_NE(dict.Intern(Value::Real(3.0)), kNullTermId);
  Relation rel(schema);
  rel.Add(Tuple({Value::Int(3)}));
  const ColumnarRelation col = ColumnarRelation::FromRelation(rel, &dict);
  const Relation back = col.ToRelation();
  EXPECT_EQ(back.tuple(0).at(0), Value::Int(3));
  EXPECT_EQ(back.tuple(0).at(0).type(), ValueType::kInt);
}

// --- columnar grounding ----------------------------------------------------

TEST(ColumnarGrounding, ProgramIdenticalToRow) {
  const EntityDataset ds = SmallMed(/*seed=*/11, /*entities=*/8);
  Dictionary dict;
  for (const EntityInstance& e : ds.entities) {
    const GroundProgram reference =
        ReferenceInstantiate(e, ds.masters, ds.rules);
    const ColumnarRelation col = ColumnarRelation::FromRelation(e, &dict);
    const GroundProgram columnar = Instantiate(col, ds.masters, ds.rules);
    EXPECT_TRUE(columnar == reference);
  }
}

// --- service reports -------------------------------------------------------

TEST(ColumnarService, PipelineReportsByteIdenticalToRow) {
  // tests/golden/service_pipeline_small_med.txt is Serialize() of this
  // run on the former row storage, which every budget reproduced.
  Result<std::string> golden = ReadFile(
      std::string(RELACC_SOURCE_DIR) +
      "/tests/golden/service_pipeline_small_med.txt");
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  const EntityDataset ds = SmallMed();
  for (const int budget : {1, 4}) {
    ServiceOptions options;
    options.num_threads = budget;
    options.window = 5;
    auto service = MakeService(SpecOf(ds, Relation(ds.schema)), options);
    Result<std::unique_ptr<PipelineSession>> session =
        service->StartPipeline();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (std::size_t begin = 0; begin < ds.entities.size(); begin += 7) {
      const std::size_t end = std::min(ds.entities.size(), begin + 7);
      ASSERT_TRUE(session.value()
                      ->Submit({ds.entities.begin() + begin,
                                ds.entities.begin() + end})
                      .ok());
    }
    Result<PipelineReport> report = session.value()->Finish();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(Serialize(report.value()), golden.value()) << "budget " << budget;
  }
}

TEST(ColumnarService, TopKAndDeduceByteIdenticalToRow) {
  // Fully corrupted free attributes leave entity 4's deduced target one
  // attribute short, so TopK genuinely checks candidates through the
  // checker. The strings are the former row storage's output, which
  // every budget reproduced.
  const EntityDataset ds = SmallMed(/*seed=*/17, /*entities=*/6,
                                    /*corruption=*/1.0);
  const std::string prefix =
      "(med-e4 | 8 | v8_med_a2_v7 | v8_med_a3_v11 | v8_med_a4_v7 | "
      "v8_med_a5_v11 | v8_med_a6_v3 | v8_med_a7_v7 | v8_med_a8_v3 | "
      "v8_med_a9_v7 | v8_med_a10_v11 | med_a11_v5 | med_a12_v5 | med_a13_v1 | "
      "med_a14_v1 | med_a15_v9 | med_a16_v1 | med_a17_v9 | med_a18_v9 | "
      "med_a19_v5 | med_a20_v5 | med_a21_v1 | med_a22_v1 | med_a23_v9 | "
      "med_a24_v5 | med_a25_v1 | med_a26_v1 | med_a27_v9 | med_a28_v9 | ";
  const std::string deduced = prefix + "null)";
  const std::string topk = prefix + "med_a29_v5)@79\n" + prefix +
                           "med_a29_v5~alt)@78\n2 2";
  for (const int budget : {1, 4}) {
    ServiceOptions options;
    options.num_threads = budget;
    auto service = MakeService(SpecOf(ds, ds.entities[4]), options);
    Result<ChaseOutcome> outcome = service->DeduceEntity();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome.value().church_rosser);
    EXPECT_EQ(outcome.value().target.ToString(), deduced)
        << "budget " << budget;
    Result<TopKResult> result = service->TopK(5);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Serialize(result.value()), topk) << "budget " << budget;
  }
}

TEST(ColumnarService, SpecDocumentDictionaryIsShared) {
  // The service accepts a caller-provided dictionary (as the CLI passes
  // the parse-time one) and keeps interning into it.
  const EntityDataset ds = SmallMed(/*seed=*/23, /*entities=*/4);
  auto dict = std::make_shared<Dictionary>();
  const std::size_t before = dict->size();
  ServiceOptions options;
  options.dictionary = dict;
  auto service = MakeService(SpecOf(ds, ds.entities[0]), options);
  Result<ChaseOutcome> outcome = service->DeduceEntity();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(service->dictionary(), dict.get());
  EXPECT_GT(dict->size(), before);
}

}  // namespace
}  // namespace relacc
