// Tests for the snapshot subsystem (src/snapshot/): the CRC-32
// primitives (known vectors, seed chaining, Crc32Combine against
// concatenation), the dictionary bulk-load path behind warm starts,
// artifact round-trips through SnapshotReader, cold-vs-warm service
// identity (deduce / top-k / candidate checks, including a failed
// checkpoint), and corruption handling — every
// damaged artifact must fail Open cleanly with kDataLoss or
// kInvalidArgument before any service state is built.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/accuracy_service.h"
#include "core/dictionary.h"
#include "datagen/profile_generator.h"
#include "framework/framework.h"
#include "snapshot/format.h"
#include "snapshot/reader.h"

namespace relacc {
namespace {

using snapshot::Crc32;
using snapshot::Crc32Combine;
using snapshot::SnapshotReader;

EntityDataset SmallMed(uint64_t seed = 5, int entities = 24) {
  ProfileConfig config = MedConfig(seed);
  config.num_entities = entities;
  config.master_size = 45;
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

std::unique_ptr<AccuracyService> ColdService(const EntityDataset& ds,
                                             Relation ie) {
  ServiceOptions options;
  options.num_threads = 2;
  return MakeService(SpecOf(ds, std::move(ie)), std::move(options));
}

/// Builds a service over entity 0 of `ds`, snapshots it to a
/// temp file named after `tag`, and returns the path.
std::string WriteArtifact(const EntityDataset& ds, Relation ie,
                          const std::string& tag) {
  std::unique_ptr<AccuracyService> service = ColdService(ds, std::move(ie));
  const std::string path =
      ::testing::TempDir() + "/relacc_snapshot_" + tag + ".snap";
  const Status written = service->WriteSnapshot(path);
  EXPECT_TRUE(written.ok()) << written.ToString();
  return path;
}

std::unique_ptr<AccuracyService> WarmService(const std::string& path) {
  ServiceOptions options;
  options.snapshot_path = path;
  options.num_threads = 2;
  return MakeService(Specification(), std::move(options));
}

std::vector<uint8_t> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path,
                   const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

std::string Serialize(const ChaseOutcome& o) {
  std::ostringstream os;
  os << o.church_rosser << '|' << o.target.ToString() << '|' << o.violation
     << '|' << o.stats.ground_steps << '|' << o.stats.steps_applied << '|'
     << o.stats.pairs_derived;
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

// --- CRC primitives --------------------------------------------------------

TEST(SnapshotCrcTest, KnownVectorAndSeedChaining) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);

  // Seed chaining: CRC of the halves chained equals CRC of the whole.
  for (std::size_t split : {std::size_t{0}, std::size_t{3}, check.size()}) {
    const uint32_t first = Crc32(check.data(), split);
    EXPECT_EQ(Crc32(check.data() + split, check.size() - split, first),
              Crc32(check.data(), check.size()));
  }
}

TEST(SnapshotCrcTest, CombineMatchesConcatenation) {
  // A buffer long enough to exercise the word-at-a-time loop, with a
  // deterministic non-trivial fill.
  std::vector<uint8_t> buf(4096 + 13);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint32_t whole = Crc32(buf.data(), buf.size());
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                            std::size_t{63}, std::size_t{4096}, buf.size()}) {
    const uint32_t a = Crc32(buf.data(), split);
    const uint32_t b = Crc32(buf.data() + split, buf.size() - split);
    EXPECT_EQ(Crc32Combine(a, b, buf.size() - split), whole)
        << "split=" << split;
  }

  // Three-way stitching, the shape the parallel reader produces.
  const uint32_t p0 = Crc32(buf.data(), 1000);
  const uint32_t p1 = Crc32(buf.data() + 1000, 2000);
  const uint32_t p2 = Crc32(buf.data() + 3000, buf.size() - 3000);
  uint32_t stitched = Crc32Combine(p0, p1, 2000);
  stitched = Crc32Combine(stitched, p2, buf.size() - 3000);
  EXPECT_EQ(stitched, whole);
}

// --- dictionary bulk load --------------------------------------------------

TEST(SnapshotDictionaryTest, AppendForLoadKeepsIdsAndRebuildsIndexLazily) {
  Dictionary dict;
  const TermId a = dict.AppendForLoad(Value::Str("alpha"));
  const TermId b = dict.AppendForLoad(Value::Int(7));
  const TermId c = dict.AppendForLoad(Value::Str("gamma"));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(c, 3u);
  EXPECT_EQ(dict.size(), 4u);  // + the reserved null slot
  EXPECT_EQ(dict.value(a), Value::Str("alpha"));
  EXPECT_EQ(dict.value(b), Value::Int(7));

  // The lookup index was skipped during the bulk load; the first
  // Lookup/Intern must rebuild it and find every loaded term.
  EXPECT_EQ(dict.Lookup(Value::Str("gamma")), std::optional<TermId>(c));
  EXPECT_EQ(dict.Intern(Value::Int(7)), b);
  EXPECT_EQ(dict.Intern(Value::Real(7.0)), b);  // cross-type class intact

  // New interns continue the id sequence after the loaded terms.
  const TermId d = dict.Intern(Value::Str("delta"));
  EXPECT_EQ(d, 4u);
  EXPECT_EQ(dict.Lookup(Value::Str("alpha")), std::optional<TermId>(a));
}

// --- round trip ------------------------------------------------------------

TEST(SnapshotRoundTripTest, InfoAndSectionsSurviveTheTrip) {
  const EntityDataset ds = SmallMed();
  const std::string path =
      WriteArtifact(ds, ds.SpecFor(0).ie, "roundtrip");

  Result<std::unique_ptr<SnapshotReader>> opened = SnapshotReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const SnapshotReader& reader = *opened.value();
  const SnapshotReader::Info& info = reader.info();

  EXPECT_EQ(info.sections.size(), 7u);
  EXPECT_EQ(info.num_masters, static_cast<int>(ds.masters.size()));
  EXPECT_EQ(info.entity_rows,
            static_cast<int64_t>(ds.SpecFor(0).ie.size()));
  EXPECT_GT(info.dict_terms, 1);
  EXPECT_GT(info.program_steps, 0);
  EXPECT_TRUE(info.checkpoint_ok);
  EXPECT_EQ(info.file_size, std::filesystem::file_size(path));

  // Every typed loader decodes its verified section.
  Dictionary dict;
  ASSERT_TRUE(reader.LoadDictionary(&dict).ok());
  EXPECT_EQ(static_cast<int64_t>(dict.size()), info.dict_terms);
  // A second load needs a fresh dictionary.
  EXPECT_EQ(reader.LoadDictionary(&dict).code(),
            StatusCode::kFailedPrecondition);

  Result<ColumnarRelation> entity = reader.LoadEntity(&dict);
  ASSERT_TRUE(entity.ok()) << entity.status().ToString();
  EXPECT_EQ(static_cast<int64_t>(entity.value().size()), info.entity_rows);
  for (int m = 0; m < info.num_masters; ++m) {
    Result<ColumnarRelation> master = reader.LoadMaster(m, &dict);
    ASSERT_TRUE(master.ok()) << master.status().ToString();
    EXPECT_EQ(master.value().size(), ds.masters[m].size());
  }
  EXPECT_FALSE(reader.LoadMaster(info.num_masters, &dict).ok());

  Result<std::vector<AccuracyRule>> rules = reader.LoadRules();
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules.value().size(), ds.rules.size());
  Result<GroundProgram> program = reader.LoadProgram();
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(static_cast<int64_t>(program.value().steps.size()),
            info.program_steps);
  Result<ChaseCheckpoint> checkpoint = reader.LoadCheckpoint();
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_TRUE(checkpoint.value().ok);
  std::filesystem::remove(path);
}

// --- cold vs warm identity -------------------------------------------------

TEST(SnapshotServiceTest, WarmServiceReproducesColdOutcomes) {
  const EntityDataset ds = SmallMed();
  const Relation ie = ds.SpecFor(0).ie;
  std::unique_ptr<AccuracyService> cold = ColdService(ds, ie);
  const std::string path =
      ::testing::TempDir() + "/relacc_snapshot_identity.snap";
  ASSERT_TRUE(cold->WriteSnapshot(path).ok());
  std::unique_ptr<AccuracyService> warm = WarmService(path);

  EXPECT_STREQ(warm->storage_mode(), "snapshot");
  EXPECT_STREQ(cold->storage_mode(), "columnar");

  Result<ChaseOutcome> cold_outcome = cold->DeduceEntity();
  Result<ChaseOutcome> warm_outcome = warm->DeduceEntity();
  ASSERT_TRUE(cold_outcome.ok() && warm_outcome.ok());
  EXPECT_EQ(Serialize(cold_outcome.value()), Serialize(warm_outcome.value()));

  Result<TopKResult> cold_topk = cold->TopK(3);
  Result<TopKResult> warm_topk = warm->TopK(3);
  ASSERT_TRUE(cold_topk.ok() && warm_topk.ok())
      << cold_topk.status().ToString() << warm_topk.status().ToString();
  EXPECT_EQ(Serialize(cold_topk.value()), Serialize(warm_topk.value()));

  // Candidate checks over the top-k targets (valid candidates by
  // construction) agree verdict for verdict.
  Result<std::vector<char>> cold_verdicts =
      cold->CheckCandidates(cold_topk.value().targets);
  Result<std::vector<char>> warm_verdicts =
      warm->CheckCandidates(cold_topk.value().targets);
  ASSERT_TRUE(cold_verdicts.ok() && warm_verdicts.ok());
  EXPECT_EQ(cold_verdicts.value(), warm_verdicts.value());

  // Ad-hoc deduction over a different entity also agrees (the warm
  // service materializes masters lazily for this).
  const Relation other = ds.SpecFor(1).ie;
  Result<ChaseOutcome> cold_adhoc = cold->DeduceEntity(other);
  Result<ChaseOutcome> warm_adhoc = warm->DeduceEntity(other);
  ASSERT_TRUE(cold_adhoc.ok() && warm_adhoc.ok());
  EXPECT_EQ(Serialize(cold_adhoc.value()), Serialize(warm_adhoc.value()));
  std::filesystem::remove(path);
}

TEST(SnapshotServiceTest, WarmAndColdAgreeOnPerEntityPaths) {
  // Per-entity work grounds only the entity's pair rules and shares the
  // service's master block, built on first use: a warm service builds it
  // from the mapped masters, a cold one from the spec's rows. Ad-hoc
  // deduction, interactive sessions and pipelines must answer
  // byte-identically either way.
  const EntityDataset ds = SmallMed(/*seed=*/1, /*entities=*/40);
  const std::string path = WriteArtifact(ds, ds.SpecFor(0).ie, "per_entity");
  std::unique_ptr<AccuracyService> cold = ColdService(ds, ds.SpecFor(0).ie);
  std::unique_ptr<AccuracyService> warm = WarmService(path);

  const auto describe = [](const FrameworkResult& r) {
    std::ostringstream os;
    os << r.church_rosser << '|' << r.found_complete_target << '|'
       << r.target.ToString() << '|' << r.interaction_rounds << '|'
       << r.automatic_attrs;
    for (std::size_t i = 0; i < r.last_topk.targets.size(); ++i) {
      os << '|' << r.last_topk.targets[i].ToString() << '@'
         << r.last_topk.scores[i];
    }
    return os.str();
  };
  int interactions = 0;
  for (std::size_t i = 0; i < ds.entities.size(); ++i) {
    const Relation& entity = ds.entities[i];
    Result<ChaseOutcome> c = cold->DeduceEntity(entity);
    Result<ChaseOutcome> w = warm->DeduceEntity(entity);
    ASSERT_TRUE(c.ok() && w.ok());
    EXPECT_EQ(Serialize(c.value()), Serialize(w.value())) << "entity " << i;
    if (!c.value().church_rosser || c.value().target.IsComplete() ||
        interactions >= 6) {
      continue;
    }
    ++interactions;
    std::string results[2];
    AccuracyService* services[2] = {cold.get(), warm.get()};
    for (int s = 0; s < 2; ++s) {
      InteractionOptions options;
      options.k = 3;
      Result<std::unique_ptr<InteractionSession>> session =
          services[s]->StartInteraction(entity, options);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      SimulatedUser user(ds.truths[i]);
      results[s] = describe(DriveInteraction(*session.value(), &user, 8));
    }
    EXPECT_EQ(results[0], results[1]) << "entity " << i;
  }
  EXPECT_GT(interactions, 0) << "fixture drift: every entity is complete";

  std::vector<std::string> reports[2];
  AccuracyService* services[2] = {cold.get(), warm.get()};
  for (int s = 0; s < 2; ++s) {
    PipelineSessionOptions options;
    options.window = 8;
    Result<std::unique_ptr<PipelineSession>> session =
        services[s]->StartPipeline(options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE(session.value()->Submit(ds.entities).ok());
    Result<PipelineReport> report = session.value()->Finish();
    ASSERT_TRUE(report.ok());
    for (const EntityReport& e : report.value().entities) {
      std::ostringstream os;
      os << e.entity_id << '|' << e.church_rosser << '|' << e.complete << '|'
         << e.used_candidate << '|' << e.deduced_attrs << '|'
         << e.target.ToString() << '|' << e.violation;
      reports[s].push_back(os.str());
    }
  }
  EXPECT_EQ(reports[0].size(), ds.entities.size());
  EXPECT_EQ(reports[0], reports[1]);
  std::filesystem::remove(path);
}

TEST(SnapshotServiceTest, MasterTablesWaitForTheFirstTopKAndMatchCold) {
  // A snapshot service answers deduce without building the top-k master
  // tables; its first top-k builds them, and its TopK and Suggest answer
  // as a cold service does.
  const EntityDataset ds = SmallMed(/*seed=*/1, /*entities=*/40);
  int incomplete = -1;
  for (int i = 0; i < static_cast<int>(ds.entities.size()); ++i) {
    std::unique_ptr<AccuracyService> probe = ColdService(ds, ds.SpecFor(i).ie);
    Result<ChaseOutcome> outcome = probe->DeduceEntity();
    ASSERT_TRUE(outcome.ok());
    if (outcome.value().church_rosser && !outcome.value().target.IsComplete()) {
      incomplete = i;
      break;
    }
  }
  ASSERT_GE(incomplete, 0) << "fixture drift: every entity is complete";
  const Relation ie = ds.SpecFor(incomplete).ie;
  const std::string path = WriteArtifact(ds, ie, "master_tables");
  std::unique_ptr<AccuracyService> cold = ColdService(ds, ie);
  std::unique_ptr<AccuracyService> warm = WarmService(path);

  ASSERT_TRUE(warm->DeduceEntity().ok());
  EXPECT_EQ(warm->master_domains(), nullptr) << "deduce built the tables";

  Result<TopKResult> cold_topk = cold->TopK(3);
  Result<TopKResult> warm_topk = warm->TopK(3);
  ASSERT_TRUE(cold_topk.ok() && warm_topk.ok());
  EXPECT_FALSE(warm_topk.value().targets.empty());
  EXPECT_EQ(Serialize(cold_topk.value()), Serialize(warm_topk.value()));
  const MasterDomains* tables = warm->master_domains();
  ASSERT_NE(tables, nullptr);

  std::string suggested[2];
  AccuracyService* services[2] = {cold.get(), warm.get()};
  for (int s = 0; s < 2; ++s) {
    InteractionOptions options;
    options.k = 3;
    Result<std::unique_ptr<InteractionSession>> session =
        services[s]->StartInteraction(options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    Result<Suggestion> suggestion = session.value()->Suggest();
    ASSERT_TRUE(suggestion.ok());
    suggested[s] = suggestion.value().deduced_target.ToString() + "\n" +
                   Serialize(suggestion.value().candidates);
  }
  EXPECT_EQ(suggested[0], suggested[1]);
  EXPECT_EQ(warm->master_domains(), tables);
  std::filesystem::remove(path);
}

TEST(SnapshotServiceTest, FailedCheckpointRoundTrips) {
  // The flat union of every entity's tuples is not Church-Rosser (the
  // same recipe as `relacc gen --flat`); the artifact must carry the
  // failed checkpoint and the warm service must report the identical
  // violation without re-chasing.
  const EntityDataset ds = SmallMed(5, 20);
  Relation all(ds.schema);
  for (const EntityInstance& entity : ds.entities) {
    for (const Tuple& t : entity.tuples()) all.Add(t);
  }
  std::unique_ptr<AccuracyService> cold = ColdService(ds, all);
  Result<ChaseOutcome> cold_outcome = cold->DeduceEntity();
  ASSERT_TRUE(cold_outcome.ok());
  ASSERT_FALSE(cold_outcome.value().church_rosser)
      << "fixture drift: the flat union chased Church-Rosser";

  const std::string path =
      ::testing::TempDir() + "/relacc_snapshot_failed_cp.snap";
  ASSERT_TRUE(cold->WriteSnapshot(path).ok());
  Result<std::unique_ptr<SnapshotReader>> opened = SnapshotReader::Open(path);
  ASSERT_TRUE(opened.ok());
  EXPECT_FALSE(opened.value()->info().checkpoint_ok);

  std::unique_ptr<AccuracyService> warm = WarmService(path);
  Result<ChaseOutcome> warm_outcome = warm->DeduceEntity();
  ASSERT_TRUE(warm_outcome.ok());
  EXPECT_EQ(Serialize(cold_outcome.value()), Serialize(warm_outcome.value()));
  std::filesystem::remove(path);
}

// --- corruption ------------------------------------------------------------

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const EntityDataset ds = SmallMed(5, 8);
    path_ = new std::string(WriteArtifact(ds, ds.SpecFor(0).ie, "corrupt"));
    bytes_ = new std::vector<uint8_t>(ReadAllBytes(*path_));
  }

  static void TearDownTestSuite() {
    std::filesystem::remove(*path_);
    delete path_;
    delete bytes_;
    path_ = nullptr;
    bytes_ = nullptr;
  }

  /// Writes `bytes` to a scratch file and returns Open's status.
  Status OpenStatus(const std::vector<uint8_t>& bytes) {
    const std::string scratch =
        ::testing::TempDir() + "/relacc_snapshot_scratch.snap";
    WriteAllBytes(scratch, bytes);
    Result<std::unique_ptr<SnapshotReader>> opened =
        SnapshotReader::Open(scratch);
    const Status status = opened.status();
    std::filesystem::remove(scratch);
    return status;
  }

  static std::string* path_;
  static std::vector<uint8_t>* bytes_;
};

std::string* SnapshotCorruptionTest::path_ = nullptr;
std::vector<uint8_t>* SnapshotCorruptionTest::bytes_ = nullptr;

TEST_F(SnapshotCorruptionTest, TruncationIsDataLoss) {
  for (std::size_t keep : {std::size_t{0}, std::size_t{10}, std::size_t{40},
                           bytes_->size() / 2, bytes_->size() - 1}) {
    std::vector<uint8_t> cut(bytes_->begin(),
                             bytes_->begin() + static_cast<long>(keep));
    EXPECT_EQ(OpenStatus(cut).code(), StatusCode::kDataLoss)
        << "keep=" << keep;
  }
}

TEST_F(SnapshotCorruptionTest, BadMagicIsInvalidArgument) {
  std::vector<uint8_t> bad = *bytes_;
  bad[0] ^= 0xFF;
  EXPECT_EQ(OpenStatus(bad).code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotCorruptionTest, UnsupportedVersionIsInvalidArgument) {
  std::vector<uint8_t> bad = *bytes_;
  bad[8] = 0xEE;  // format version u32 at offset 8
  const Status status = OpenStatus(bad);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("version"), std::string::npos);
}

TEST_F(SnapshotCorruptionTest, HeaderTamperingIsDataLoss) {
  // Stated file size no longer matches.
  std::vector<uint8_t> bad = *bytes_;
  bad[16] ^= 0x01;
  EXPECT_EQ(OpenStatus(bad).code(), StatusCode::kDataLoss);
  // Section-table bytes no longer match the header CRC.
  bad = *bytes_;
  bad[snapshot::kHeaderBytes + 4] ^= 0x01;  // a reserved table byte
  EXPECT_EQ(OpenStatus(bad).code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotCorruptionTest, EverySectionIsCrcGuarded) {
  Result<std::unique_ptr<SnapshotReader>> opened =
      SnapshotReader::Open(*path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  for (const snapshot::SectionEntry& e : opened.value()->info().sections) {
    if (e.size == 0) continue;
    std::vector<uint8_t> bad = *bytes_;
    bad[static_cast<std::size_t>(e.offset)] ^= 0xFF;
    const Status status = OpenStatus(bad);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << "section type " << static_cast<uint32_t>(e.type);
    EXPECT_NE(status.ToString().find("CRC mismatch"), std::string::npos);
  }
}

TEST_F(SnapshotCorruptionTest, GarbageIsRejected) {
  std::vector<uint8_t> garbage(512);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  const Status status = OpenStatus(garbage);
  EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
              status.code() == StatusCode::kInvalidArgument)
      << status.ToString();
}

TEST(SnapshotFixtureTest, CheckedInBadArtifactsFailCleanly) {
  // Each fixture must be rejected for its stated damage
  // (tests/snapshots/README.md), not for some earlier check.
  const struct {
    const char* file;
    StatusCode code;
    const char* message;
  } expected[] = {
      {"truncated.snap", StatusCode::kDataLoss, "truncated"},
      {"bad_magic.snap", StatusCode::kInvalidArgument, "bad magic"},
      {"bad_version.snap", StatusCode::kInvalidArgument,
       "format version 238 is not supported"},
      {"section_crc.snap", StatusCode::kDataLoss, "snapshot: section 7 CRC"},
      {"table_crc.snap", StatusCode::kDataLoss, "header/table CRC mismatch"},
      {"garbage.snap", StatusCode::kInvalidArgument, "bad magic"},
      {"format_v1.snap", StatusCode::kInvalidArgument,
       "format version 1 is not supported"},
  };
  const std::string dir =
      std::string(RELACC_SOURCE_DIR) + "/tests/snapshots/bad";
  int seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++seen;
    Result<std::unique_ptr<SnapshotReader>> opened =
        SnapshotReader::Open(entry.path().string());
    ASSERT_FALSE(opened.ok()) << entry.path() << " opened successfully";
    const StatusCode code = opened.status().code();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kInvalidArgument)
        << entry.path() << ": " << opened.status().ToString();
    for (const auto& e : expected) {
      if (entry.path().filename() != e.file) continue;
      EXPECT_EQ(code, e.code) << e.file << ": " << opened.status().ToString();
      EXPECT_NE(opened.status().message().find(e.message), std::string::npos)
          << e.file << ": " << opened.status().ToString();
    }
  }
  EXPECT_EQ(seen, static_cast<int>(std::size(expected)))
      << "fixture directory and expectation table disagree";
}

}  // namespace
}  // namespace relacc
