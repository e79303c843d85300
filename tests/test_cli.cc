#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>
#include <unistd.h>

#include <gtest/gtest.h>

#include "chase/chase_engine.h"
#include "cli/args.h"
#include "cli/commands.h"
#include "io/spec_io.h"
#include "mj_fixture.h"
#include "serve/socket.h"

namespace relacc {
namespace {

using testing_fixture::MjSpecification;
using testing_fixture::Phi12;

// --- Args ---------------------------------------------------------------------

TEST(Args, ParsesCommandPositionalsAndFlags) {
  Result<Args> args = Args::Parse(
      {"topk", "spec.json", "--k=7", "--algo", "heuristic", "--json"});
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  EXPECT_EQ(args.value().command(), "topk");
  ASSERT_EQ(args.value().positionals().size(), 1u);
  EXPECT_EQ(args.value().positionals()[0], "spec.json");
  EXPECT_EQ(args.value().GetInt("k", 0).value(), 7);
  EXPECT_EQ(args.value().GetString("algo"), "heuristic");
  EXPECT_TRUE(args.value().Has("json"));
  EXPECT_FALSE(args.value().Has("quiet"));
}

TEST(Args, DoubleDashEndsFlagParsing) {
  Result<Args> args = Args::Parse({"check", "--json", "--", "--weird-file"});
  ASSERT_TRUE(args.ok());
  ASSERT_EQ(args.value().positionals().size(), 1u);
  EXPECT_EQ(args.value().positionals()[0], "--weird-file");
}

TEST(Args, RejectsShortOptionsAndEmptyInput) {
  EXPECT_FALSE(Args::Parse({"check", "-j"}).ok());
  EXPECT_FALSE(Args::Parse({}).ok());
  // After a flag, a non-numeric `-x` is not a value, so it still fails
  // as a short option; a lone `-` stays a positional.
  EXPECT_FALSE(Args::Parse({"topk", "--k", "-x"}).ok());
  EXPECT_FALSE(Args::Parse({"topk", "--k", "-1x"}).ok());
  Result<Args> dash = Args::Parse({"topk", "--json", "-"});
  ASSERT_TRUE(dash.ok());
  EXPECT_EQ(dash.value().GetString("json"), "");
  ASSERT_EQ(dash.value().positionals().size(), 1u);
  EXPECT_EQ(dash.value().positionals()[0], "-");
}

TEST(Args, NegativeIntegerAfterAFlagIsItsValue) {
  Result<Args> args = Args::Parse(
      {"serve", "spec.json", "--port", "-1", "--window", "-99999999999999999999"});
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  EXPECT_EQ(args.value().GetInt("port", 0).value(), -1);
  ASSERT_EQ(args.value().positionals().size(), 1u);
  // Out of int64_t's range: the flag's own error, not a parse error.
  Result<int64_t> window = args.value().GetInt("window", 0);
  ASSERT_FALSE(window.ok());
  EXPECT_NE(window.status().message().find("--window is out of range"),
            std::string::npos);
}

TEST(Args, IntFlagValidation) {
  Result<Args> args = Args::Parse({"topk", "--k", "abc"});
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(args.value().GetInt("k", 0).ok());
}

TEST(Args, IntFlagOutsideInt64IsRejectedNotClamped) {
  // strtoll clamps to INT64_MAX/MIN and sets ERANGE; the flag must not
  // run as if the bound had been given.
  for (const char* v : {"99999999999999999999", "-99999999999999999999"}) {
    Result<Args> args =
        Args::Parse({"pipeline", std::string("--window=") + v});
    ASSERT_TRUE(args.ok());
    Result<int64_t> window = args.value().GetInt("window", 0);
    ASSERT_FALSE(window.ok()) << v;
    EXPECT_EQ(window.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(window.status().message().find("--window"), std::string::npos);
    EXPECT_NE(window.status().message().find(v), std::string::npos);
  }
  Result<Args> args = Args::Parse({"pipeline", "--window=9223372036854775807"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args.value().GetInt("window", 0).value(), INT64_MAX);
}

TEST(Args, BooleanFlagsNeverTakeTheNextToken) {
  for (const char* flag : {"--json", "--quiet", "--rules-only", "--flat",
                           "--werror", "--snapshot-strict"}) {
    Result<Args> args = Args::Parse({"check", flag, "spec.json"});
    ASSERT_TRUE(args.ok()) << flag;
    ASSERT_EQ(args.value().positionals().size(), 1u) << flag;
    EXPECT_EQ(args.value().positionals()[0], "spec.json") << flag;
    EXPECT_TRUE(args.value().Has(std::string(flag).substr(2))) << flag;
  }
  // A valued flag still takes it.
  Result<Args> valued = Args::Parse({"topk", "--algo", "heuristic"});
  ASSERT_TRUE(valued.ok());
  EXPECT_TRUE(valued.value().positionals().empty());
  EXPECT_EQ(valued.value().GetString("algo"), "heuristic");
}

TEST(Args, UnreadFlagsAreReported) {
  Result<Args> args = Args::Parse({"check", "--json", "--bogus=1"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args.value().Has("json"));
  std::vector<std::string> unread = args.value().UnreadFlags();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "bogus");
}

// --- commands -------------------------------------------------------------------

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SpecDocument doc;
    doc.spec = MjSpecification();
    doc.entity_name = "stat";
    doc.master_names = {"nba"};
    // gtest_discover_tests runs every test as its own process, and ctest
    // -j runs them concurrently: a shared path would let one test's
    // TearDown delete another's input.
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/relacc_cli_spec_" + test->name() + "_" +
            std::to_string(getpid()) + ".json";
    ASSERT_TRUE(WriteFile(path_, SpecToJson(doc).Dump(2)).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  int Run(std::vector<std::string> argv) {
    out_.str("");
    err_.str("");
    return RunCli(argv, out_, err_);
  }

  std::string path_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, CheckReportsCompleteTarget) {
  int rc = Run({"check", path_});
  EXPECT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("Church-Rosser: yes"), std::string::npos);
  EXPECT_NE(out_.str().find("complete"), std::string::npos);
  EXPECT_NE(out_.str().find("MN = Jeffrey"), std::string::npos);
}

TEST_F(CliTest, CheckJsonOutputParses) {
  int rc = Run({"check", path_, "--json"});
  EXPECT_EQ(rc, 0) << err_.str();
  Result<Json> json = Json::Parse(out_.str());
  ASSERT_TRUE(json.ok()) << out_.str();
  EXPECT_TRUE(json.value().GetBool("church_rosser").value());
  EXPECT_EQ(json.value().Find("target")->GetString("team").value(),
            "Chicago Bulls");
}

TEST_F(CliTest, BooleanFlagFirstMatchesFlagLast) {
  // `relacc <cmd> --json spec.json` is `relacc <cmd> spec.json --json`:
  // a boolean flag never swallows the positional after it.
  const std::string snap = path_ + ".snap";
  ASSERT_EQ(Run({"snapshot", "build", path_, "--out", snap}), 0) << err_.str();
  const std::vector<std::pair<std::vector<std::string>,
                              std::vector<std::string>>>
      orders = {
          {{"check", "--json", path_}, {"check", path_, "--json"}},
          {{"check", "--quiet", path_}, {"check", path_, "--quiet"}},
          {{"topk", "--json", path_, "--k", "3"},
           {"topk", path_, "--k", "3", "--json"}},
          {{"pipeline", "--json", path_, "--key", "league"},
           {"pipeline", path_, "--key", "league", "--json"}},
          {{"lint", "--json", path_}, {"lint", path_, "--json"}},
          {{"snapshot", "info", "--json", snap},
           {"snapshot", "info", snap, "--json"}},
      };
  for (const auto& [first, last] : orders) {
    const int want_rc = Run(last);
    const std::string want = out_.str();
    EXPECT_EQ(want_rc, 0) << last[0] << ": " << err_.str();
    EXPECT_EQ(Run(first), want_rc) << first[0] << ": " << err_.str();
    EXPECT_EQ(out_.str(), want) << first[0];
  }
  std::remove(snap.c_str());
}

TEST_F(CliTest, CheckNonChurchRosserExitCode) {
  SpecDocument doc;
  doc.spec = MjSpecification();
  doc.spec.rules.push_back(Phi12(doc.spec.ie.schema()));
  doc.entity_name = "stat";
  doc.master_names = {"nba"};
  std::string bad = ::testing::TempDir() + "/relacc_cli_bad.json";
  ASSERT_TRUE(WriteFile(bad, SpecToJson(doc).Dump(2)).ok());
  int rc = Run({"check", bad});
  EXPECT_EQ(rc, 3);
  EXPECT_NE(out_.str().find("NOT Church-Rosser"), std::string::npos);
  std::remove(bad.c_str());
}

TEST_F(CliTest, ExplainSingleAttribute) {
  int rc = Run({"explain", path_, "--attr", "totalPts"});
  EXPECT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("te[totalPts] = 772"), std::string::npos);
  EXPECT_NE(out_.str().find("phi1"), std::string::npos);
}

TEST_F(CliTest, ExplainUnknownAttributeFails) {
  int rc = Run({"explain", path_, "--attr", "nope"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("unknown attribute"), std::string::npos);
}

TEST_F(CliTest, TopKOnCompleteTargetSaysSo) {
  int rc = Run({"topk", path_, "--k", "3"});
  EXPECT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("already complete"), std::string::npos);
}

TEST_F(CliTest, TopKRanksCandidatesOnIncompleteSpec) {
  // Drop phi11 so arena is open.
  SpecDocument doc;
  doc.spec = MjSpecification();
  std::vector<AccuracyRule> rules;
  for (const AccuracyRule& r : doc.spec.rules) {
    if (r.name != "phi11") rules.push_back(r);
  }
  doc.spec.rules = std::move(rules);
  doc.entity_name = "stat";
  doc.master_names = {"nba"};
  std::string inc = ::testing::TempDir() + "/relacc_cli_inc.json";
  ASSERT_TRUE(WriteFile(inc, SpecToJson(doc).Dump(2)).ok());

  int rc = Run({"topk", inc, "--k", "2", "--json"});
  EXPECT_EQ(rc, 0) << err_.str();
  Result<Json> json = Json::Parse(out_.str());
  ASSERT_TRUE(json.ok()) << out_.str();
  const Json* candidates = json.value().Find("candidates");
  ASSERT_NE(candidates, nullptr);
  EXPECT_GE(candidates->size(), 1);
  // Candidates keep the deduced values fixed.
  EXPECT_EQ(candidates->at(0).Find("target")->GetString("team").value(),
            "Chicago Bulls");
  std::remove(inc.c_str());
}

TEST_F(CliTest, TopKAlgoValidation) {
  int rc = Run({"topk", path_, "--algo", "nonsense"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("--algo"), std::string::npos);
}

TEST_F(CliTest, TopKRejectsKOutsideIntRange) {
  // Narrowed, 4294967297 would rank 1 candidate and 4294967296 would be
  // reported as "got 0"; both are rejected naming the value given.
  for (const char* k : {"4294967297", "4294967296"}) {
    EXPECT_EQ(Run({"topk", path_, "--k", k}), 2) << k;
    EXPECT_NE(err_.str().find(k), std::string::npos) << err_.str();
  }
}

TEST_F(CliTest, PipelineThreadsIsBounded) {
  // Rejected before any service (and so any thread) is created.
  for (const char* threads : {"257", "-1"}) {
    EXPECT_EQ(Run({"pipeline", path_, "--key", "league", "--threads",
                   threads}),
              2)
        << threads;
    EXPECT_NE(err_.str().find("--threads"), std::string::npos) << err_.str();
  }
}

TEST_F(CliTest, PipelineWindowOutsideInt64IsRejected) {
  const char* window = "99999999999999999999";
  EXPECT_EQ(Run({"pipeline", path_, "--key", "league", "--window", window}),
            2);
  EXPECT_NE(err_.str().find("--window"), std::string::npos) << err_.str();
  EXPECT_NE(err_.str().find(window), std::string::npos) << err_.str();
}

TEST_F(CliTest, IntFlagsOutsideIntRangeAreRejected) {
  // Each would otherwise be narrowed into a different, accepted value:
  // 4294967298 entities generate 2, depth 4294967296 explains at depth 0,
  // min-support 4294967296 mines with support 0. Every one is rejected
  // before any generation, chase or mining starts.
  struct Case {
    std::vector<std::string> argv;
    const char* flag;
    const char* value;
  };
  const std::vector<Case> cases = {
      {{"gen", "--entities", "4294967298"}, "--entities", "4294967298"},
      {{"gen", "--entities", "5", "--entity", "4294967296"},
       "--entity",
       "4294967296"},
      {{"explain", path_, "--attr", "totalPts", "--depth", "4294967296"},
       "--depth",
       "4294967296"},
      {{"discover", path_, "--key", "league", "--min-support", "4294967296"},
       "--min-support",
       "4294967296"},
      {{"discover", path_, "--key", "league", "--max-rules=-4294967297"},
       "--max-rules",
       "-4294967297"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Run(c.argv), 2) << c.flag;
    EXPECT_TRUE(out_.str().empty()) << c.flag << ": " << out_.str();
    EXPECT_NE(err_.str().find(c.flag), std::string::npos) << err_.str();
    EXPECT_NE(err_.str().find(c.value), std::string::npos) << err_.str();
  }
}

TEST_F(CliTest, TopKCheckStrategyFlagIsUnknown) {
  // The candidate check has a single rollback path, so the flag that
  // used to pick one is gone and reported like any other unknown flag.
  int rc = Run({"topk", path_, "--check-strategy", "trail"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("unknown flag(s): --check-strategy"),
            std::string::npos)
      << err_.str();
}

TEST_F(CliTest, PipelineGroundShardsFlagIsUnknown) {
  // Grounding is serial per entity, so the flag that used to shard it is
  // gone and reported like any other unknown flag.
  int rc = Run({"pipeline", path_, "--key", "league", "--ground-shards", "4"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("unknown flag(s): --ground-shards"),
            std::string::npos)
      << err_.str();
}

TEST_F(CliTest, PipelineStorageFlagIsUnknown) {
  // Entities are always stored dictionary-encoded, so the flag that used
  // to pick row or columnar storage is gone and reported like any other
  // unknown flag.
  int rc = Run({"pipeline", path_, "--key", "league", "--storage", "row"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("unknown flag(s): --storage"), std::string::npos)
      << err_.str();
}

TEST_F(CliTest, TopKIgnoresLegacyCheckStrategyConfigKey) {
  // The shipped example no longer carries config.check_strategy; a copy
  // that still does (as documents written by older releases) must rank
  // exactly the same.
  const std::string example =
      std::string(RELACC_SOURCE_DIR) + "/examples/specs/mj.json";
  Result<std::string> text = ReadFile(example);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ASSERT_EQ(text.value().find("check_strategy"), std::string::npos);
  std::string legacy_text = text.value();
  const std::string key = "\"max_actions\": -1";
  const std::size_t at = legacy_text.find(key);
  ASSERT_NE(at, std::string::npos);
  legacy_text.insert(at + key.size(), ",\n    \"check_strategy\": \"trail\"");
  const std::string legacy = ::testing::TempDir() + "/relacc_cli_legacy.json";
  ASSERT_TRUE(WriteFile(legacy, legacy_text).ok());

  for (const bool json : {false, true}) {
    std::vector<std::string> argv = {"topk", example, "--k", "3"};
    if (json) argv.push_back("--json");
    ASSERT_EQ(Run(argv), 0) << err_.str();
    const std::string expected = out_.str();
    EXPECT_NE(expected.find("United Center"), std::string::npos);
    argv[1] = legacy;
    ASSERT_EQ(Run(argv), 0) << err_.str();
    EXPECT_EQ(out_.str(), expected) << "json=" << json;
  }
  std::remove(legacy.c_str());
}

TEST_F(CliTest, FmtRulesOnlyEmitsParsableDsl) {
  int rc = Run({"fmt", path_, "--rules-only"});
  EXPECT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("rule phi1"), std::string::npos);
  EXPECT_NE(out_.str().find("forall t1, t2 in stat"), std::string::npos);
}

TEST_F(CliTest, FmtFullDocumentIsAFixpoint) {
  int rc = Run({"fmt", path_});
  EXPECT_EQ(rc, 0) << err_.str();
  std::string first = out_.str();
  // Feeding the formatted doc back through fmt changes nothing.
  std::string tmp = ::testing::TempDir() + "/relacc_cli_fmt.json";
  ASSERT_TRUE(WriteFile(tmp, first).ok());
  int rc2 = Run({"fmt", tmp});
  EXPECT_EQ(rc2, 0);
  EXPECT_EQ(out_.str(), first);
  std::remove(tmp.c_str());
}

TEST_F(CliTest, PipelineOverFlatRelation) {
  // A flat two-entity relation in one document; no rules needed for the
  // smoke test (axioms alone dedupe equal/null values).
  const std::string text = R"json({
    "entity": {
      "name": "shops",
      "schema": [{"name": "name", "type": "string"},
                 {"name": "city", "type": "string"}],
      "tuples": [["jordan steakhouse", "Chicago"],
                 ["jordan steakhouse", null],
                 ["blue ribbon diner", "New York"],
                 ["blue ribbon diner", "New York"]]
    }
  })json";
  std::string flat = ::testing::TempDir() + "/relacc_cli_flat.json";
  ASSERT_TRUE(WriteFile(flat, text).ok());
  int rc = Run({"pipeline", flat, "--key", "name", "--json"});
  EXPECT_EQ(rc, 0) << err_.str();
  Result<Json> json = Json::Parse(out_.str());
  ASSERT_TRUE(json.ok()) << out_.str();
  EXPECT_EQ(json.value().GetInt("entities").value(), 2);
  EXPECT_EQ(json.value().GetInt("tuples").value(), 4);
  EXPECT_EQ(json.value().GetInt("church_rosser").value(), 2);
  std::remove(flat.c_str());
}

TEST_F(CliTest, PipelineHonoursSpecChaseConfig) {
  // Regression: `relacc pipeline` used to default-construct its
  // pipeline options and drop the spec document's ChaseConfig entirely. A
  // config with a one-action budget makes every per-entity chase abort,
  // which is only observable when the config actually reaches the
  // engine; under the old bug every entity came back Church-Rosser.
  SpecDocument doc;
  doc.spec = MjSpecification();
  doc.spec.config.max_actions = 1;  // far below what any chase needs
  doc.entity_name = "stat";
  doc.master_names = {"nba"};
  std::string limited = ::testing::TempDir() + "/relacc_cli_limited.json";
  ASSERT_TRUE(WriteFile(limited, SpecToJson(doc).Dump(2)).ok());
  int rc = Run({"pipeline", limited, "--key", "league", "--json"});
  EXPECT_EQ(rc, 0) << err_.str();
  Result<Json> json = Json::Parse(out_.str());
  ASSERT_TRUE(json.ok()) << out_.str();
  EXPECT_GT(json.value().GetInt("entities").value(), 0);
  EXPECT_EQ(json.value().GetInt("church_rosser").value(), 0);
  std::remove(limited.c_str());
}

TEST_F(CliTest, PipelineMatchesCheckedInGoldenReports) {
  // tests/golden/pipeline_{med,cfp}.json are the `relacc pipeline --json
  // --window 2` reports of `relacc gen --profile P --entities 12 --flat`
  // (gen is deterministic). Six windows or one, one thread or four: the
  // report must not change by a byte.
  for (const std::string profile : {"med", "cfp"}) {
    const std::string spec =
        ::testing::TempDir() + "/relacc_cli_golden_" + profile + ".json";
    ASSERT_EQ(Run({"gen", "--profile", profile, "--entities", "12", "--flat",
                   "--out", spec}),
              0)
        << err_.str();
    Result<std::string> golden =
        ReadFile(std::string(RELACC_SOURCE_DIR) + "/tests/golden/pipeline_" +
                 profile + ".json");
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();
    const std::vector<std::vector<std::string>> variants = {
        {"--window", "2", "--threads", "4"}, {}};
    for (const std::vector<std::string>& flags : variants) {
      std::vector<std::string> argv = {"pipeline", spec, "--key", "key",
                                       "--json"};
      argv.insert(argv.end(), flags.begin(), flags.end());
      ASSERT_EQ(Run(argv), 0) << err_.str();
      EXPECT_EQ(out_.str(), golden.value())
          << profile << " with " << flags.size() << " extra flag words";
    }
    std::remove(spec.c_str());
  }
}

TEST_F(CliTest, TopKMatchesCheckedInGoldenReports) {
  // tests/golden/topk_med_e{2,6}_<algo>.json are the `relacc topk --json
  // --k 3` reports of `relacc gen --profile med --entities 8 --entity E`.
  // Entity 2 leaves 4 attributes null, entity 6 leaves 13 (too many for
  // the brute-force product). Ties among equal scores follow the active
  // domain order, so these pin that order for every algorithm.
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      cases = {{"2", {"topkct", "heuristic", "rankjoin", "brute"}},
               {"6", {"topkct", "heuristic", "rankjoin"}}};
  for (const auto& [entity, algos] : cases) {
    const std::string spec = ::testing::TempDir() + "/relacc_cli_topk_e" +
                             entity + "_" + std::to_string(getpid()) +
                             ".json";
    ASSERT_EQ(Run({"gen", "--profile", "med", "--entities", "8", "--entity",
                   entity, "--out", spec}),
              0)
        << err_.str();
    for (const std::string& algo : algos) {
      Result<std::string> golden =
          ReadFile(std::string(RELACC_SOURCE_DIR) + "/tests/golden/topk_med_e" +
                   entity + "_" + algo + ".json");
      ASSERT_TRUE(golden.ok()) << golden.status().ToString();
      ASSERT_EQ(Run({"topk", spec, "--json", "--k", "3", "--algo", algo}), 0)
          << err_.str();
      EXPECT_EQ(out_.str(), golden.value()) << "entity " << entity << " "
                                            << algo;
    }
    std::remove(spec.c_str());
  }
}

TEST_F(CliTest, PipelineRequiresKey) {
  int rc = Run({"pipeline", path_});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("--key"), std::string::npos);
}

TEST_F(CliTest, UnknownFlagIsRejected) {
  int rc = Run({"check", path_, "--jsn"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("--jsn"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandPrintsUsage) {
  int rc = Run({"frobnicate"});
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
}

TEST_F(CliTest, GenEmitsALoadableChaseableDocument) {
  int rc = Run({"gen", "--profile", "cfp", "--entities", "10", "--seed",
                "7", "--entity", "2"});
  EXPECT_EQ(rc, 0) << err_.str();
  Result<SpecDocument> doc = SpecFromJsonText(out_.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_GT(doc.value().spec.ie.size(), 0);
  EXPECT_FALSE(doc.value().spec.rules.empty());
  ChaseOutcome outcome = IsCR(doc.value().spec);
  EXPECT_TRUE(outcome.church_rosser);
}

TEST_F(CliTest, GenIsDeterministicPerSeed) {
  ASSERT_EQ(Run({"gen", "--entities", "6", "--seed", "9"}), 0);
  std::string first = out_.str();
  ASSERT_EQ(Run({"gen", "--entities", "6", "--seed", "9"}), 0);
  EXPECT_EQ(out_.str(), first);
  ASSERT_EQ(Run({"gen", "--entities", "6", "--seed", "10"}), 0);
  EXPECT_NE(out_.str(), first);
}

TEST_F(CliTest, GenValidatesFlags) {
  EXPECT_EQ(Run({"gen", "--profile", "nosuch"}), 2);
  EXPECT_EQ(Run({"gen", "--entities", "5", "--entity", "99"}), 2);
  EXPECT_NE(err_.str().find("out of range"), std::string::npos);
}

TEST_F(CliTest, GenWritesToFile) {
  const std::string path = ::testing::TempDir() + "/relacc_gen_out.json";
  int rc = Run({"gen", "--entities", "5", "--out", path});
  EXPECT_EQ(rc, 0) << err_.str();
  Result<std::string> text = ReadFile(path);
  ASSERT_TRUE(text.ok());
  EXPECT_TRUE(SpecFromJsonText(text.value()).ok());
  std::remove(path.c_str());
}

TEST_F(CliTest, HelpExitsZero) {
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_NE(out_.str().find("relacc"), std::string::npos);
}

TEST_F(CliTest, MissingFileIsAnIoError) {
  int rc = Run({"check", "/no/such/file.json"});
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err_.str().find("IoError"), std::string::npos);
}

// --- relacc serve exit-code contract ----------------------------------------
//
// Only the non-blocking paths run here (usage and bind failures return
// before the daemon starts serving); the clean-drain exit 0 is covered
// end-to-end by the serve-smoke CI lane and tests/test_serve.cc.

TEST_F(CliTest, ServeWithoutSpecIsUsageError) {
  EXPECT_EQ(Run({"serve"}), 2);
  EXPECT_NE(err_.str().find("spec.json"), std::string::npos);
}

// Each assertion names the flag's own range message: the usage banner
// printed after any usage error lists every flag name, so a bare flag
// name would also match a parse error.

TEST_F(CliTest, ServeValidatesPort) {
  for (const char* port : {"99999", "-1"}) {
    EXPECT_EQ(Run({"serve", path_, "--port", port}), 2) << port;
    EXPECT_NE(err_.str().find("--port must be in [0, 65535]"),
              std::string::npos)
        << err_.str();
  }
}

TEST_F(CliTest, ServeValidatesThreadsWindowAndQueueDepth) {
  EXPECT_EQ(Run({"serve", path_, "--threads", "9999"}), 2);
  EXPECT_NE(err_.str().find("--threads must be between 0 and 256"),
            std::string::npos)
      << err_.str();
  EXPECT_EQ(Run({"serve", path_, "--window", "-1"}), 2);
  EXPECT_NE(err_.str().find("--window must be >= 0"), std::string::npos)
      << err_.str();
  EXPECT_EQ(Run({"serve", path_, "--queue-depth", "0"}), 2);
  EXPECT_NE(err_.str().find("--queue-depth must be in [1, 4096]"),
            std::string::npos)
      << err_.str();
}

TEST_F(CliTest, ServeValidatesReplicasDeadlineAndQuarantine) {
  for (const char* replicas : {"0", "65"}) {
    EXPECT_EQ(Run({"serve", path_, "--replicas", replicas}), 2) << replicas;
    EXPECT_NE(err_.str().find("--replicas must be in [1, 64]"),
              std::string::npos)
        << err_.str();
  }
  EXPECT_EQ(Run({"serve", path_, "--deadline-ms", "-1"}), 2);
  EXPECT_NE(err_.str().find("--deadline-ms must be >= 0"), std::string::npos)
      << err_.str();
  for (const char* after : {"0", "101"}) {
    EXPECT_EQ(Run({"serve", path_, "--quarantine-after", after}), 2)
        << after;
    EXPECT_NE(err_.str().find("--quarantine-after must be in [1, 100]"),
              std::string::npos)
        << err_.str();
  }
}

TEST_F(CliTest, NegativeFlagValuesReachTheirRangeChecks) {
  EXPECT_EQ(Run({"pipeline", path_, "--key", "league", "--window", "-1"}), 2);
  EXPECT_NE(err_.str().find("--window must be >= 0"), std::string::npos)
      << err_.str();
  // --k range errors name the flag the user typed, not a library field.
  for (const char* command : {"topk", "interactive"}) {
    for (const char* k : {"-5", "0"}) {
      EXPECT_EQ(Run({command, path_, "--k", k}), 2) << command << ' ' << k;
      EXPECT_NE(err_.str().find(std::string("--k must be >= 1, got ") + k),
                std::string::npos)
          << command << ": " << err_.str();
    }
  }
}

TEST_F(CliTest, ServeRejectsMalformedFaultSpec) {
  EXPECT_EQ(Run({"serve", path_, "--fault-inject", "nonsense:1:2"}), 2);
  EXPECT_NE(err_.str().find("fault spec"), std::string::npos);
}

TEST_F(CliTest, ServeSnapshotStrictRefusesSpecPlusSnapshot) {
  // Without --snapshot-strict the pair is allowed (the spec is the
  // fallback build recipe); with it, the 0.9 hard error returns.
  EXPECT_EQ(Run({"serve", path_, "--snapshot", path_, "--snapshot-strict"}),
            2);
  EXPECT_NE(err_.str().find("--snapshot replaces the <spec.json> argument"),
            std::string::npos);
}

TEST_F(CliTest, ServeRejectsUnknownFlags) {
  EXPECT_EQ(Run({"serve", path_, "--bogus", "1"}), 2);
  EXPECT_NE(err_.str().find("unknown flag"), std::string::npos);
}

TEST_F(CliTest, ServeMissingSpecFileIsIoError) {
  EXPECT_EQ(Run({"serve", "/no/such/file.json"}), 1);
  EXPECT_NE(err_.str().find("IoError"), std::string::npos);
}

TEST_F(CliTest, ServeOccupiedPortExitsOne) {
  // Hold the port ourselves, then ask the daemon to bind it.
  Result<int> held = serve::ListenOn("127.0.0.1", 0);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  Result<int> port = serve::BoundPort(held.value());
  ASSERT_TRUE(port.ok());
  int rc = Run({"serve", path_, "--port", std::to_string(port.value())});
  serve::CloseFd(held.value());
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err_.str().find("bind"), std::string::npos);
}

TEST_F(CliTest, ServeIsListedInUsage) {
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_NE(out_.str().find("serve"), std::string::npos);
}

}  // namespace
}  // namespace relacc
