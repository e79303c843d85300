// Unit tests for the util substrate: Status/Result, DynamicBitset, Rng,
// string helpers and CSV round-tripping.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "trigram_oracle.h"
#include "util/csv.h"
#include "util/dynamic_bitset.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace relacc {
namespace {

using testing_fixture::HashSetTrigramJaccard;

TEST(Status, OkAndErrorRendering) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  const Status s = Status::InvalidArgument("bad attr");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad attr");
}

TEST(Result, ValueAndErrorPaths) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err = Status::NotFound("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(DynamicBitset, SetTestCount) {
  DynamicBitset b(130);
  EXPECT_EQ(b.Count(), 0u);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 4u);
  EXPECT_FALSE(b.TestAndSet(64));
  EXPECT_TRUE(b.TestAndSet(65));
  EXPECT_EQ(b.Count(), 5u);
}

TEST(DynamicBitset, ForEachSetVisitsInOrder) {
  DynamicBitset b(200);
  const std::vector<std::size_t> expect = {3, 64, 65, 127, 128, 199};
  for (auto i : expect) b.Set(i);
  std::vector<std::size_t> seen;
  b.ForEachSet([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expect);
}

TEST(DynamicBitset, ForEachMissingFromComputesDifference) {
  DynamicBitset a(100), b(100);
  a.Set(1);
  a.Set(70);
  b.Set(1);
  b.Set(2);
  b.Set(70);
  b.Set(99);
  std::vector<std::size_t> missing;
  a.ForEachMissingFrom(b, [&](std::size_t i) { missing.push_back(i); });
  EXPECT_EQ(missing, (std::vector<std::size_t>{2, 99}));
}

TEST(DynamicBitset, OrWith) {
  DynamicBitset a(128), b(128);
  a.Set(5);
  b.Set(100);
  a.OrWith(b);
  EXPECT_TRUE(a.Test(5));
  EXPECT_TRUE(a.Test(100));
  EXPECT_EQ(a.Count(), 2u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(124);
  EXPECT_NE(Rng(123).Next(), c.Next());
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 9u);  // all values hit over 1000 draws
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(99);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Strings, SplitJoinTrimLower) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Join({"a", "b", "c"}, '-'), "a-b-c");
  EXPECT_EQ(Trim("  x y \t"), "x y");
  EXPECT_EQ(ToLower("AbC"), "abc");
}

TEST(Strings, EditDistanceAndSimilarity) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_GT(TrigramJaccard("chicago bulls", "chicago bulls inc"), 0.5);
  EXPECT_LT(TrigramJaccard("chicago bulls", "birmingham barons"), 0.2);
}

TEST(Strings, TrigramSignaturePacksUnsignedBytesSortedAndDistinct) {
  using namespace std::string_literals;
  EXPECT_TRUE(TrigramSignature("").grams().empty());
  EXPECT_TRUE(TrigramSignature("ab").grams().empty());
  EXPECT_EQ(TrigramSignature("abc").grams(),
            (std::vector<uint32_t>{0x616263}));
  // Repeated grams are kept once.
  EXPECT_EQ(TrigramSignature("aaaaaa").grams(),
            (std::vector<uint32_t>{0x616161}));
  EXPECT_EQ(TrigramSignature("abcabc").grams(),
            (std::vector<uint32_t>{0x616263, 0x626361, 0x636162}));
  // NUL and bytes >= 0x80 are grams like any other, read as unsigned.
  EXPECT_EQ(TrigramSignature("\x80\x00\xff"s).grams(),
            (std::vector<uint32_t>{0x8000ff}));
  EXPECT_EQ(TrigramSignature("\xff\xfe\x80\x01"s).grams(),
            (std::vector<uint32_t>{0xfe8001, 0xfffe80}));
}

TEST(Strings, TrigramJaccardMatchesHashSetOracleBitForBit) {
  // A small alphabet makes repeated grams common; NUL and high bytes
  // catch a sign-extending or truncating packer.
  const std::string alphabet("ab\0\x7f\x80\xff", 6);
  Rng rng(2007);
  int compared = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string s[2];
    for (std::string& str : s) {
      const int len = static_cast<int>(rng.UniformInt(0, 14));
      for (int c = 0; c < len; ++c) {
        str.push_back(alphabet[rng.NextBelow(alphabet.size())]);
      }
    }
    const double want = HashSetTrigramJaccard(s[0], s[1]);
    const TrigramSignature a(s[0]);
    const TrigramSignature b(s[1]);
    ASSERT_EQ(TrigramJaccard(s[0], s[1]), want) << round;
    ASSERT_EQ(TrigramJaccard(s[0], a, s[1], b), want) << round;
    ASSERT_EQ(TrigramJaccard(s[1], b, s[0], a), want) << round;
    if (s[0].size() >= 3 && s[1].size() >= 3) {
      ASSERT_EQ(a.Jaccard(b), want) << round;
      ++compared;
    }
  }
  EXPECT_GT(compared, 2000);
  // Every length from 0 to 3 against itself and its neighbours.
  for (const char* x : {"", "a", "ab", "abc", "aba"}) {
    for (const char* y : {"", "a", "ab", "abc", "aba"}) {
      EXPECT_EQ(TrigramJaccard(x, y), HashSetTrigramJaccard(x, y))
          << x << " / " << y;
    }
  }
}

TEST(Csv, RoundTripWithQuoting) {
  CsvWriter w;
  w.WriteRow({"plain", "with,comma", "with\"quote", "multi\nline", ""});
  w.WriteRow({"1", "2", "3", "4", "5"});
  CsvReader r;
  auto rows = r.Parse(w.contents());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0][1], "with,comma");
  EXPECT_EQ(rows.value()[0][2], "with\"quote");
  EXPECT_EQ(rows.value()[0][3], "multi\nline");
  EXPECT_EQ(rows.value()[0][4], "");
  EXPECT_EQ(rows.value()[1][0], "1");
}

TEST(Csv, UnterminatedQuoteIsParseError) {
  CsvReader r;
  EXPECT_FALSE(r.Parse("a,\"unterminated\n").ok());
}

}  // namespace
}  // namespace relacc
