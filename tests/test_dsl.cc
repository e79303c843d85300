#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chase/chase_engine.h"
#include "dsl/lexer.h"
#include "dsl/parser.h"
#include "mj_fixture.h"
#include "rules/rule_builder.h"

namespace relacc {
namespace {

using testing_fixture::MjExpectedTarget;
using testing_fixture::MjRules;
using testing_fixture::MjSpecification;
using testing_fixture::NbaSchema;
using testing_fixture::StatSchema;

// --- lexer ------------------------------------------------------------------

std::vector<Token> MustTokenize(const std::string& text) {
  Lexer lexer(text);
  Result<std::vector<Token>> tokens = lexer.Tokenize();
  EXPECT_TRUE(tokens.ok()) << tokens.status().ToString();
  return tokens.value_or({});
}

TEST(Lexer, BasicTokensAndPositions) {
  std::vector<Token> tokens = MustTokenize("rule phi1:\n  forall t1");
  ASSERT_EQ(tokens.size(), 6u);  // rule phi1 : forall t1 <end>
  EXPECT_EQ(tokens[0].kind, TokenKind::kKwRule);
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens[1].text, "phi1");
  EXPECT_EQ(tokens[2].kind, TokenKind::kColon);
  EXPECT_EQ(tokens[3].kind, TokenKind::kKwForall);
  EXPECT_EQ(tokens[3].line, 2);
  EXPECT_EQ(tokens[3].column, 3);
  EXPECT_EQ(tokens[4].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens[5].kind, TokenKind::kEnd);
}

TEST(Lexer, AttrRefsKeepSpecialCharacters) {
  std::vector<Token> tokens = MustTokenize("[J#] [closed?] [ totalPts ]");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kAttrRef);
  EXPECT_EQ(tokens[0].text, "J#");
  EXPECT_EQ(tokens[1].text, "closed?");
  EXPECT_EQ(tokens[2].text, "totalPts");  // surrounding blanks trimmed
}

TEST(Lexer, StringEscapes) {
  std::vector<Token> tokens = MustTokenize(R"("a\"b\\c\nd\te")");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kString);
  EXPECT_EQ(tokens[0].text, "a\"b\\c\nd\te");
}

TEST(Lexer, Numbers) {
  std::vector<Token> tokens = MustTokenize("42 -7 3.5 -0.25 1e3");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kInt);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].int_value, -7);
  EXPECT_EQ(tokens[2].kind, TokenKind::kReal);
  EXPECT_DOUBLE_EQ(tokens[2].real_value, 3.5);
  EXPECT_DOUBLE_EQ(tokens[3].real_value, -0.25);
  EXPECT_EQ(tokens[4].kind, TokenKind::kReal);
  EXPECT_DOUBLE_EQ(tokens[4].real_value, 1000.0);
}

TEST(Lexer, OperatorsIncludingDoubleEquals) {
  std::vector<Token> tokens = MustTokenize("= == != < <= > >= -> := @ ;");
  ASSERT_EQ(tokens.size(), 12u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kEq);
  EXPECT_EQ(tokens[1].kind, TokenKind::kEq);
  EXPECT_EQ(tokens[2].kind, TokenKind::kNe);
  EXPECT_EQ(tokens[3].kind, TokenKind::kLt);
  EXPECT_EQ(tokens[4].kind, TokenKind::kLe);
  EXPECT_EQ(tokens[5].kind, TokenKind::kGt);
  EXPECT_EQ(tokens[6].kind, TokenKind::kGe);
  EXPECT_EQ(tokens[7].kind, TokenKind::kArrow);
  EXPECT_EQ(tokens[8].kind, TokenKind::kAssign);
  EXPECT_EQ(tokens[9].kind, TokenKind::kAt);
  EXPECT_EQ(tokens[10].kind, TokenKind::kSemicolon);
}

TEST(Lexer, CommentsAreSkipped) {
  std::vector<Token> tokens =
      MustTokenize("# leading comment\nrule # trailing\nphi");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kKwRule);
  EXPECT_EQ(tokens[1].text, "phi");
}

TEST(Lexer, ErrorUnterminatedString) {
  const std::string text = "\"abc";
  Lexer lexer(text);
  Result<std::vector<Token>> tokens = lexer.Tokenize();
  ASSERT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
  EXPECT_NE(tokens.status().message().find("unterminated"), std::string::npos);
}

TEST(Lexer, ErrorStrayCharacter) {
  const std::string text = "rule $x";
  Lexer lexer(text);
  Result<std::vector<Token>> tokens = lexer.Tokenize();
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("'$'"), std::string::npos);
}

TEST(Lexer, ErrorStrayDash) {
  const std::string text = "a - b";
  Lexer lexer(text);
  ASSERT_FALSE(lexer.Tokenize().ok());
}

TEST(Lexer, ErrorEmptyAttrRef) {
  const std::string text = "t1[  ]";
  Lexer lexer(text);
  ASSERT_FALSE(lexer.Tokenize().ok());
}

TEST(Lexer, ErrorUnterminatedAttrRef) {
  const std::string text = "t1[rnds";
  Lexer lexer(text);
  ASSERT_FALSE(lexer.Tokenize().ok());
}

// --- parser: form (1) --------------------------------------------------------

class ParserTest : public ::testing::Test {
 protected:
  ParserTest()
      : stat_(StatSchema()),
        nba_(NbaSchema()),
        parser_(stat_, "stat", {{"nba", &nba_, 0}}) {}

  AccuracyRule MustParse(const std::string& text) {
    Result<AccuracyRule> rule = parser_.ParseRule(text);
    EXPECT_TRUE(rule.ok()) << rule.status().ToString();
    return rule.value_or(AccuracyRule{});
  }

  Status ParseError(const std::string& text) {
    Result<AccuracyRule> rule = parser_.ParseRule(text);
    EXPECT_FALSE(rule.ok()) << "unexpected parse success";
    return rule.ok() ? Status::OK() : rule.status();
  }

  Schema stat_;
  Schema nba_;
  RuleParser parser_;
};

TEST_F(ParserTest, Phi1FromThePaper) {
  AccuracyRule rule = MustParse(
      "rule phi1 @currency:\n"
      "  forall t1, t2 in stat\n"
      "  (t1[league] = t2[league] and t1[rnds] < t2[rnds]\n"
      "   -> t1 <= t2 on [rnds])");
  EXPECT_EQ(rule.form, AccuracyRule::Form::kTuplePair);
  EXPECT_EQ(rule.name, "phi1");
  EXPECT_EQ(rule.provenance, RuleProvenance::kCurrency);
  ASSERT_EQ(rule.lhs.size(), 2u);
  EXPECT_EQ(rule.lhs[0].kind, TuplePairPredicate::Kind::kAttrAttr);
  EXPECT_EQ(rule.lhs[0].op, CompareOp::kEq);
  EXPECT_EQ(rule.lhs[1].op, CompareOp::kLt);
  EXPECT_EQ(rule.rhs_attr, stat_.MustIndexOf("rnds"));
}

TEST_F(ParserTest, OrderPredicateStrictAndNonStrict) {
  AccuracyRule rule = MustParse(
      "rule phi2: forall t1, t2 in stat"
      " (t1 < t2 on [rnds] -> t1 <= t2 on [J#])");
  ASSERT_EQ(rule.lhs.size(), 1u);
  EXPECT_EQ(rule.lhs[0].kind, TuplePairPredicate::Kind::kOrder);
  EXPECT_TRUE(rule.lhs[0].strict);
  EXPECT_EQ(rule.lhs[0].left_attr, stat_.MustIndexOf("rnds"));
  EXPECT_EQ(rule.rhs_attr, stat_.MustIndexOf("J#"));

  AccuracyRule weak = MustParse(
      "rule w: forall t1, t2 in stat"
      " (t1 <= t2 on [MN] -> t1 <= t2 on [FN])");
  EXPECT_FALSE(weak.lhs[0].strict);
}

TEST_F(ParserTest, AttrConstBothSpellingsNormalize) {
  AccuracyRule a = MustParse(
      "rule a: forall t1, t2 in stat"
      " (t1[league] = \"NBA\" -> t1 <= t2 on [league])");
  ASSERT_EQ(a.lhs.size(), 1u);
  EXPECT_EQ(a.lhs[0].kind, TuplePairPredicate::Kind::kAttrConst);
  EXPECT_EQ(a.lhs[0].which, 1);
  EXPECT_EQ(a.lhs[0].constant, Value::Str("NBA"));

  // Literal-first spelling flips: 100 < t2[rnds]  ==  t2[rnds] > 100.
  AccuracyRule b = MustParse(
      "rule b: forall t1, t2 in stat"
      " (100 < t2[rnds] -> t1 <= t2 on [rnds])");
  ASSERT_EQ(b.lhs.size(), 1u);
  EXPECT_EQ(b.lhs[0].kind, TuplePairPredicate::Kind::kAttrConst);
  EXPECT_EQ(b.lhs[0].which, 2);
  EXPECT_EQ(b.lhs[0].op, CompareOp::kGt);
  EXPECT_EQ(b.lhs[0].constant, Value::Int(100));
}

TEST_F(ParserTest, AttrAttrReversedVariablesNormalize) {
  // t2[rnds] > t1[rnds]  ==  t1[rnds] < t2[rnds].
  AccuracyRule rule = MustParse(
      "rule r: forall t1, t2 in stat"
      " (t2[rnds] > t1[rnds] -> t1 <= t2 on [rnds])");
  ASSERT_EQ(rule.lhs.size(), 1u);
  EXPECT_EQ(rule.lhs[0].kind, TuplePairPredicate::Kind::kAttrAttr);
  EXPECT_EQ(rule.lhs[0].op, CompareOp::kLt);
}

TEST_F(ParserTest, AttrTeAndTeConstPredicates) {
  AccuracyRule rule = MustParse(
      "rule r: forall t1, t2 in stat"
      " (t2[FN] = te[FN] and te[FN] != null -> t1 <= t2 on [FN])");
  ASSERT_EQ(rule.lhs.size(), 2u);
  EXPECT_EQ(rule.lhs[0].kind, TuplePairPredicate::Kind::kAttrTe);
  EXPECT_EQ(rule.lhs[0].which, 2);
  EXPECT_EQ(rule.lhs[1].kind, TuplePairPredicate::Kind::kTeConst);
  EXPECT_EQ(rule.lhs[1].op, CompareOp::kNe);
  EXPECT_TRUE(rule.lhs[1].constant.is_null());
}

TEST_F(ParserTest, TeFirstSpellingFlips) {
  // te[FN] = t2[FN] normalizes to t2[FN] = te[FN].
  AccuracyRule rule = MustParse(
      "rule r: forall t1, t2 in stat"
      " (te[FN] = t2[FN] -> t1 <= t2 on [FN])");
  ASSERT_EQ(rule.lhs.size(), 1u);
  EXPECT_EQ(rule.lhs[0].kind, TuplePairPredicate::Kind::kAttrTe);
  EXPECT_EQ(rule.lhs[0].which, 2);
}

TEST_F(ParserTest, EmptyBodyIsAllowed) {
  AccuracyRule rule = MustParse(
      "rule r: forall t1, t2 in stat (-> t1 <= t2 on [FN])");
  EXPECT_TRUE(rule.lhs.empty());
  EXPECT_EQ(rule.rhs_attr, stat_.MustIndexOf("FN"));
}

TEST_F(ParserTest, BooleanAndRealLiterals) {
  Schema schema({{"closed?", ValueType::kBool}, {"score", ValueType::kDouble}});
  RuleParser parser(schema);
  Result<AccuracyRule> rule = parser.ParseRule(
      "rule r: forall t1, t2 in R"
      " (t1[closed?] = true and t2[score] >= 0.5 -> t1 <= t2 on [score])");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  ASSERT_EQ(rule.value().lhs.size(), 2u);
  EXPECT_EQ(rule.value().lhs[0].constant, Value::Bool(true));
  EXPECT_EQ(rule.value().lhs[1].constant, Value::Real(0.5));
}

TEST_F(ParserTest, IntLiteralCoercesToRealTypedAttribute) {
  Schema schema({{"score", ValueType::kDouble}});
  RuleParser parser(schema);
  Result<AccuracyRule> rule = parser.ParseRule(
      "rule r: forall t1, t2 in R (t1[score] < 3 -> t1 <= t2 on [score])");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule.value().lhs[0].constant.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(rule.value().lhs[0].constant.as_double(), 3.0);
}

// --- parser: form (2) --------------------------------------------------------

TEST_F(ParserTest, Phi6FromThePaper) {
  AccuracyRule rule = MustParse(
      "rule phi6 @master:\n"
      "  forall tm in nba\n"
      "  (tm[FN] = te[FN] and tm[LN] = te[LN] and tm[season] = \"1994-95\"\n"
      "   -> te[league] := tm[league], te[team] := tm[team])");
  EXPECT_EQ(rule.form, AccuracyRule::Form::kMaster);
  EXPECT_EQ(rule.master_index, 0);
  ASSERT_EQ(rule.master_lhs.size(), 3u);
  // tm-first te/master predicates normalize to te = tm.
  EXPECT_EQ(rule.master_lhs[0].kind, MasterPredicate::Kind::kTeMaster);
  EXPECT_EQ(rule.master_lhs[0].te_attr, stat_.MustIndexOf("FN"));
  EXPECT_EQ(rule.master_lhs[0].master_attr, nba_.MustIndexOf("FN"));
  EXPECT_EQ(rule.master_lhs[2].kind, MasterPredicate::Kind::kMasterConst);
  EXPECT_EQ(rule.master_lhs[2].constant, Value::Str("1994-95"));
  ASSERT_EQ(rule.assignments.size(), 2u);
  EXPECT_EQ(rule.assignments[0].first, stat_.MustIndexOf("league"));
  EXPECT_EQ(rule.assignments[0].second, nba_.MustIndexOf("league"));
}

TEST_F(ParserTest, Form2TeConstAndMasterConstOps) {
  AccuracyRule rule = MustParse(
      "rule r: forall tm in nba"
      " (te[league] = \"NBA\" and tm[season] != \"2001-02\""
      "  -> te[team] := tm[team])");
  ASSERT_EQ(rule.master_lhs.size(), 2u);
  EXPECT_EQ(rule.master_lhs[0].kind, MasterPredicate::Kind::kTeConst);
  EXPECT_EQ(rule.master_lhs[1].kind, MasterPredicate::Kind::kMasterConst);
  EXPECT_EQ(rule.master_lhs[1].op, CompareOp::kNe);
}

TEST_F(ParserTest, Form2LiteralFirstFlips) {
  AccuracyRule rule = MustParse(
      "rule r: forall tm in nba"
      " (\"1994-95\" = tm[season] -> te[team] := tm[team])");
  ASSERT_EQ(rule.master_lhs.size(), 1u);
  EXPECT_EQ(rule.master_lhs[0].kind, MasterPredicate::Kind::kMasterConst);
  EXPECT_EQ(rule.master_lhs[0].op, CompareOp::kEq);
}

// --- parser: diagnostics ------------------------------------------------------

TEST_F(ParserTest, ErrorUnknownEntityAttribute) {
  Status st = ParseError(
      "rule r: forall t1, t2 in stat (t1[bogus] = t2[FN] -> t1 <= t2 on [FN])");
  EXPECT_NE(st.message().find("bogus"), std::string::npos);
  EXPECT_NE(st.message().find("line 1"), std::string::npos);
}

TEST_F(ParserTest, ErrorUnknownMasterRelation) {
  Status st = ParseError(
      "rule r: forall tm in nosuch (te[FN] = tm[FN] -> te[FN] := tm[FN])");
  EXPECT_NE(st.message().find("nosuch"), std::string::npos);
}

TEST_F(ParserTest, ErrorWrongEntityRelationName) {
  Status st = ParseError(
      "rule r: forall t1, t2 in wrong (-> t1 <= t2 on [FN])");
  EXPECT_NE(st.message().find("stat"), std::string::npos);
}

TEST_F(ParserTest, ErrorReversedOrderPredicate) {
  Status st = ParseError(
      "rule r: forall t1, t2 in stat (t2 < t1 on [rnds] -> t1 <= t2 on [J#])");
  EXPECT_NE(st.message().find("order predicates"), std::string::npos);
}

TEST_F(ParserTest, ErrorSelfComparison) {
  Status st = ParseError(
      "rule r: forall t1, t2 in stat (t1[FN] = t1[LN] -> t1 <= t2 on [FN])");
  EXPECT_NE(st.message().find("itself"), std::string::npos);
}

TEST_F(ParserTest, ErrorWrongConclusionDirection) {
  ParseError("rule r: forall t1, t2 in stat (-> t2 <= t1 on [FN])");
}

TEST_F(ParserTest, ErrorStrictConclusionRejected) {
  ParseError("rule r: forall t1, t2 in stat (-> t1 < t2 on [FN])");
}

TEST_F(ParserTest, ErrorTeMasterWithOrderOp) {
  Status st = ParseError(
      "rule r: forall tm in nba (te[FN] < tm[FN] -> te[FN] := tm[FN])");
  EXPECT_NE(st.message().find("'='"), std::string::npos);
}

TEST_F(ParserTest, ErrorUnknownProvenanceTag) {
  Status st = ParseError(
      "rule r @nonsense: forall t1, t2 in stat (-> t1 <= t2 on [FN])");
  EXPECT_NE(st.message().find("nonsense"), std::string::npos);
}

TEST_F(ParserTest, ErrorTrailingInputInParseRule) {
  Status st = ParseError(
      "rule r: forall t1, t2 in stat (-> t1 <= t2 on [FN]) garbage");
  EXPECT_NE(st.message().find("trailing"), std::string::npos);
}

TEST_F(ParserTest, ErrorAssignmentTargetMustBeTe) {
  ParseError("rule r: forall tm in nba (te[FN] = tm[FN] -> tm[FN] := tm[FN])");
}

TEST_F(ParserTest, ProgramParsesMultipleRulesAndComments) {
  Result<std::vector<AccuracyRule>> rules = parser_.ParseProgram(
      "# the first two rules of Table 3\n"
      "rule phi1 @currency: forall t1, t2 in stat\n"
      "  (t1[league] = t2[league] and t1[rnds] < t2[rnds]"
      " -> t1 <= t2 on [rnds]);\n"
      "rule phi2 @correlation: forall t1, t2 in stat\n"
      "  (t1 < t2 on [rnds] -> t1 <= t2 on [J#])\n");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules.value().size(), 2u);
  EXPECT_EQ(rules.value()[0].name, "phi1");
  EXPECT_EQ(rules.value()[1].name, "phi2");
}

TEST_F(ParserTest, EmptyProgramIsEmpty) {
  Result<std::vector<AccuracyRule>> rules =
      parser_.ParseProgram("# only comments\n\n");
  ASSERT_TRUE(rules.ok());
  EXPECT_TRUE(rules.value().empty());
}

// --- round trips ---------------------------------------------------------------

bool SamePredicate(const TuplePairPredicate& a, const TuplePairPredicate& b) {
  return a.kind == b.kind && a.which == b.which && a.left_attr == b.left_attr &&
         a.right_attr == b.right_attr && a.op == b.op &&
         a.constant == b.constant && a.strict == b.strict;
}

bool SameMasterPredicate(const MasterPredicate& a, const MasterPredicate& b) {
  return a.kind == b.kind && a.te_attr == b.te_attr &&
         a.master_attr == b.master_attr && a.op == b.op &&
         a.constant == b.constant;
}

bool SameRule(const AccuracyRule& a, const AccuracyRule& b) {
  if (a.form != b.form || a.provenance != b.provenance) return false;
  if (a.form == AccuracyRule::Form::kTuplePair) {
    if (a.rhs_attr != b.rhs_attr || a.lhs.size() != b.lhs.size()) return false;
    for (size_t i = 0; i < a.lhs.size(); ++i) {
      if (!SamePredicate(a.lhs[i], b.lhs[i])) return false;
    }
    return true;
  }
  if (a.master_index != b.master_index ||
      a.master_lhs.size() != b.master_lhs.size() ||
      a.assignments != b.assignments) {
    return false;
  }
  for (size_t i = 0; i < a.master_lhs.size(); ++i) {
    if (!SameMasterPredicate(a.master_lhs[i], b.master_lhs[i])) return false;
  }
  return true;
}

TEST_F(ParserTest, AllMjRulesRoundTripThroughTheDsl) {
  std::vector<NamedMaster> masters = {{"nba", &nba_, 0}};
  std::vector<AccuracyRule> rules = MjRules(stat_, nba_);
  for (const AccuracyRule& rule : rules) {
    std::string text = FormatRuleDsl(rule, stat_, masters, "stat");
    Result<AccuracyRule> reparsed = parser_.ParseRule(text);
    ASSERT_TRUE(reparsed.ok())
        << rule.name << ": " << reparsed.status().ToString() << "\n" << text;
    EXPECT_TRUE(SameRule(rule, reparsed.value())) << text;
    // Formatting is a fixpoint after one round.
    EXPECT_EQ(text, FormatRuleDsl(reparsed.value(), stat_, masters, "stat"));
  }
}

TEST_F(ParserTest, ProgramRoundTripPreservesChaseSemantics) {
  Specification spec = MjSpecification();
  std::vector<NamedMaster> masters = {{"nba", &nba_, 0}};
  std::string text =
      FormatProgramDsl(spec.rules, spec.ie.schema(), masters, "stat");
  Result<std::vector<AccuracyRule>> reparsed = parser_.ParseProgram(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed.value().size(), spec.rules.size());

  Specification reparsed_spec = spec;
  reparsed_spec.rules = reparsed.value();
  ChaseOutcome original = IsCR(spec);
  ChaseOutcome round_tripped = IsCR(reparsed_spec);
  ASSERT_TRUE(original.church_rosser);
  ASSERT_TRUE(round_tripped.church_rosser);
  EXPECT_EQ(original.target, round_tripped.target);
  EXPECT_EQ(round_tripped.target, MjExpectedTarget());
}

TEST_F(ParserTest, HandwrittenMjProgramDeducesThePaperTarget) {
  const std::string program = R"(
# Table 3 of the paper, in DSL syntax.
rule phi1 @currency: forall t1, t2 in stat
  (t1[league] = t2[league] and t1[rnds] < t2[rnds] -> t1 <= t2 on [rnds])
rule phi2 @correlation: forall t1, t2 in stat
  (t1 < t2 on [rnds] -> t1 <= t2 on [J#])
rule phi3 @correlation: forall t1, t2 in stat
  (t1 < t2 on [rnds] -> t1 <= t2 on [totalPts])
rule phi4 @correlation: forall t1, t2 in stat
  (t1 < t2 on [league] -> t1 <= t2 on [rnds])
rule phi5 @correlation: forall t1, t2 in stat
  (t1 < t2 on [MN] -> t1 <= t2 on [FN])
rule phi10 @correlation: forall t1, t2 in stat
  (t1 < t2 on [MN] -> t1 <= t2 on [LN])
rule phi11 @correlation: forall t1, t2 in stat
  (t1 < t2 on [team] -> t1 <= t2 on [arena])
rule phi6 @master: forall tm in nba
  (tm[FN] = te[FN] and tm[LN] = te[LN] and tm[season] = "1994-95"
   -> te[league] := tm[league], te[team] := tm[team])
)";
  Result<std::vector<AccuracyRule>> rules = parser_.ParseProgram(program);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();

  Specification spec = MjSpecification();
  spec.rules = rules.value();
  ChaseOutcome outcome = IsCR(spec);
  ASSERT_TRUE(outcome.church_rosser);
  EXPECT_EQ(outcome.target, MjExpectedTarget());
}

TEST_F(ParserTest, FormatterSanitizesAwkwardRuleNames) {
  AccuracyRule rule = RuleBuilder(stat_, "phi7(FN) weird-name")
                          .WhereOrder("MN", true)
                          .Concludes("FN");
  std::string text = FormatRuleDsl(rule, stat_, {}, "stat");
  Result<AccuracyRule> reparsed = parser_.ParseRule(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
}

}  // namespace
}  // namespace relacc
