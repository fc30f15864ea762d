#include "datalog/parser.h"

#include <limits>

#include <gtest/gtest.h>

#include "datalog/printer.h"
#include "datalog/traits.h"

namespace linrec {
namespace {

TEST(ParserTest, SimpleRule) {
  auto rule = ParseRule("path(X,Y) :- edge(X,Y).");
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->head().predicate, "path");
  EXPECT_EQ(rule->head().arity(), 2u);
  ASSERT_EQ(rule->body().size(), 1u);
  EXPECT_EQ(rule->body()[0].predicate, "edge");
}

TEST(ParserTest, SharedVariablesGetOneId) {
  auto rule = ParseRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  ASSERT_TRUE(rule.ok());
  // X in head and body must be the same variable.
  EXPECT_EQ(rule->head().terms[0].var(), rule->body()[0].terms[0].var());
  EXPECT_EQ(rule->var_count(), 3);
}

TEST(ParserTest, Constants) {
  auto rule = ParseRule("p(X) :- e(X, 42), f(-7, X).");
  ASSERT_TRUE(rule.ok());
  EXPECT_TRUE(rule->body()[0].terms[1].is_const());
  EXPECT_EQ(rule->body()[0].terms[1].constant(), 42);
  EXPECT_EQ(rule->body()[1].terms[0].constant(), -7);
}

TEST(ParserTest, CommentsAndWhitespace) {
  auto program = ParseProgram(
      "% leading comment\n"
      "p(X,Y) :- e(X,Y).  // trailing\n"
      "\n"
      "e(1,2).\n");
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->rules.size(), 1u);
  EXPECT_EQ(program->facts.size(), 1u);
}

TEST(ParserTest, FactsToDatabase) {
  auto program = ParseProgram("e(1,2). e(2,3). n(5).");
  ASSERT_TRUE(program.ok());
  auto db = program->FactsToDatabase();
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->Find("e")->size(), 2u);
  EXPECT_EQ(db->Find("n")->arity(), 1u);
}

TEST(ParserTest, FactArityConflictRejected) {
  auto program = ParseProgram("e(1,2). e(1).");
  ASSERT_TRUE(program.ok());
  auto db = program->FactsToDatabase();
  EXPECT_FALSE(db.ok());
}

TEST(ParserTest, NonGroundFactRejected) {
  auto program = ParseProgram("e(X,2).");
  EXPECT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, ErrorsCarryPosition) {
  auto program = ParseProgram("p(X) :- \n  q(X)");
  ASSERT_FALSE(program.ok());
  // Missing final period on line 2.
  EXPECT_NE(program.status().message().find("2:"), std::string::npos)
      << program.status();
}

TEST(ParserTest, IntegerLiteralsSpanInt64) {
  auto program = ParseProgram(
      "e(-9223372036854775808, 9223372036854775807).");
  ASSERT_TRUE(program.ok()) << program.status();
  ASSERT_EQ(program->facts.size(), 1u);
  EXPECT_EQ(program->facts[0].terms[0].constant(),
            std::numeric_limits<Value>::min());
  EXPECT_EQ(program->facts[0].terms[1].constant(),
            std::numeric_limits<Value>::max());

  // One past either bound is a typed error at the literal, not a throw.
  for (const char* text : {"e(-9223372036854775809, 1).",
                           "e(1, 9223372036854775808)."}) {
    auto out_of_range = ParseProgram(text);
    ASSERT_FALSE(out_of_range.ok()) << text;
    EXPECT_EQ(out_of_range.status().code(), StatusCode::kParseError) << text;
    EXPECT_NE(out_of_range.status().message().find("integer out of range"),
              std::string::npos)
        << out_of_range.status();
  }
  EXPECT_EQ(ParseProgram("e(1, 9223372036854775808).").status().message(),
            "1:6: integer out of range");
}

TEST(ParserTest, ErrorsAreReportedInTextOrder) {
  // The clause's syntax error comes before the stray character, so it is
  // the one reported.
  auto program = ParseProgram("p(X) :- q(X) r(X).\n$");
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().message(), "1:14: expected '.'");
  program = ParseProgram("e(1, 2).\n$ p(X) :- q(X) r(X).");
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().message(), "2:1: unexpected character '$'");
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseProgram("p(X) :- q(X) &").ok());
  EXPECT_FALSE(ParseProgram("p(X :- q(X).").ok());
  EXPECT_FALSE(ParseProgram("p() :- q(X).").ok());
  EXPECT_FALSE(ParseProgram(":- q(X).").ok());
}

TEST(ParserTest, ParseRuleRejectsPrograms) {
  EXPECT_FALSE(ParseRule("p(X) :- q(X). p(Y) :- r(Y).").ok());
  EXPECT_FALSE(ParseRule("e(1,2).").ok());
}

TEST(ParserTest, ParseLinearRule) {
  auto lr = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  ASSERT_TRUE(lr.ok());
  EXPECT_EQ(lr->recursive_atom_index(), 0);
  EXPECT_EQ(lr->NonRecursiveAtomIndices(), std::vector<int>{1});
}

TEST(ParserTest, ParseLinearRuleRejectsNonLinear) {
  EXPECT_FALSE(ParseLinearRule("p(X,Y) :- p(X,Z), p(Z,Y).").ok());
  EXPECT_FALSE(ParseLinearRule("p(X,Y) :- e(X,Y).").ok());
}

TEST(PrinterTest, RoundTrip) {
  const std::string text = "p(X,Y) :- p(X,Z), e(Z,Y), g(Y).";
  auto rule = ParseRule(text);
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(ToString(*rule), text);
  auto reparsed = ParseRule(ToString(*rule));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(ToString(*reparsed), text);
}

TEST(PrinterTest, ConstantsRoundTrip) {
  const std::string text = "p(X) :- e(X,42).";
  auto rule = ParseRule(text);
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(ToString(*rule), text);
}

TEST(TraitsTest, RestrictedClassDetection) {
  auto good = ParseRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  ASSERT_TRUE(good.ok());
  RuleTraits traits = ComputeTraits(*good);
  EXPECT_TRUE(traits.linear);
  EXPECT_TRUE(traits.constant_free);
  EXPECT_TRUE(traits.range_restricted);
  EXPECT_FALSE(traits.repeated_head_vars);
  EXPECT_FALSE(traits.repeated_nonrecursive_predicates);
  EXPECT_TRUE(traits.InRestrictedClass());
}

TEST(TraitsTest, RepeatedPredicateLeavesRestrictedClass) {
  auto rule = ParseRule("p(X,Y) :- p(U,V), q(X), q(Y).");
  ASSERT_TRUE(rule.ok());
  RuleTraits traits = ComputeTraits(*rule);
  EXPECT_TRUE(traits.repeated_nonrecursive_predicates);
  EXPECT_FALSE(traits.InRestrictedClass());
}

TEST(TraitsTest, RepeatedHeadVars) {
  auto rule = ParseRule("p(X,X) :- p(X,Y), q(Y).");
  ASSERT_TRUE(rule.ok());
  EXPECT_TRUE(ComputeTraits(*rule).repeated_head_vars);
}

TEST(TraitsTest, NotRangeRestricted) {
  auto rule = ParseRule("p(X,Y) :- p(X,X), q(X).");
  ASSERT_TRUE(rule.ok());
  EXPECT_FALSE(ComputeTraits(*rule).range_restricted);
}

TEST(TraitsTest, ConstantsDetected) {
  auto rule = ParseRule("p(X,Y) :- p(X,Z), e(Z,Y), f(3).");
  ASSERT_TRUE(rule.ok());
  EXPECT_FALSE(ComputeTraits(*rule).constant_free);
}

TEST(AlignTest, RenamesSecondRuleOntoFirst) {
  auto r1 = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto r2 = ParseLinearRule("p(A,B) :- p(U,B), f(A,U).");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  auto aligned = AlignRules(*r1, *r2);
  ASSERT_TRUE(aligned.ok()) << aligned.status();
  const Rule& renamed = aligned->second.rule();
  EXPECT_EQ(renamed.var_name(renamed.head().terms[0].var()), "X");
  EXPECT_EQ(renamed.var_name(renamed.head().terms[1].var()), "Y");
}

TEST(AlignTest, NondistinguishedNamesKeptDisjoint) {
  auto r1 = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto r2 = ParseLinearRule("p(A,B) :- p(Z,B), f(A,Z).");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  auto aligned = AlignRules(*r1, *r2);
  ASSERT_TRUE(aligned.ok());
  // r2's Z collides with r1's Z and must have been renamed.
  const Rule& renamed = aligned->second.rule();
  for (VarId v = 0; v < renamed.var_count(); ++v) {
    if (!renamed.IsDistinguished(v)) {
      EXPECT_NE(renamed.var_name(v), "Z");
    }
  }
}

TEST(AlignTest, MismatchedHeadsRejected) {
  auto r1 = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto r2 = ParseLinearRule("r(A,B) :- r(U,B), f(A,U).");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(AlignRules(*r1, *r2).ok());
}

}  // namespace
}  // namespace linrec
