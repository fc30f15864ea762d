#include "algebra/program_eval.h"

#include <gtest/gtest.h>

#include <string>

#include "common/strings.h"
#include "datalog/parser.h"

namespace linrec {
namespace {

Program P(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return *program;
}

TEST(ProgramEvalTest, TransitiveClosureWithBaseRule) {
  Program program = P(
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
      "edge(1,2). edge(2,3). edge(3,4).\n");
  auto result = EvaluateProgram(program);
  ASSERT_TRUE(result.ok()) << result.status();
  const Relation* path = result->db.Find("path");
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->size(), 6u);
  EXPECT_TRUE(path->Contains({1, 4}));
  EXPECT_FALSE(path->Contains({4, 1}));
}

TEST(ProgramEvalTest, FactsSeedRecursivePredicate) {
  // Facts for the recursive predicate itself join the seed.
  Program program = P(
      "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
      "path(10,11).\n"
      "edge(11,12).\n");
  auto result = EvaluateProgram(program);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->db.Find("path")->Contains({10, 12}));
}

TEST(ProgramEvalTest, DependentPredicatesInOrder) {
  // tc depends on edge; reach depends on tc.
  Program program = P(
      "tc(X,Y) :- edge(X,Y).\n"
      "tc(X,Y) :- tc(X,Z), edge(Z,Y).\n"
      "reach(X) :- tc(0,X).\n"
      "edge(0,1). edge(1,2).\n");
  auto result = EvaluateProgram(program);
  ASSERT_TRUE(result.ok()) << result.status();
  const Relation* reach = result->db.Find("reach");
  ASSERT_NE(reach, nullptr);
  EXPECT_EQ(reach->size(), 2u);
  EXPECT_TRUE(reach->Contains({1}));
  EXPECT_TRUE(reach->Contains({2}));
}

TEST(ProgramEvalTest, SameGenerationTwoRecursiveRules) {
  Program program = P(
      "sg(X,Y) :- flat(X,Y).\n"
      "sg(X,Y) :- sg(X,V), down(V,Y).\n"
      "sg(X,Y) :- sg(U,Y), up(X,U).\n"
      "flat(1,1). flat(2,2).\n"
      "down(1,3). down(2,4).\n"
      "up(3,1). up(4,2).\n");
  auto plain = EvaluateProgram(program);
  ASSERT_TRUE(plain.ok()) << plain.status();

  ProgramEvalOptions options;
  options.use_decomposition = true;
  auto decomposed = EvaluateProgram(program, options);
  ASSERT_TRUE(decomposed.ok()) << decomposed.status();

  const Relation* a = plain->db.Find("sg");
  const Relation* b = decomposed->db.Find("sg");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(*a, *b);
  EXPECT_TRUE(a->Contains({3, 3}));  // down from (1,1) then up: (3,3)
}

TEST(ProgramEvalTest, EqualityInBaseRule) {
  Program program = P(
      "loop(X,Y) :- edge(X,Y), X = Y.\n"
      "edge(1,1). edge(1,2). edge(3,3).\n");
  auto result = EvaluateProgram(program);
  ASSERT_TRUE(result.ok()) << result.status();
  const Relation* loop = result->db.Find("loop");
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->size(), 2u);
}

TEST(ProgramEvalTest, LinearMutualRecursionEvaluates) {
  // Pre-SCC versions rejected any predicate cycle; linear mutual
  // recursion is now closed jointly. With no base rules the component's
  // fixpoint is empty.
  Program program = P(
      "a(X) :- b(X).\n"
      "b(X) :- a(X), g(X).\n"
      "g(1).\n");
  auto result = EvaluateProgram(program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->db.Find("a")->empty());
  EXPECT_TRUE(result->db.Find("b")->empty());

  // Seed a and the pair closes mutually: a ⊇ b, b ⊇ a ⋈ g.
  Program seeded = P(
      "a(X) :- s(X).\n"
      "a(X) :- b(X).\n"
      "b(X) :- a(X), g(X).\n"
      "s(1). s(2). g(1).\n");
  auto closed = EvaluateProgram(seeded);
  ASSERT_TRUE(closed.ok()) << closed.status();
  const Relation* a = closed->db.Find("a");
  const Relation* b = closed->db.Find("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->size(), 2u);  // {1, 2}
  EXPECT_TRUE(a->Contains({1}));
  EXPECT_TRUE(a->Contains({2}));
  EXPECT_EQ(b->size(), 1u);  // {1}: only 1 passes the g guard
  EXPECT_TRUE(b->Contains({1}));
}

TEST(ProgramEvalTest, EvenOddChainEvaluates) {
  // The classic two-member component: parity over a successor chain.
  Program program = P(
      "even(X) :- zero(X).\n"
      "even(X) :- odd(Y), succ(Y,X).\n"
      "odd(X) :- even(Y), succ(Y,X).\n"
      "zero(0).\n"
      "succ(0,1). succ(1,2). succ(2,3). succ(3,4). succ(4,5).\n");
  auto result = EvaluateProgram(program);
  ASSERT_TRUE(result.ok()) << result.status();
  const Relation* even = result->db.Find("even");
  const Relation* odd = result->db.Find("odd");
  ASSERT_NE(even, nullptr);
  ASSERT_NE(odd, nullptr);
  EXPECT_EQ(even->size(), 3u);
  EXPECT_EQ(odd->size(), 3u);
  for (int i = 0; i <= 5; ++i) {
    EXPECT_EQ(even->Contains({i}), i % 2 == 0) << i;
    EXPECT_EQ(odd->Contains({i}), i % 2 == 1) << i;
  }
  // The joint plan is reported once for the whole component.
  ASSERT_EQ(result->plan_explanations.size(), 1u);
  EXPECT_NE(result->plan_explanations[0].find("joint-semi-naive"),
            std::string::npos)
      << result->plan_explanations[0];
  EXPECT_NE(result->plan_explanations[0].find("even, odd"),
            std::string::npos)
      << result->plan_explanations[0];
}

TEST(ProgramEvalTest, NonLinearMutualRecursionNamesComponent) {
  // Two component atoms in one body: outside the (joint) linear class.
  // The error names every member of the strongly connected component.
  Program program = P(
      "a(X) :- b(X).\n"
      "b(X) :- cc(X).\n"
      "cc(X) :- a(X), b(X).\n"
      "g(1).\n");
  auto result = EvaluateProgram(program);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  for (const char* member : {"a", "b", "cc"}) {
    EXPECT_NE(result.status().message().find(member), std::string::npos)
        << result.status().message();
  }
}

TEST(ProgramEvalTest, DeepDependencyChainDoesNotOverflow) {
  // ~10k-predicate dependency chain: the recursive-DFS ordering of
  // pre-SCC versions overflowed the stack here; the iterative Tarjan
  // condensation must not.
  constexpr int kDepth = 10000;
  std::string text = "p0(X) :- e(X).\ne(1). e(2).\n";
  for (int i = 1; i < kDepth; ++i) {
    text += StrCat("p", i, "(X) :- p", i - 1, "(X).\n");
  }
  Program program = P(text);
  auto result = EvaluateProgram(program);
  ASSERT_TRUE(result.ok()) << result.status();
  const Relation* last = result->db.Find(StrCat("p", kDepth - 1));
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->size(), 2u);
  EXPECT_TRUE(last->Contains({1}));
}

TEST(ProgramEvalTest, ReplacedIdbRelationIsReJoinedFresh) {
  // Regression: evaluating `a` replaces the db's `a` relation in place
  // (GetOrCreate(...) = std::move(value)), at the same address that facts
  // for `a` occupied — any index built over the old contents is stale.
  // A later predicate joining `a` twice must see the closed relation.
  Program program = P(
      "a(X,Y) :- e1(X,Y).\n"
      "a(X,Y) :- a(X,Z), e1(Z,Y).\n"
      "b(X,Y) :- a(X,Z), a(Z,Y).\n"
      "a(5,6).\n"
      "e1(1,2). e1(2,3).\n");
  for (bool decompose : {false, true}) {
    ProgramEvalOptions options;
    options.use_decomposition = decompose;
    auto result = EvaluateProgram(program, options);
    ASSERT_TRUE(result.ok()) << result.status();
    const Relation* a = result->db.Find("a");
    const Relation* b = result->db.Find("b");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    // a = {(5,6)} ∪ {(1,2),(2,3)} closed under ∘e1 = + {(1,3)}.
    EXPECT_EQ(a->size(), 4u);
    EXPECT_TRUE(a->Contains({1, 3}));
    // b joins the *replaced* a with itself: only (1,2)∘(2,3).
    EXPECT_EQ(b->size(), 1u);
    EXPECT_TRUE(b->Contains({1, 3}));
  }
}

TEST(ProgramEvalTest, NonLinearRecursionRejected) {
  Program program = P(
      "p(X,Y) :- p(X,Z), p(Z,Y).\n"
      "p(1,2).\n");
  auto result = EvaluateProgram(program);
  ASSERT_FALSE(result.ok());
}

TEST(ProgramEvalTest, InconsistentArityRejected) {
  Program program = P(
      "p(X) :- g(X).\n"
      "p(X,Y) :- g(X), g(Y).\n"
      "g(1).\n");
  auto result = EvaluateProgram(program);
  ASSERT_FALSE(result.ok());
}

TEST(ProgramEvalTest, EmptyProgram) {
  Program program = P("");
  auto result = EvaluateProgram(program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->db.relation_count(), 0u);
}

TEST(ProgramEvalTest, FactsOnly) {
  Program program = P("e(1,2). e(2,3).");
  auto result = EvaluateProgram(program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->db.Find("e")->size(), 2u);
}

TEST(ProgramEvalTest, UnsatisfiableBaseRuleContributesNothing) {
  Program program = P(
      "p(X) :- g(X), 1 = 2.\n"
      "g(5).\n");
  auto result = EvaluateProgram(program);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->db.Find("p")->empty());
}

TEST(ProgramEvalTest, StatsAccumulate) {
  Program program = P(
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
      "edge(0,1). edge(1,2). edge(2,3). edge(3,4). edge(4,5).\n");
  auto result = EvaluateProgram(program);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.derivations, 0u);
  EXPECT_GT(result->stats.iterations, 0u);
  EXPECT_GT(result->stats.result_size, 0u);
}

}  // namespace
}  // namespace linrec
