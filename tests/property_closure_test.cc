// Property tests for the specialized closure algorithms: on randomized
// databases they must equal the direct semi-naive closure exactly, and
// Theorem 3.1's duplicate bound must hold for every decomposition.

#include <gtest/gtest.h>

#include "algebra/closure.h"
#include "datalog/parser.h"
#include "eval/fixpoint.h"
#include "redundancy/closure.h"
#include "redundancy/factorize.h"
#include "separability/algorithm.h"
#include "workload/databases.h"
#include "workload/graphs.h"

namespace linrec {
namespace {

LinearRule LR(const std::string& text) {
  auto lr = ParseLinearRule(text);
  EXPECT_TRUE(lr.ok()) << lr.status();
  return *lr;
}

class SeededClosureProperty : public ::testing::TestWithParam<int> {};

TEST_P(SeededClosureProperty, DecomposedEqualsDirectOnSameGeneration) {
  const std::uint32_t seed = static_cast<std::uint32_t>(GetParam());
  LinearRule r1 = LR("p(X,Y) :- p(X,V), down(V,Y).");
  LinearRule r2 = LR("p(X,Y) :- p(U,Y), up(X,U).");
  SameGenerationWorkload w =
      MakeSameGeneration(3 + seed % 4, 4 + seed % 5, 2, seed);

  ClosureStats direct_stats;
  ClosureStats decomposed_stats;
  auto direct = SemiNaiveClosure({r1, r2}, w.db, w.q, &direct_stats);
  auto decomposed =
      DecomposedClosure({{r1}, {r2}}, w.db, w.q, &decomposed_stats);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(decomposed.ok());
  EXPECT_EQ(*direct, *decomposed);
  // Theorem 3.1.
  EXPECT_LE(decomposed_stats.duplicates, direct_stats.duplicates);
}

TEST_P(SeededClosureProperty, SeparableEqualsSelectThenClose) {
  const std::uint32_t seed = static_cast<std::uint32_t>(GetParam());
  LinearRule r1 = LR("p(X,Y) :- p(X,V), down(V,Y).");
  LinearRule r2 = LR("p(X,Y) :- p(U,Y), up(X,U).");
  SameGenerationWorkload w =
      MakeSameGeneration(3 + seed % 3, 4 + seed % 4, 2, seed * 31 + 1);
  for (const Tuple& t : w.q.Sorted()) {
    // σ on X commutes with r1: r1 is the outer closure.
    Selection sigma{0, t[0]};
    auto fast = SeparableClosure({r1}, {r2}, sigma, w.db, w.q);
    ASSERT_TRUE(fast.ok());
    auto slow = ClosureThenSelect({r1}, {r2}, sigma, w.db, w.q);
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(*fast, *slow) << "selection on " << t[0];
    break;  // one selection per seed keeps runtime modest
  }
}

TEST_P(SeededClosureProperty, RedundantClosureEqualsDirect) {
  const std::uint32_t seed = static_cast<std::uint32_t>(GetParam());
  LinearRule r = LR("buys(X,Y) :- knows(X,Z), buys(Z,Y), cheap(Y).");
  static const RedundantFactorization* factorization = [] {
    auto f = FactorFirstRedundant(
        LinearRule(*ParseLinearRule(
            "buys(X,Y) :- knows(X,Z), buys(Z,Y), cheap(Y).")));
    return new RedundantFactorization(*f);
  }();
  KnowsBuysWorkload w =
      MakeKnowsBuys(15 + seed % 10, 40, 8, 0.4, 10, seed * 7 + 3);
  auto direct = SemiNaiveClosure({r}, w.db, w.q);
  ASSERT_TRUE(direct.ok());
  auto fast = RedundantClosure(*factorization, w.db, w.q);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(*direct, *fast);
}

TEST_P(SeededClosureProperty, NaiveEqualsSemiNaive) {
  const std::uint32_t seed = static_cast<std::uint32_t>(GetParam());
  LinearRule r = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  Database db;
  db.GetOrCreate("e", 2) = RandomGraph(18, 36, seed);
  Relation q(2);
  for (int i = 0; i < 18; i += 4) q.Insert({i, i});
  auto naive = NaiveClosure({r}, db, q);
  auto semi = SemiNaiveClosure({r}, db, q);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(semi.ok());
  EXPECT_EQ(*naive, *semi);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededClosureProperty,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace linrec
