#include "commutativity/power_commutativity.h"

#include <gtest/gtest.h>

#include <random>

#include "algebra/closure.h"
#include "datalog/parser.h"
#include "datalog/printer.h"
#include "workload/graphs.h"
#include "workload/rulegen.h"

namespace linrec {
namespace {

LinearRule LR(const std::string& text) {
  auto lr = ParseLinearRule(text);
  EXPECT_TRUE(lr.ok()) << lr.status();
  return *lr;
}

TEST(AbsorptionTest, CommutingPairFoundAtOneOne) {
  LinearRule b = LR("p(X,Y) :- p(X,V), down(V,Y).");
  LinearRule c = LR("p(X,Y) :- p(U,Y), up(X,U).");
  auto witness = FindAbsorption(b, c, 3);
  ASSERT_TRUE(witness.ok());
  ASSERT_TRUE(witness->found);
  EXPECT_EQ(witness->k, 1);
  EXPECT_EQ(witness->l, 1);
}

TEST(AbsorptionTest, StrongerFilterAbsorbs) {
  // C's filter subsumes B's: CB = C, witnessed at (k,l) = (0,1).
  LinearRule b = LR("p(X) :- p(X), g1(X).");
  LinearRule c = LR("p(X) :- p(X), g1(X), g2(X).");
  auto witness = FindAbsorption(b, c, 3);
  ASSERT_TRUE(witness.ok());
  ASSERT_TRUE(witness->found);
  EXPECT_EQ(witness->k, 0);
  EXPECT_EQ(witness->l, 1);
}

TEST(AbsorptionTest, NonCommutingPairNotFound) {
  LinearRule b = LR("p(X,Y) :- p(X,Z), q(Z,Y).");
  LinearRule c = LR("p(X,Y) :- p(X,Z), rr(Z,Y).");
  auto witness = FindAbsorption(b, c, 3);
  ASSERT_TRUE(witness.ok());
  EXPECT_FALSE(witness->found);
}

TEST(AbsorptionTest, WitnessLicensesDecomposition) {
  // The theorem: CB ≤ B^kC^l (k or l ≤ 1) ⇒ (B+C)* = B*C*. Verify
  // semantically for the filter pair on a random database.
  LinearRule b = LR("p(X) :- p(X), g1(X).");
  LinearRule c = LR("p(X) :- p(X), g1(X), g2(X).");
  auto witness = FindAbsorption(b, c, 3);
  ASSERT_TRUE(witness.ok());
  ASSERT_TRUE(witness->found);

  Database db;
  Relation& g1 = db.GetOrCreate("g1", 1);
  Relation& g2 = db.GetOrCreate("g2", 1);
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> pick(0, 20);
  for (int i = 0; i < 12; ++i) g1.Insert({pick(rng)});
  for (int i = 0; i < 12; ++i) g2.Insert({pick(rng)});
  Relation q(1);
  for (int i = 0; i < 10; ++i) q.Insert({pick(rng)});

  auto direct = SemiNaiveClosure({b, c}, db, q);
  auto decomposed = DecomposedClosure({{b}, {c}}, db, q);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(decomposed.ok());
  EXPECT_EQ(*direct, *decomposed);
}

TEST(PowersCommuteTest, SquaresOfNonCommutingPermutationsCommute) {
  // r1 swaps (X,Y); r2 swaps (Y,Z). They do not commute, but their squares
  // are both the identity permutation on positions — which commute.
  LinearRule r1 = LR("p(X,Y,Z) :- p(Y,X,Z).");
  LinearRule r2 = LR("p(X,Y,Z) :- p(X,Z,Y).");
  auto first = PowersCommute(r1, 1, r2, 1);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(*first);
  auto squares = PowersCommute(r1, 2, r2, 2);
  ASSERT_TRUE(squares.ok());
  EXPECT_TRUE(*squares);
}

TEST(PowersCommuteTest, CommutingPairCommutesAtAllSmallPowers) {
  LinearRule b = LR("p(X,Y) :- p(X,V), down(V,Y).");
  LinearRule c = LR("p(X,Y) :- p(U,Y), up(X,U).");
  for (int i = 1; i <= 3; ++i) {
    for (int j = 1; j <= 3; ++j) {
      auto commute = PowersCommute(b, i, c, j);
      ASSERT_TRUE(commute.ok());
      EXPECT_TRUE(*commute) << "powers " << i << "," << j;
    }
  }
}

TEST(AbsorptionTest, GeneratedPairs) {
  auto pair = MakeRestrictedCommutingPair(2);
  ASSERT_TRUE(pair.ok());
  auto witness = FindAbsorption(pair->first, pair->second, 2);
  ASSERT_TRUE(witness.ok());
  EXPECT_TRUE(witness->found);

  auto bad = MakeRestrictedNonCommutingPair(2);
  ASSERT_TRUE(bad.ok());
  auto no_witness = FindAbsorption(bad->first, bad->second, 2);
  ASSERT_TRUE(no_witness.ok());
  EXPECT_FALSE(no_witness->found);
}

TEST(AbsorptionTest, InvalidBudgetRejected) {
  LinearRule b = LR("p(X) :- p(X), g1(X).");
  EXPECT_FALSE(FindAbsorption(b, b, 0).ok());
}

}  // namespace
}  // namespace linrec
