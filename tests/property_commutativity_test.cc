// Property tests for the commutativity machinery over randomized rules.
//
// Invariants checked (seeded sweeps via TEST_P):
//  * Theorem 5.1 (soundness): syntactic condition ⇒ definitional
//    commutativity ⇒ semantic commutativity on random databases.
//  * Theorem 5.2 (exactness in the restricted class): syntactic condition ⇔
//    definitional commutativity.
//  * Decomposition: if the rules commute, (A1+A2)*q = A1*(A2*q).

#include <gtest/gtest.h>

#include <random>

#include "algebra/closure.h"
#include "commutativity/definitional.h"
#include "commutativity/syntactic.h"
#include "datalog/printer.h"
#include "datalog/traits.h"
#include "eval/apply.h"
#include "workload/graphs.h"
#include "workload/rulegen.h"

namespace linrec {
namespace {

/// Builds a database covering every predicate of both rules with random
/// binary/unary/ternary relations.
Database CoveringDb(const LinearRule& r1, const LinearRule& r2,
                    std::uint32_t seed) {
  Database db;
  std::mt19937 rng(seed);
  auto cover = [&](const Rule& r) {
    for (const Atom& atom : r.body()) {
      if (atom.predicate == r.head().predicate) continue;
      Relation& rel = db.GetOrCreate(atom.predicate, atom.arity());
      std::uniform_int_distribution<int> pick(0, 9);
      for (int i = 0; i < 25; ++i) {
        std::vector<Value> values;
        for (std::size_t p = 0; p < atom.arity(); ++p) {
          values.push_back(pick(rng));
        }
        rel.Insert(Tuple(std::move(values)));
      }
    }
  };
  cover(r1.rule());
  cover(r2.rule());
  return db;
}

Relation RandomSeedRelation(std::size_t arity, std::uint32_t seed) {
  Relation q(arity);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pick(0, 9);
  for (int i = 0; i < 6; ++i) {
    std::vector<Value> values;
    for (std::size_t p = 0; p < arity; ++p) values.push_back(pick(rng));
    q.Insert(Tuple(std::move(values)));
  }
  return q;
}

class RandomRulePairProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomRulePairProperty, SyntacticSoundAndExactInRestrictedClass) {
  const std::uint32_t seed = static_cast<std::uint32_t>(GetParam());
  auto r1 = RandomLinearRule(3, 2, seed * 2 + 1);
  auto r2 = RandomLinearRule(3, 2, seed * 2 + 2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());

  auto syntactic = CheckSyntacticCondition(*r1, *r2);
  ASSERT_TRUE(syntactic.ok()) << syntactic.status();
  auto exact = DefinitionalCommute(*r1, *r2);
  ASSERT_TRUE(exact.ok());

  if (syntactic->condition_holds) {
    EXPECT_TRUE(*exact) << "Theorem 5.1 violated:\n  r1: " << ToString(*r1)
                        << "\n  r2: " << ToString(*r2);
  }
  bool restricted = ComputeTraits(r1->rule()).InRestrictedClass() &&
                    ComputeTraits(r2->rule()).InRestrictedClass();
  if (restricted && *exact) {
    EXPECT_TRUE(syntactic->condition_holds)
        << "Theorem 5.2 (necessity) violated:\n  r1: " << ToString(*r1)
        << "\n  r2: " << ToString(*r2);
  }
}

TEST_P(RandomRulePairProperty, DefinitionalImpliesSemanticCommutation) {
  const std::uint32_t seed = static_cast<std::uint32_t>(GetParam());
  auto r1 = RandomLinearRule(2, 2, seed * 3 + 1);
  auto r2 = RandomLinearRule(2, 2, seed * 3 + 2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  auto exact = DefinitionalCommute(*r1, *r2);
  ASSERT_TRUE(exact.ok());
  if (!*exact) return;

  Database db = CoveringDb(*r1, *r2, seed);
  Relation q = RandomSeedRelation(2, seed + 99);
  // A1(A2 q) == A2(A1 q).
  auto a2q = ApplySum({*r2}, db, q);
  ASSERT_TRUE(a2q.ok());
  auto a1a2q = ApplySum({*r1}, db, *a2q);
  ASSERT_TRUE(a1a2q.ok());
  auto a1q = ApplySum({*r1}, db, q);
  ASSERT_TRUE(a1q.ok());
  auto a2a1q = ApplySum({*r2}, db, *a1q);
  ASSERT_TRUE(a2a1q.ok());
  EXPECT_EQ(*a1a2q, *a2a1q)
      << "definitional commutativity not reflected semantically:\n  r1: "
      << ToString(*r1) << "\n  r2: " << ToString(*r2);
}

TEST_P(RandomRulePairProperty, CommutingPairsDecompose) {
  const std::uint32_t seed = static_cast<std::uint32_t>(GetParam());
  auto r1 = RandomLinearRule(2, 2, seed * 5 + 1);
  auto r2 = RandomLinearRule(2, 2, seed * 5 + 2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  auto exact = DefinitionalCommute(*r1, *r2);
  ASSERT_TRUE(exact.ok());
  if (!*exact) return;

  Database db = CoveringDb(*r1, *r2, seed + 7);
  Relation q = RandomSeedRelation(2, seed + 17);
  auto direct = SemiNaiveClosure({*r1, *r2}, db, q);
  ASSERT_TRUE(direct.ok());
  auto decomposed = DecomposedClosure({{*r1}, {*r2}}, db, q);
  ASSERT_TRUE(decomposed.ok());
  EXPECT_EQ(*direct, *decomposed)
      << "(A1+A2)* != A1*A2* for commuting pair:\n  r1: " << ToString(*r1)
      << "\n  r2: " << ToString(*r2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRulePairProperty,
                         ::testing::Range(0, 40));

class GeneratedPairProperty : public ::testing::TestWithParam<int> {};

TEST_P(GeneratedPairProperty, MirroredPairsCommuteAtEveryArity) {
  int half = GetParam();
  auto pair = MakeRestrictedCommutingPair(half);
  ASSERT_TRUE(pair.ok());
  auto syntactic = CheckSyntacticCondition(pair->first, pair->second);
  ASSERT_TRUE(syntactic.ok());
  EXPECT_TRUE(syntactic->condition_holds);
  auto exact = DefinitionalCommute(pair->first, pair->second);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(*exact);
}

TEST_P(GeneratedPairProperty, SpoiledPairsDoNotCommute) {
  int half = GetParam();
  auto pair = MakeRestrictedNonCommutingPair(half);
  ASSERT_TRUE(pair.ok());
  auto syntactic = CheckSyntacticCondition(pair->first, pair->second);
  ASSERT_TRUE(syntactic.ok());
  EXPECT_FALSE(syntactic->condition_holds);
  auto exact = DefinitionalCommute(pair->first, pair->second);
  ASSERT_TRUE(exact.ok());
  EXPECT_FALSE(*exact);
}

INSTANTIATE_TEST_SUITE_P(Arities, GeneratedPairProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace linrec
