#include "algebra/closure.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "workload/databases.h"

namespace linrec {
namespace {

LinearRule LR(const std::string& text) {
  auto lr = ParseLinearRule(text);
  EXPECT_TRUE(lr.ok()) << lr.status();
  return *lr;
}

struct SgFixture {
  LinearRule r1 = LR("p(X,Y) :- p(X,V), down(V,Y).");
  LinearRule r2 = LR("p(X,Y) :- p(U,Y), up(X,U).");
  SameGenerationWorkload w = MakeSameGeneration(5, 6, 2, 42);
};

TEST(DecomposedClosureTest, EqualsDirectClosureForCommutingPair) {
  SgFixture f;
  ClosureStats direct_stats;
  auto direct = SemiNaiveClosure({f.r1, f.r2}, f.w.db, f.w.q, &direct_stats);
  ASSERT_TRUE(direct.ok()) << direct.status();

  ClosureStats decomposed_stats;
  auto decomposed = DecomposedClosure({{f.r1}, {f.r2}}, f.w.db, f.w.q,
                                      &decomposed_stats);
  ASSERT_TRUE(decomposed.ok());
  EXPECT_EQ(*direct, *decomposed);
  EXPECT_FALSE(direct->empty());
}

TEST(DecomposedClosureTest, Theorem31DuplicateBound) {
  // Theorem 3.1: B*C* produces no more duplicates than (B+C)*.
  SgFixture f;
  ClosureStats direct_stats;
  auto direct = SemiNaiveClosure({f.r1, f.r2}, f.w.db, f.w.q, &direct_stats);
  ASSERT_TRUE(direct.ok());
  ClosureStats decomposed_stats;
  auto decomposed = DecomposedClosure({{f.r1}, {f.r2}}, f.w.db, f.w.q,
                                      &decomposed_stats);
  ASSERT_TRUE(decomposed.ok());
  EXPECT_LE(decomposed_stats.duplicates, direct_stats.duplicates);
}

TEST(DecomposedClosureTest, OrderIrrelevantForCommutingPair) {
  SgFixture f;
  auto order_a = DecomposedClosure({{f.r1}, {f.r2}}, f.w.db, f.w.q);
  auto order_b = DecomposedClosure({{f.r2}, {f.r1}}, f.w.db, f.w.q);
  ASSERT_TRUE(order_a.ok());
  ASSERT_TRUE(order_b.ok());
  EXPECT_EQ(*order_a, *order_b);
}

TEST(DecomposedClosureTest, SingleGroupIsDirect) {
  SgFixture f;
  auto direct = SemiNaiveClosure({f.r1, f.r2}, f.w.db, f.w.q);
  auto single = DecomposedClosure({{f.r1, f.r2}}, f.w.db, f.w.q);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(*direct, *single);
}

TEST(DecomposedClosureTest, EmptyGroupsRejected) {
  Database db;
  Relation q(2);
  EXPECT_FALSE(DecomposedClosure({}, db, q).ok());
}

}  // namespace
}  // namespace linrec
