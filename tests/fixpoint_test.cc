#include "eval/fixpoint.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "workload/graphs.h"

namespace linrec {
namespace {

LinearRule TC() {
  auto lr = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  EXPECT_TRUE(lr.ok());
  return *lr;
}

TEST(SemiNaiveTest, TransitiveClosureOfChain) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(5);  // 0->1->2->3->4
  Relation q(2);
  for (int i = 0; i < 5; ++i) q.Insert({i, i});  // identity seed

  ClosureStats stats;
  Result<Relation> out = SemiNaiveClosure({TC()}, db, q, &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  // All pairs (i,j) with i <= j: 15.
  EXPECT_EQ(out->size(), 15u);
  EXPECT_TRUE(out->Contains({0, 4}));
  EXPECT_FALSE(out->Contains({4, 0}));
  EXPECT_EQ(stats.result_size, 15u);
  EXPECT_GE(stats.iterations, 4u);
}

TEST(SemiNaiveTest, CycleTerminates) {
  Database db;
  db.GetOrCreate("e", 2) = CycleGraph(4);
  Relation q(2);
  q.Insert({0, 0});
  Result<Relation> out = SemiNaiveClosure({TC()}, db, q);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 4u);  // (0, j) for all j
}

TEST(SemiNaiveTest, EmptySeedGivesEmptyResult) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(5);
  Relation q(2);
  ClosureStats stats;
  Result<Relation> out = SemiNaiveClosure({TC()}, db, q, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(stats.iterations, 0u);
}

TEST(SemiNaiveTest, MultipleRules) {
  // Two operators: forward and backward edges.
  auto r1 = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto r2 = ParseLinearRule("p(X,Y) :- p(X,Z), f(Z,Y).");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  Database db;
  db.GetOrCreate("e", 2).Insert({0, 1});
  db.GetOrCreate("f", 2).Insert({1, 2});
  Relation q(2);
  q.Insert({9, 0});
  Result<Relation> out = SemiNaiveClosure({*r1, *r2}, db, q);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->Contains({9, 1}));
  EXPECT_TRUE(out->Contains({9, 2}));
  EXPECT_EQ(out->size(), 3u);
}

TEST(NaiveMatchesSemiNaive, OnRandomGraph) {
  Database db;
  db.GetOrCreate("e", 2) = RandomGraph(30, 60, 7);
  Relation q(2);
  for (int i = 0; i < 30; ++i) q.Insert({i, i});
  ClosureStats naive_stats;
  ClosureStats semi_stats;
  Result<Relation> naive = NaiveClosure({TC()}, db, q, &naive_stats);
  Result<Relation> semi = SemiNaiveClosure({TC()}, db, q, &semi_stats);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(semi.ok());
  EXPECT_EQ(*naive, *semi);
  // Naive rederives everything each round.
  EXPECT_GE(naive_stats.derivations, semi_stats.derivations);
}

TEST(SemiNaiveTest, DuplicateAccounting) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(4);
  Relation q(2);
  for (int i = 0; i < 4; ++i) q.Insert({i, i});
  ClosureStats stats;
  Result<Relation> out = SemiNaiveClosure({TC()}, db, q, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.duplicates,
            stats.derivations - (stats.result_size - q.size()));
}

/// A ClosureStats that already holds another call's work, as when a
/// caller (Engine::Retract) threads one record through several kernels.
ClosureStats Preloaded() {
  ClosureStats stats;
  stats.derivations = 1000;
  stats.duplicates = 7;
  return stats;
}

TEST(SemiNaiveTest, DuplicateAccountingWithPreloadedStats) {
  // Every closure counts its own duplicates from a snapshot taken on
  // entry, so a pre-loaded accumulator ends at preload + per-call counts.
  Database db;
  db.GetOrCreate("e", 2) = RandomGraph(20, 60, /*seed=*/3);  // cycles
  Relation q(2);
  for (int i = 0; i < 20; ++i) q.Insert({i, i});

  ClosureStats fresh;
  Result<Relation> closed = SemiNaiveClosure({TC()}, db, q, &fresh);
  ASSERT_TRUE(closed.ok());
  ASSERT_GT(fresh.duplicates, 0u);
  ClosureStats loaded = Preloaded();
  ASSERT_TRUE(SemiNaiveClosure({TC()}, db, q, &loaded).ok());
  EXPECT_EQ(loaded.derivations, 1000 + fresh.derivations);
  EXPECT_EQ(loaded.duplicates, 7 + fresh.duplicates);

  for (auto* naive : {&NaiveClosure}) {
    ClosureStats once;
    ASSERT_TRUE((*naive)({TC()}, db, q, &once, nullptr, nullptr).ok());
    ClosureStats preloaded = Preloaded();
    ASSERT_TRUE((*naive)({TC()}, db, q, &preloaded, nullptr, nullptr).ok());
    EXPECT_EQ(preloaded.duplicates, 7 + once.duplicates);
  }
  {
    ClosureStats once;
    ASSERT_TRUE(PowerSum({TC()}, db, q, 6, &once).ok());
    ClosureStats preloaded = Preloaded();
    ASSERT_TRUE(PowerSum({TC()}, db, q, 6, &preloaded).ok());
    EXPECT_EQ(preloaded.duplicates, 7 + once.duplicates);
  }

  // Extend from a closed half: its duplicates are its own derivations
  // minus the rows it adds.
  Relation half(2);
  for (int i = 0; i < 10; ++i) half.Insert({i, i});
  Result<Relation> closed_half = SemiNaiveClosure({TC()}, db, half);
  ASSERT_TRUE(closed_half.ok());
  Relation extended = *closed_half;
  extended.UnionWith(q);
  const std::size_t seeded = extended.size();
  ClosureStats extend = Preloaded();
  ASSERT_TRUE(SemiNaiveExtend({TC()}, db, &extended,
                              static_cast<RowId>(closed_half->size()),
                              &extend)
                  .ok());
  EXPECT_EQ(extended, *closed);
  EXPECT_EQ(extend.duplicates,
            7 + (extend.derivations - 1000) - (closed->size() - seeded));
  EXPECT_GT(extend.duplicates, 7u);
}

TEST(SemiNaiveTest, MismatchedArityRejected) {
  auto lr = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  ASSERT_TRUE(lr.ok());
  Database db;
  Relation q(3);
  q.Insert({1, 2, 3});
  EXPECT_FALSE(SemiNaiveClosure({*lr}, db, q).ok());
}

TEST(SemiNaiveTest, MixedHeadPredicatesRejected) {
  auto r1 = ParseLinearRule("p(X) :- p(X), a(X).");
  auto r2 = ParseLinearRule("r(X) :- r(X), a(X).");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  Database db;
  Relation q(1);
  q.Insert({1});
  EXPECT_FALSE(SemiNaiveClosure({*r1, *r2}, db, q).ok());
}

TEST(PowerSumTest, CollectsBoundedPowers) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(10);
  Relation q(2);
  q.Insert({0, 0});
  // Σ_{m=0}^{3} A^m q = {(0,0),(0,1),(0,2),(0,3)}.
  Result<Relation> out = PowerSum({TC()}, db, q, 3);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 4u);
  EXPECT_TRUE(out->Contains({0, 3}));
  EXPECT_FALSE(out->Contains({0, 4}));
}

TEST(PowerSumTest, ZeroPowerIsIdentity) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(3);
  Relation q(2);
  q.Insert({0, 0});
  Result<Relation> out = PowerSum({TC()}, db, q, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, q);
}

TEST(PowerSumTest, StopsEarlyWhenPowersDie) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(3);  // 0->1->2
  Relation q(2);
  q.Insert({0, 0});
  Result<Relation> out = PowerSum({TC()}, db, q, 100);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
}

}  // namespace
}  // namespace linrec
