#include "eval/apply.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "eval/index_cache.h"
#include "eval/selection.h"
#include "workload/graphs.h"

namespace linrec {
namespace {

Database EdgeDb(std::initializer_list<std::pair<Value, Value>> edges) {
  Database db;
  Relation& e = db.GetOrCreate("e", 2);
  for (auto [u, v] : edges) e.Insert({u, v});
  return db;
}

TEST(ApplyRuleTest, SimpleJoin) {
  // p(X,Y) :- p(X,Z), e(Z,Y) applied to q = {(0,1)} over e = {(1,2),(2,3)}.
  auto lr = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  ASSERT_TRUE(lr.ok());
  Database db = EdgeDb({{1, 2}, {2, 3}});
  Relation input(2);
  input.Insert({0, 1});

  Result<Relation> out = ApplySum({*lr}, db, input);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->size(), 1u);
  EXPECT_TRUE(out->Contains({0, 2}));
}

TEST(ApplyRuleTest, CountsDerivationsIncludingDuplicates) {
  // Two e-paths deriving the same head tuple.
  auto lr = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,W), f(W,Y).");
  ASSERT_TRUE(lr.ok());
  Database db;
  Relation& e = db.GetOrCreate("e", 2);
  e.Insert({1, 10});
  e.Insert({1, 20});
  Relation& f = db.GetOrCreate("f", 2);
  f.Insert({10, 5});
  f.Insert({20, 5});
  Relation input(2);
  input.Insert({0, 1});

  ClosureStats stats;
  Result<Relation> out = ApplySum({*lr}, db, input, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);        // only (0,5)
  EXPECT_EQ(stats.derivations, 2u);  // derived twice
}

TEST(ApplyRuleTest, RepeatedVariableInAtom) {
  // Self-loop detection: p(X) :- p(X), e(Y,Y).
  auto lr = ParseLinearRule("p(X) :- p(X), e(Y,Y).");
  ASSERT_TRUE(lr.ok());
  Database db = EdgeDb({{1, 2}, {3, 3}});
  Relation input(1);
  input.Insert({9});
  Result<Relation> out = ApplySum({*lr}, db, input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);  // the (3,3) loop exists
}

TEST(ApplyRuleTest, RepeatedVariableNoMatch) {
  auto lr = ParseLinearRule("p(X) :- p(X), e(Y,Y).");
  ASSERT_TRUE(lr.ok());
  Database db = EdgeDb({{1, 2}, {2, 3}});
  Relation input(1);
  input.Insert({9});
  Result<Relation> out = ApplySum({*lr}, db, input);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(ApplyRuleTest, ConstantsInBody) {
  auto lr = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y), anchor(X, 7).");
  ASSERT_TRUE(lr.ok());
  Database db = EdgeDb({{1, 2}});
  Relation& anchor = db.GetOrCreate("anchor", 2);
  anchor.Insert({0, 7});
  anchor.Insert({5, 8});
  Relation input(2);
  input.Insert({0, 1});
  input.Insert({5, 1});
  Result<Relation> out = ApplySum({*lr}, db, input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);  // only X=0 passes anchor(X,7)
  EXPECT_TRUE(out->Contains({0, 2}));
}

// The partitioned first step range-scans its Δ slice instead of probing an
// index, so it checks its constant positions row by row: only Δ rows that
// carry the constant may produce derivations.
TEST(ApplyRuleTest, PartitionChecksDeltaConstantsRowByRow) {
  auto rule = ParseLinearRule("p(0,Y) :- p(0,Z), e(Z,Y).");
  ASSERT_TRUE(rule.ok());

  const int n = 200;
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(n);
  Relation delta(2);
  for (Value i = 0; i < n; ++i) delta.Insert({i % 7, i});

  ApplyOptions options;
  options.overrides[rule->recursive_atom_index()] = &delta;
  options.first_atom = rule->recursive_atom_index();
  Result<CompiledRule> compiled = CompileRule(rule->rule(), db, options);
  ASSERT_TRUE(compiled.ok());

  IndexCache cache;
  ClosureStats stats;
  Relation out(2);
  Status s =
      compiled->RunPartition(delta.View(0, delta.size()), &out, &stats, &cache);
  ASSERT_TRUE(s.ok()) << s;

  std::vector<Tuple> expected;
  for (TupleView row : delta) {
    if (row[0] == 0 && row[1] + 1 < n) {
      expected.push_back(Tuple({0, row[1] + 1}));
    }
  }
  std::vector<Tuple> got;
  for (TupleView row : out) got.push_back(row.ToTuple());
  EXPECT_EQ(got, expected);
  // Every Δ row is examined once; each that carries the constant probes e,
  // whose chain bucket holds its one successor.
  EXPECT_EQ(stats.rows_scanned, delta.size() + expected.size());
  EXPECT_EQ(stats.probes_issued, expected.size());
}

TEST(ApplyRuleTest, MissingPredicateMeansEmpty) {
  auto lr = ParseLinearRule("p(X,Y) :- p(X,Z), nothere(Z,Y).");
  ASSERT_TRUE(lr.ok());
  Database db;
  Relation input(2);
  input.Insert({0, 1});
  Result<Relation> out = ApplySum({*lr}, db, input);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(ApplyRuleTest, UnboundHeadVariableRejected) {
  auto rule = ParseRule("p(X,Y) :- q(X).");
  ASSERT_TRUE(rule.ok());
  Database db;
  db.GetOrCreate("q", 1).Insert({1});
  Relation out(2);
  Status st = ApplyRule(*rule, db, {}, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(ApplyRuleTest, ArityMismatchRejected) {
  auto lr = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  ASSERT_TRUE(lr.ok());
  Database db;
  db.GetOrCreate("e", 3).Insert({1, 2, 3});
  Relation input(2);
  input.Insert({0, 1});
  Result<Relation> out = ApplySum({*lr}, db, input);
  EXPECT_FALSE(out.ok());
}

TEST(ApplyRuleTest, CartesianProductWhenDisconnected) {
  auto lr = ParseLinearRule("p(X,Y) :- p(X,W), a(X), b(Y).");
  ASSERT_TRUE(lr.ok());
  Database db;
  db.GetOrCreate("a", 1).Insert({0});
  Relation& b = db.GetOrCreate("b", 1);
  b.Insert({1});
  b.Insert({2});
  Relation input(2);
  input.Insert({0, 9});
  Result<Relation> out = ApplySum({*lr}, db, input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
}

TEST(SelectionTest, FiltersByPosition) {
  Relation r(2);
  r.Insert({1, 2});
  r.Insert({1, 3});
  r.Insert({2, 3});
  Relation out = ApplySelection(r, Selection{0, 1});
  EXPECT_EQ(out.size(), 2u);
  out = ApplySelection(r, Selection{1, 3});
  EXPECT_EQ(out.size(), 2u);
  out = ApplySelection(r, Selection{0, 9});
  EXPECT_TRUE(out.empty());
}

TEST(IndexCacheTest, ReusesUntilVersionChanges) {
  Relation r(2);
  r.Insert({1, 2});
  IndexCache cache;
  const HashIndex& i1 = cache.Get(r, {0});
  const HashIndex& i2 = cache.Get(r, {0});
  EXPECT_EQ(&i1, &i2);
  EXPECT_EQ(cache.rebuilds(), 1u);
  r.Insert({3, 4});
  cache.Get(r, {0});
  EXPECT_EQ(cache.rebuilds(), 2u);
}

}  // namespace
}  // namespace linrec
