#include "eval/apply.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/strings.h"
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

/// The ids a span names, in order.
std::vector<RowId> Ids(RowSpan span) { return {span.begin(), span.end()}; }

TEST(IndexCacheTest, CatchesUpWithAppendsAndOneErase) {
  Relation r(2);
  r.Insert({1, 2});
  IndexCache cache;
  const HashIndex& i1 = cache.Get(r, {0});
  const HashIndex& i2 = cache.Get(r, {0});
  EXPECT_EQ(&i1, &i2);
  EXPECT_EQ(cache.rebuilds(), 1u);
  // Appends are caught up, not rebuilt.
  r.Insert({3, 4});
  r.Insert({1, 5});
  const Value one[] = {1};
  const Value three[] = {3};
  EXPECT_EQ(Ids(cache.Get(r, {0}).Lookup(three)), (std::vector<RowId>{1}));
  EXPECT_EQ(Ids(cache.Get(r, {0}).Lookup(one)), (std::vector<RowId>{0, 2}));
  EXPECT_EQ(cache.rebuilds(), 1u);
  // So is one EraseRows: the erased id leaves and the later ids renumber.
  Relation drop(2);
  drop.Insert({3, 4});
  EXPECT_EQ(r.EraseRows(drop), 1u);
  EXPECT_TRUE(cache.Get(r, {0}).Lookup(three).empty());
  EXPECT_EQ(Ids(cache.Get(r, {0}).Lookup(one)), (std::vector<RowId>{0, 1}));
  EXPECT_EQ(&cache.Get(r, {0}), &i1);
  EXPECT_EQ(cache.rebuilds(), 1u);

  // Every other change rebuilds: two erases between Gets, TruncateRows,
  // Clear, and a relation assigned or moved into the cached address.
  r.Insert({3, 4});
  drop.Clear();
  drop.Insert({1, 5});
  EXPECT_EQ(r.EraseRows(drop), 1u);
  drop.Clear();
  drop.Insert({1, 2});
  EXPECT_EQ(r.EraseRows(drop), 1u);
  EXPECT_EQ(Ids(cache.Get(r, {0}).Lookup(three)), (std::vector<RowId>{0}));
  EXPECT_EQ(cache.rebuilds(), 2u);
  r.Insert({1, 2});
  r.TruncateRows(1);
  EXPECT_TRUE(cache.Get(r, {0}).Lookup(one).empty());
  EXPECT_EQ(cache.rebuilds(), 3u);
  r.Clear();
  EXPECT_TRUE(cache.Get(r, {0}).Lookup(three).empty());
  EXPECT_EQ(cache.rebuilds(), 4u);
  Relation other(2);
  other.Insert({1, 9});
  r = other;
  EXPECT_EQ(Ids(cache.Get(r, {0}).Lookup(one)), (std::vector<RowId>{0}));
  EXPECT_EQ(cache.rebuilds(), 5u);
  other.Insert({3, 9});
  r = std::move(other);
  EXPECT_EQ(Ids(cache.Get(r, {0}).Lookup(three)), (std::vector<RowId>{1}));
  EXPECT_EQ(cache.rebuilds(), 6u);
}

/// One seeded random history over a relation at one address: appends
/// (InsertRow, UnionWith), EraseRows on both of its paths, TruncateRows,
/// Clear, copy and move assignment, and moving the relation out. After
/// every step the cached index of each key set must answer every key
/// exactly as a fresh build does — the same ids in the same ascending
/// order — and it must have been rebuilt exactly when the relation changed
/// in a way an index cannot follow: anything but appends and one inline
/// erase since the previous Get.
void CheckCatchUpHistory(std::size_t arity, std::uint32_t seed) {
  SCOPED_TRACE(StrCat("seed ", seed, ", arity ", arity));
  std::mt19937 rng(seed);
  const Value domain = arity == 1 ? 4000 : arity == 2 ? 64 : 16;
  std::vector<std::vector<int>> key_sets;
  if (arity == 1) key_sets = {{0}};
  if (arity == 2) key_sets = {{0}, {1}};
  if (arity == 3) key_sets = {{0}, {1, 2}, {2, 0}};
  std::vector<Value> row(arity);
  auto random_rows = [&](std::size_t n) {
    Relation out(arity);
    for (std::size_t i = 0; i < n; ++i) {
      for (Value& v : row) v = static_cast<Value>(rng() % domain);
      out.InsertRow(row.data());
    }
    return out;
  };
  // `want` of the relation's rows, drawn at random, plus absent ones.
  auto some_rows_of = [&](const Relation& rel, std::size_t want) {
    Relation out(arity);
    while (out.size() < std::min(want, rel.size())) {
      out.Insert(rel.Row(static_cast<RowId>(rng() % rel.size())));
    }
    out.UnionWith(random_rows(3));
    return out;
  };

  Relation rel(arity);
  IndexCache cache;
  bool must_rebuild = true;  // nothing is cached yet
  std::size_t erases = 0;    // inline erases since the last Get
  for (int step = 0; step < 150; ++step) {
    const std::uint32_t op = rng() % 16;
    std::string what;
    if (op < 6) {
      what = "InsertRow";
      Relation rows = random_rows(1 + rng() % 100);
      for (TupleView t : rows) rel.InsertRow(t.data());
    } else if (op < 8) {
      what = "UnionWith";
      rel.UnionWith(random_rows(rng() % 300));
    } else if (op < 11) {
      what = "EraseRows";
      const Relation drop = some_rows_of(rel, 1 + rng() % 40);
      if (rel.EraseRows(drop) > 0) ++erases;
    } else if (op == 11) {
      what = "EraseRows past the inline buffer";
      if (rel.size() <= 600) continue;
      const Relation drop = some_rows_of(rel, 513 + rng() % 80);
      EXPECT_GT(rel.EraseRows(drop), 512u);
      must_rebuild = true;
    } else if (op == 12) {
      what = "TruncateRows";
      const std::size_t rows = rel.size() == 0 ? 0 : rng() % rel.size();
      must_rebuild |= rows < rel.size();
      rel.TruncateRows(rows);
    } else if (op == 13) {
      what = "Clear";
      rel.Clear();
      must_rebuild = true;
    } else if (op == 14) {
      what = rng() % 2 == 0 ? "copy-assign" : "move-assign";
      Relation source = random_rows(rng() % 300);
      if (what == "copy-assign") {
        rel = source;
      } else {
        rel = std::move(source);
      }
      must_rebuild = true;
    } else {
      what = "move-from";
      Relation sink = std::move(rel);
      rel.UnionWith(some_rows_of(sink, rng() % 50));
      must_rebuild = true;
    }
    // Now and then two changes meet one Get.
    if (rng() % 6 == 0) continue;

    SCOPED_TRACE(StrCat("step ", step, " (", what, "), ", rel.size(),
                        " rows"));
    const std::size_t rebuilds = cache.rebuilds();
    for (const std::vector<int>& keys : key_sets) {
      const HashIndex& cached = cache.Get(rel, keys);
      const HashIndex fresh(rel, keys);
      ASSERT_EQ(cached.distinct_keys(), fresh.distinct_keys());
      std::vector<Value> key(keys.size());
      for (TupleView t : rel) {
        for (std::size_t k = 0; k < keys.size(); ++k) {
          key[k] = t[static_cast<std::size_t>(keys[k])];
        }
        ASSERT_EQ(Ids(cached.Lookup(key.data())),
                  Ids(fresh.Lookup(key.data())));
      }
      for (Value& v : key) v = domain;  // absent
      EXPECT_TRUE(cached.Lookup(key.data()).empty());
    }
    const bool rebuild = must_rebuild || erases > 1;
    EXPECT_EQ(cache.rebuilds() - rebuilds, rebuild ? key_sets.size() : 0u);
    must_rebuild = false;
    erases = 0;
  }
}

TEST(IndexCacheTest, CaughtUpIndexEqualsAFreshBuild) {
  for (std::size_t arity = 1; arity <= 3; ++arity) {
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
      CheckCatchUpHistory(arity, seed);
    }
  }
}

}  // namespace
}  // namespace linrec
