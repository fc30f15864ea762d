#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "common/fault.h"
#include "common/memory.h"
#include "storage/database.h"
#include "storage/relation.h"
#include "storage/tuple.h"

namespace linrec {
namespace {

/// Rows in insertion order (the byte-level observable of a relation).
std::vector<Tuple> RowsOf(const Relation& rel) {
  std::vector<Tuple> out;
  for (TupleView t : rel) out.push_back(t.ToTuple());
  return out;
}

/// WhereEquals against a loop over the rows: the first `row_limit` rows
/// whose `column` equals `v`, in row order, and rows_scanned counting the
/// rows examined up to the row_limit-th match (every row when fewer
/// match).
void CheckWhereEquals(const Relation& rel, int column, Value v,
                      std::size_t row_limit = SIZE_MAX) {
  std::vector<Tuple> expected;
  std::size_t examined = 0;
  for (TupleView t : rel) {
    if (expected.size() == row_limit) break;
    ++examined;
    if (t[static_cast<std::size_t>(column)] == v) {
      expected.push_back(t.ToTuple());
    }
  }
  std::size_t scanned = 0;
  Relation out = rel.WhereEquals(column, v, &scanned, row_limit);
  EXPECT_EQ(out.arity(), rel.arity());
  EXPECT_EQ(RowsOf(out), expected)
      << "column " << column << " value " << v << " limit " << row_limit;
  EXPECT_EQ(scanned, examined)
      << "column " << column << " value " << v << " limit " << row_limit;
}

/// Matches of `v` in `column` of `rel`.
std::size_t CountMatches(const Relation& rel, int column, Value v) {
  std::size_t matches = 0;
  for (TupleView t : rel) matches += t[static_cast<std::size_t>(column)] == v;
  return matches;
}

TEST(TupleTest, BasicAccess) {
  Tuple t{1, 2, 3};
  EXPECT_EQ(t.arity(), 3u);
  EXPECT_EQ(t[0], 1);
  EXPECT_EQ(t[2], 3);
}

TEST(TupleTest, EqualityAndHash) {
  Tuple a{1, 2};
  Tuple b{1, 2};
  Tuple c{2, 1};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(TupleTest, Ordering) {
  EXPECT_LT(Tuple({1, 2}), Tuple({1, 3}));
  EXPECT_LT(Tuple({1, 9}), Tuple({2, 0}));
}

TEST(TupleTest, Project) {
  Tuple t{10, 20, 30};
  EXPECT_EQ(t.Project({2, 0}), Tuple({30, 10}));
  EXPECT_EQ(t.Project({}), Tuple({}));
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r(2);
  EXPECT_TRUE(r.Insert({1, 2}));
  EXPECT_FALSE(r.Insert({1, 2}));
  EXPECT_TRUE(r.Insert({2, 1}));
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationTest, LineageSurvivesAppendsOnly) {
  Relation r(1);
  const std::uint64_t l0 = r.lineage();
  EXPECT_NE(l0, 0u);
  r.Insert({7});
  r.Insert({7});
  Relation more(1);
  more.Insert({8});
  r.UnionWith(more);
  EXPECT_EQ(r.lineage(), l0);
  r.TruncateRows(2);  // no rows leave: nothing changed
  EXPECT_EQ(r.lineage(), l0);
  r.TruncateRows(1);
  const std::uint64_t l1 = r.lineage();
  EXPECT_NE(l1, l0);
  r.Clear();
  EXPECT_NE(r.lineage(), l1);
  EXPECT_NE(r.lineage(), l0);
}

TEST(RelationTest, UnionWith) {
  Relation a(1), b(1);
  a.Insert({1});
  b.Insert({1});
  b.Insert({2});
  EXPECT_EQ(a.UnionWith(b), 1u);
  EXPECT_EQ(a.size(), 2u);
}

TEST(RelationTest, SortedIsDeterministic) {
  Relation r(2);
  r.Insert({3, 1});
  r.Insert({1, 2});
  r.Insert({1, 1});
  auto sorted = r.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0], Tuple({1, 1}));
  EXPECT_EQ(sorted[2], Tuple({3, 1}));
}

TEST(RelationTest, EqualityIsSetEquality) {
  Relation a(1), b(1);
  a.Insert({1});
  a.Insert({2});
  b.Insert({2});
  b.Insert({1});
  EXPECT_EQ(a, b);
  b.Insert({3});
  EXPECT_NE(a, b);
}

TEST(RelationTest, FlatLayoutRowAccess) {
  // Rows live contiguously in insertion order; Row/RowData expose them.
  Relation r(3);
  r.Insert({1, 2, 3});
  r.Insert({4, 5, 6});
  const Value first[] = {1, 2, 3};
  EXPECT_EQ(r.Row(0), TupleView(first, 3));
  EXPECT_EQ(r.Row(1)[2], 6);
  EXPECT_EQ(r.RowData(1)[0], 4);
  // Adjacent rows are arity-strided within one pool.
  EXPECT_EQ(r.RowData(0) + 3, r.RowData(1));
}

TEST(RelationTest, InsertRowIsDeduplicatingHotPath) {
  Relation r(2);
  const Value a[] = {7, 8};
  const Value b[] = {7, 9};
  EXPECT_TRUE(r.InsertRow(a));
  EXPECT_FALSE(r.InsertRow(a));
  EXPECT_TRUE(r.InsertRow(b));
  EXPECT_TRUE(r.ContainsRow(a));
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationTest, IterationYieldsViewsInInsertionOrder) {
  Relation r(1);
  for (Value v : {5, 3, 9, 3, 5, 1}) r.Insert({v});
  std::vector<Value> seen;
  for (TupleView t : r) seen.push_back(t[0]);
  EXPECT_EQ(seen, (std::vector<Value>{5, 3, 9, 1}));
}

TEST(RelationTest, DedupSurvivesTableGrowth) {
  // Push far past the initial table size so several rehashes happen, then
  // verify dedup and membership still hold for every row.
  Relation r(2);
  for (Value i = 0; i < 5000; ++i) r.Insert({i, i * 31});
  EXPECT_EQ(r.size(), 5000u);
  for (Value i = 0; i < 5000; ++i) {
    EXPECT_FALSE(r.Insert({i, i * 31}));
  }
  EXPECT_EQ(r.size(), 5000u);
  EXPECT_FALSE(r.Contains({1, 1}));
}

TEST(RelationTest, ReserveDoesNotChangeContents) {
  Relation r(2);
  r.Insert({1, 2});
  const std::uint64_t lineage = r.lineage();
  r.Reserve(1000);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.lineage(), lineage);
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_FALSE(r.Insert({1, 2}));
}

TEST(RelationTest, LineageIsNeverShared) {
  // Two relations never share a lineage, even with equal contents, and a
  // copy or a move starts new ones — on both sides of a move, so neither
  // object can be mistaken for the other's history.
  Relation a(1), b(1);
  a.Insert({1});
  b.Insert({1});
  EXPECT_NE(a.lineage(), b.lineage());
  std::vector<std::uint64_t> seen = {a.lineage(), b.lineage()};
  auto fresh = [&seen](std::uint64_t lineage) {
    for (std::uint64_t s : seen) {
      if (s == lineage) return false;
    }
    seen.push_back(lineage);
    return true;
  };
  Relation c = a;
  EXPECT_TRUE(fresh(c.lineage()));
  EXPECT_EQ(a.lineage(), seen[0]);  // a copy's source keeps its history
  Relation d = std::move(c);
  EXPECT_TRUE(fresh(d.lineage()));
  EXPECT_TRUE(fresh(c.lineage()));  // the moved-from side too
  EXPECT_TRUE(c.empty());
  b = a;
  EXPECT_TRUE(fresh(b.lineage()));
  b = std::move(d);
  EXPECT_TRUE(fresh(b.lineage()));
  EXPECT_TRUE(fresh(d.lineage()));
  EXPECT_EQ(b, a);
}

TEST(RelationTest, ZeroArityRelation) {
  Relation r(0);
  EXPECT_TRUE(r.Insert(Tuple{}));
  EXPECT_FALSE(r.Insert(Tuple{}));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(Tuple{}));
}

TEST(TupleViewTest, ComparesByContents) {
  const Value a[] = {1, 2};
  const Value b[] = {1, 2};
  const Value c[] = {1, 3};
  EXPECT_EQ(TupleView(a, 2), TupleView(b, 2));
  EXPECT_NE(TupleView(a, 2), TupleView(c, 2));
  EXPECT_LT(TupleView(a, 2), TupleView(c, 2));
  EXPECT_EQ(TupleView(a, 2).ToTuple(), Tuple({1, 2}));
}

TEST(HashIndexTest, LookupReturnsRowIds) {
  Relation r(2);
  r.Insert({1, 10});
  r.Insert({1, 20});
  r.Insert({2, 30});
  HashIndex index(r, {0});
  RowSpan bucket = index.Lookup(Tuple({1}));
  ASSERT_EQ(bucket.count, 2u);
  EXPECT_EQ(r.Row(bucket[0])[1], 10);
  EXPECT_EQ(r.Row(bucket[1])[1], 20);
  EXPECT_TRUE(index.Lookup(Tuple({9})).empty());
}

TEST(HashIndexTest, AllocationFreeSpanLookup) {
  Relation r(3);
  r.Insert({1, 2, 3});
  r.Insert({1, 2, 4});
  r.Insert({1, 3, 5});
  HashIndex index(r, {0, 1});
  const Value key[] = {1, 2};
  RowSpan bucket = index.Lookup(key);
  EXPECT_EQ(bucket.count, 2u);
  const Value missing[] = {1, 9};
  EXPECT_TRUE(index.Lookup(missing).empty());
}

TEST(HashIndexTest, CorrectUnderRelationGrowth) {
  // Build an index over a large relation (many internal rehashes during
  // the fill) and verify every key's bucket is exact.
  Relation r(2);
  for (Value i = 0; i < 2000; ++i) r.Insert({i % 50, i});
  HashIndex index(r, {0});
  for (Value k = 0; k < 50; ++k) {
    const Value key[] = {k};
    RowSpan bucket = index.Lookup(key);
    EXPECT_EQ(bucket.count, 40u);
    for (RowId row : bucket) EXPECT_EQ(r.Row(row)[0], k);
  }
  EXPECT_EQ(index.distinct_keys(), 50u);
}

TEST(RelationTest, ClearKeepsCapacityAndResetsContents) {
  Relation r(2);
  for (Value i = 0; i < 100; ++i) r.Insert({i, i + 1});
  EXPECT_EQ(r.size(), 100u);
  const std::uint64_t lineage = r.lineage();
  r.Clear();
  EXPECT_TRUE(r.empty());
  EXPECT_NE(r.lineage(), lineage);
  EXPECT_FALSE(r.Contains({1, 2}));
  // Reusable after clearing: fresh contents on the new lineage.
  const std::uint64_t cleared = r.lineage();
  r.Insert({7, 8});
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains({7, 8}));
  EXPECT_EQ(r.lineage(), cleared);
}

TEST(RelationTest, WhereEqualsFiltersOneColumn) {
  Relation r(3);
  for (Value i = 0; i < 200; ++i) r.Insert({i % 5, i, i * 2});
  Relation filtered = r.WhereEquals(0, 3);
  EXPECT_EQ(filtered.size(), 40u);
  for (TupleView t : filtered) EXPECT_EQ(t[0], 3);
  // Every matching row made it (spot check).
  EXPECT_TRUE(filtered.Contains({3, 3, 6}));
  EXPECT_TRUE(filtered.Contains({3, 198, 396}));
  // No matches and empty input both yield empty relations of the arity.
  EXPECT_TRUE(r.WhereEquals(1, -1).empty());
  Relation empty(3);
  EXPECT_TRUE(empty.WhereEquals(2, 0).empty());
  EXPECT_EQ(empty.WhereEquals(2, 0).arity(), 3u);
  CheckWhereEquals(r, 0, 3);
  CheckWhereEquals(r, 1, -1);
  CheckWhereEquals(empty, 2, 0);
  // Arity 1: the column is the whole row, so at most one row matches.
  Relation unary(1);
  for (Value i = 0; i < 37; ++i) unary.Insert({i});
  CheckWhereEquals(unary, 0, 17);
  CheckWhereEquals(unary, 0, 100);
  // Short relations, 1 to 13 rows.
  for (Value rows : {1, 2, 3, 7, 9, 13}) {
    Relation rel(2);
    for (Value i = 0; i < rows; ++i) rel.Insert({i % 2, i});
    CheckWhereEquals(rel, 0, 0);
  }
  // Every row matches.
  Relation all(3);
  for (Value i = 0; i < 53; ++i) all.Insert({7, i, i * 2});
  CheckWhereEquals(all, 0, 7);
}

TEST(RelationTest, WhereEqualsOnRandomRelationsAndRowLimits) {
  std::mt19937 rng(20260808);
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t arity = 1 + rng() % 5;
    const std::size_t rows = rng() % 201;
    Relation rel(arity);
    std::vector<Value> row(arity);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < arity; ++c) {
        row[c] = static_cast<Value>(rng() % 8);  // small domain: duplicates
      }
      rel.InsertRow(row.data());
    }
    const int column = static_cast<int>(rng() % arity);
    const Value needle = static_cast<Value>(rng() % 8);
    const std::size_t m = CountMatches(rel, column, needle);
    for (std::size_t limit : {std::size_t{0}, std::size_t{1},
                              m == 0 ? 0 : m - 1, m, m + 1,
                              std::size_t{SIZE_MAX}}) {
      CheckWhereEquals(rel, column, needle, limit);
    }
  }
}

// Growing row by row crosses every pool capacity boundary; a scan after
// each append must read exactly the rows present (under ASan, nothing
// past the allocation).
TEST(RelationTest, WhereEqualsAfterRowByRowGrowth) {
  for (std::size_t arity = 1; arity <= 4; ++arity) {
    Relation rel(arity);
    std::vector<Value> row(arity);
    for (std::size_t n = 0; n < 200; ++n) {
      row[0] = static_cast<Value>(n);  // distinct rows
      for (std::size_t c = 1; c < arity; ++c) {
        row[c] = static_cast<Value>(n % (c + 2));
      }
      ASSERT_TRUE(rel.InsertRow(row.data()));
      for (std::size_t c = 0; c < arity; ++c) {
        const int column = static_cast<int>(c);
        const Value needle = rel.RowData(0)[c];
        CheckWhereEquals(rel, column, needle);
        CheckWhereEquals(rel, column, needle,
                         (CountMatches(rel, column, needle) + 1) / 2);
      }
    }
  }
}

TEST(RelationTest, PartitionViewCoversRowRanges) {
  Relation r(2);
  for (Value i = 0; i < 10; ++i) r.Insert({i, i});
  PartitionView all = r.View(0, 10);
  EXPECT_EQ(all.size(), 10u);
  PartitionView tail = r.View(7, 10);
  EXPECT_EQ(tail.size(), 3u);
  EXPECT_FALSE(tail.empty());
  EXPECT_TRUE(r.View(4, 4).empty());
  EXPECT_EQ(tail.relation, &r);
}

TEST(DatabaseTest, GetOrCreateAndFind) {
  Database db;
  Relation& e = db.GetOrCreate("edge", 2);
  e.Insert({1, 2});
  ASSERT_NE(db.Find("edge"), nullptr);
  EXPECT_EQ(db.Find("edge")->size(), 1u);
  EXPECT_EQ(db.Find("missing"), nullptr);
}

TEST(DatabaseTest, GetCheckedArityMismatch) {
  Database db;
  db.GetOrCreate("e", 2);
  auto ok = db.GetChecked("e", 2);
  EXPECT_TRUE(ok.ok());
  auto bad = db.GetChecked("e", 3);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  auto missing = db.GetChecked("x", 1);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, NamesSorted) {
  Database db;
  db.GetOrCreate("zeta", 1);
  db.GetOrCreate("alpha", 1);
  auto names = db.Names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
}

/// EraseRows against a reference: the survivors in order, every survivor
/// still found by the repaired dedup table, no erased row found, and the
/// table still deduplicating and accepting inserts afterwards.
void CheckErase(std::size_t rows, std::size_t erase, std::uint32_t seed) {
  std::mt19937 rng(seed);
  Relation rel(2);
  for (std::size_t i = 0; i < rows; ++i) {
    rel.Insert({static_cast<Value>(rng() % 100000),
                static_cast<Value>(rng() % 7)});
  }
  const std::vector<Tuple> before = RowsOf(rel);
  Relation drop(2);
  while (drop.size() < erase && drop.size() < before.size()) {
    drop.Insert(before[rng() % before.size()]);
  }
  drop.Insert({-1, -1});  // absent rows are ignored

  std::vector<Tuple> expected;
  std::vector<RowId> erased_ids;
  for (RowId id = 0; id < before.size(); ++id) {
    if (drop.Contains(before[id])) {
      erased_ids.push_back(id);
    } else {
      expected.push_back(before[id]);
    }
  }
  const std::uint64_t lineage = rel.lineage();
  EXPECT_EQ(rel.EraseRows(drop), before.size() - expected.size());
  ASSERT_EQ(RowsOf(rel), expected) << "rows=" << rows << " erase=" << erase;
  // The inline path records what it erased; the compacting fallback
  // (more than 512 rows) leaves no record for the new lineage.
  EXPECT_NE(rel.lineage(), lineage);
  const Relation::EraseRecord& record = rel.last_erase();
  if (erased_ids.size() <= 512) {
    EXPECT_EQ(record.before, lineage);
    EXPECT_EQ(record.after, rel.lineage());
    EXPECT_EQ(record.ids, erased_ids) << "rows=" << rows;
  } else {
    EXPECT_NE(record.after, rel.lineage());
  }
  for (const Tuple& t : expected) {
    EXPECT_TRUE(rel.Contains(t));
    EXPECT_FALSE(rel.Insert(t));  // still deduplicated
  }
  for (const Tuple& t : before) {
    if (drop.Contains(t)) {
      EXPECT_FALSE(rel.Contains(t));
    }
  }
  // Erased rows insert again, at the end.
  for (TupleView t : drop) {
    if (t[0] >= 0) {
      EXPECT_TRUE(rel.Insert(t));
    }
  }
  EXPECT_EQ(rel.size(), before.size());
}

TEST(RelationEraseTest, KeepsSurvivorOrderAndRepairsTheTable) {
  CheckErase(1, 1, 1);
  CheckErase(40, 3, 2);
  CheckErase(3000, 61, 3);
  CheckErase(3000, 512, 4);   // the inline id buffer, exactly full
  CheckErase(3000, 1500, 5);  // past it: the compacting fallback
  CheckErase(3000, 3000, 6);  // everything
}

TEST(RelationEraseTest, EmptyingDrawsANewLineage) {
  Relation rel(2);
  rel.Insert({1, 2});
  rel.Insert({3, 4});
  Relation drop = rel;
  const std::uint64_t lineage = rel.lineage();
  EXPECT_EQ(rel.EraseRows(drop), 2u);
  EXPECT_TRUE(rel.empty());
  EXPECT_NE(rel.lineage(), lineage);
  EXPECT_EQ(rel.last_erase().ids, (std::vector<RowId>{0, 1}));
  EXPECT_TRUE(rel.Insert({3, 4}));
}

TEST(RelationEraseTest, ChangesTheLineageOnlyWhenRowsLeave) {
  Relation rel(2);
  for (int i = 0; i < 10; ++i) rel.Insert({i, i});
  const std::uint64_t l0 = rel.lineage();
  Relation absent(2);
  absent.Insert({5, 6});
  EXPECT_EQ(rel.EraseRows(absent), 0u);
  EXPECT_EQ(rel.lineage(), l0);
  Relation present(2);
  present.Insert({5, 5});
  present.Insert({2, 2});
  EXPECT_EQ(rel.EraseRows(present), 2u);
  EXPECT_NE(rel.lineage(), l0);
  EXPECT_EQ(rel.last_erase().before, l0);
  EXPECT_EQ(rel.last_erase().after, rel.lineage());
  EXPECT_EQ(rel.last_erase().ids, (std::vector<RowId>{2, 5}));
}

TEST(RelationEraseTest, NeverChargesOrHitsAFaultSite) {
  Relation rel(2);
  for (int i = 0; i < 2000; ++i) rel.Insert({i, i % 13});
  Relation small(2), large(2);
  for (int i = 0; i < 2000; i += 50) small.Insert({i, i % 13});
  for (int i = 1; i < 2000; i += 2) large.Insert({i, i % 13});
  // A one-byte budget and armed growth faults: any charge or growth in
  // the erase would throw.
  QueryBudget budget(1);
  ScopedQueryBudget scope(&budget);
  ScopedFault fault(FaultSite::kPoolGrowth, 1);
  EXPECT_EQ(rel.EraseRows(small), 40u);
  EXPECT_EQ(rel.EraseRows(large), 1000u);
  EXPECT_EQ(budget.charged(), 0u);
  EXPECT_EQ(FaultInjector::Instance().hits(FaultSite::kPoolGrowth), 0u);
  EXPECT_EQ(FaultInjector::Instance().hits(FaultSite::kRehash), 0u);
  EXPECT_EQ(rel.size(), 960u);
}

TEST(RelationEraseTest, FindRowIdProbesTheDedupTable) {
  Relation rel(2);
  rel.Insert({7, 8});
  rel.Insert({9, 10});
  const Value present[] = {9, 10};
  const Value absent[] = {10, 9};
  EXPECT_EQ(rel.FindRowId(present), 1u);
  EXPECT_EQ(rel.FindRowId(absent), Relation::kNoRow);
}

}  // namespace
}  // namespace linrec
