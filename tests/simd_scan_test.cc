// WhereEquals SIMD/scalar parity: the vectorized columnar scan must be an
// exact drop-in for the scalar reference kernel — same rows, same order,
// same counters — on every edge shape the block loop can hit (empty input,
// arity 1, tails shorter than a vector, all-match, no-match, row limits,
// relations grown row by row) and on random workloads. Also covers the
// blockwise Δ constant filter in the join kernel, which shares the same
// equality-mask primitive.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "common/simd.h"
#include "datalog/parser.h"
#include "eval/apply.h"
#include "eval/index_cache.h"
#include "eval/stats.h"
#include "storage/relation.h"
#include "workload/graphs.h"

namespace linrec {
namespace {

/// Asserts the two relations hold identical rows in identical order.
void ExpectIdentical(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.arity(), b.arity());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    const Value* ra = a.RowData(static_cast<RowId>(r));
    const Value* rb = b.RowData(static_cast<RowId>(r));
    for (std::size_t c = 0; c < a.arity(); ++c) {
      ASSERT_EQ(ra[c], rb[c]) << "row " << r << " col " << c;
    }
  }
}

/// Runs both kernels over `rel` and checks they agree with each other and
/// with the expected match count; returns the result for further checks.
Relation CheckParity(const Relation& rel, int column, Value v,
                     std::size_t expected_matches) {
  ScanCounters simd_c;
  ScanCounters scalar_c;
  Relation simd_out = rel.WhereEquals(column, v, &simd_c);
  Relation scalar_out = rel.WhereEqualsScalar(column, v, &scalar_c);
  ExpectIdentical(simd_out, scalar_out);
  EXPECT_EQ(simd_out.size(), expected_matches);

  // The counters are defined identically in SIMD and scalar builds: rows
  // scanned, ceil(rows / kLanes) blocks, one hit per matching row.
  EXPECT_EQ(simd_c.rows, rel.size());
  EXPECT_EQ(scalar_c.rows, rel.size());
  EXPECT_EQ(simd_c.blocks, (rel.size() + simd::kLanes - 1) / simd::kLanes);
  EXPECT_EQ(scalar_c.blocks, simd_c.blocks);
  EXPECT_EQ(simd_c.hits, expected_matches);
  EXPECT_EQ(scalar_c.hits, expected_matches);
  return simd_out;
}

/// Runs both kernels with `row_limit` over `rel` and checks they return
/// the first min(row_limit, matches) matching rows in row order, with
/// identical counters: the sweep stops after the block holding the
/// row_limit-th match (walking none for limit 0), and counts the rows it
/// returns as hits.
void CheckLimitParity(const Relation& rel, int column, Value v,
                      std::size_t row_limit) {
  std::vector<RowId> matches;
  for (std::size_t r = 0; r < rel.size(); ++r) {
    if (rel.RowData(static_cast<RowId>(r))[column] == v) {
      matches.push_back(static_cast<RowId>(r));
    }
  }
  const std::size_t kept = std::min(row_limit, matches.size());
  Relation expected(rel.arity());
  for (std::size_t i = 0; i < kept; ++i) expected.Insert(rel.Row(matches[i]));
  std::size_t walked = (rel.size() + simd::kLanes - 1) / simd::kLanes;
  if (row_limit <= matches.size()) {
    walked = row_limit == 0 ? 0 : matches[row_limit - 1] / simd::kLanes + 1;
  }

  ScanCounters simd_c;
  ScanCounters scalar_c;
  Relation simd_out = rel.WhereEquals(column, v, &simd_c, row_limit);
  Relation scalar_out = rel.WhereEqualsScalar(column, v, &scalar_c, row_limit);
  ExpectIdentical(simd_out, expected);
  ExpectIdentical(scalar_out, expected);
  EXPECT_EQ(simd_c.blocks, walked) << "limit " << row_limit;
  EXPECT_EQ(simd_c.rows, std::min(walked * simd::kLanes, rel.size()));
  EXPECT_EQ(simd_c.hits, kept);
  EXPECT_EQ(scalar_c.rows, simd_c.rows);
  EXPECT_EQ(scalar_c.blocks, simd_c.blocks);
  EXPECT_EQ(scalar_c.hits, simd_c.hits);
}

TEST(SimdScanTest, EmptyRelation) {
  Relation rel(2);
  CheckParity(rel, 0, 42, 0);
}

TEST(SimdScanTest, ArityOne) {
  // Arity 1: the column is the whole row, so dedup leaves at most one
  // match — the interesting part is the stride-1 block loop and its tail.
  Relation rel(1);
  for (int i = 0; i < 37; ++i) rel.Insert({i});
  CheckParity(rel, 0, 17, 1);
  CheckParity(rel, 0, 100, 0);
}

TEST(SimdScanTest, TailShorterThanVector) {
  for (int rows : {1, 2, 3, 7, 9, 13}) {
    Relation rel(2);
    for (int i = 0; i < rows; ++i) rel.Insert({i % 2, i});
    CheckParity(rel, 0, 0, static_cast<std::size_t>((rows + 1) / 2));
  }
}

TEST(SimdScanTest, AllMatch) {
  Relation rel(3);
  for (int i = 0; i < 53; ++i) rel.Insert({7, i, i * 2});
  Relation out = CheckParity(rel, 0, 7, 53);
  ExpectIdentical(out, rel);
}

TEST(SimdScanTest, NoMatch) {
  Relation rel(2);
  for (int i = 0; i < 64; ++i) rel.Insert({i, i});
  CheckParity(rel, 1, 1000, 0);
}

TEST(SimdScanTest, RandomWorkloadsAreByteIdentical) {
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

    std::size_t expected = 0;
    for (std::size_t r = 0; r < rel.size(); ++r) {
      expected += rel.RowData(static_cast<RowId>(r))[column] == needle;
    }
    CheckParity(rel, column, needle, expected);
  }
}

TEST(SimdScanTest, RowLimitsAgreeAcrossKernels) {
  std::mt19937 rng(20261017);
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t arity = 1 + rng() % 4;
    const std::size_t rows = rng() % 150;
    Relation rel(arity);
    std::vector<Value> row(arity);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < arity; ++c) {
        row[c] = static_cast<Value>(rng() % 6);
      }
      rel.InsertRow(row.data());
    }
    const int column = static_cast<int>(rng() % arity);
    const Value needle = static_cast<Value>(rng() % 6);
    std::size_t matches = 0;
    for (std::size_t r = 0; r < rel.size(); ++r) {
      matches += rel.RowData(static_cast<RowId>(r))[column] == needle;
    }
    for (std::size_t limit :
         {std::size_t{0}, std::size_t{1}, matches == 0 ? 0 : matches - 1,
          matches, matches + 1, std::size_t{SIZE_MAX}}) {
      CheckLimitParity(rel, column, needle, limit);
    }
  }
}

// Every append keeps the pool's pad block free. The scan loads the tail
// block in full (the stride-2 de-interleave reads one value past the last
// row's column), so a pool whose appends had filled the pad block would
// be read past its allocation — under ASan a heap-buffer-overflow. Growing
// row by row crosses every capacity boundary.
TEST(SimdScanTest, RowByRowGrowthKeepsScansInsideThePool) {
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
        std::size_t matches = 0;
        for (std::size_t r = 0; r < rel.size(); ++r) {
          matches += rel.RowData(static_cast<RowId>(r))[c] == needle;
        }
        CheckParity(rel, column, needle, matches);
        CheckLimitParity(rel, column, needle, (matches + 1) / 2);
      }
    }
  }
}

// The join kernel's partitioned first step checks constant key positions
// with the same per-block equality mask. A rule whose recursive atom pins
// a constant exercises it end to end: only Δ rows carrying the constant
// may produce derivations.
TEST(SimdScanTest, ConstantFilteredDeltaPartitionMatchesReference) {
  auto rule = ParseLinearRule("p(0,Y) :- p(0,Z), e(Z,Y).");
  ASSERT_TRUE(rule.ok());

  const int n = 200;
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(n);
  Relation delta(2);
  for (int i = 0; i < n; ++i) delta.Insert({i % 7, i});

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

  Relation expected(2);
  std::size_t filter_hits = 0;
  for (std::size_t r = 0; r < delta.size(); ++r) {
    const Value* row = delta.RowData(static_cast<RowId>(r));
    if (row[0] != 0) continue;
    ++filter_hits;
    if (row[1] + 1 < n) expected.Insert({0, row[1] + 1});
  }
  ExpectIdentical(out, expected);

  // The blockwise filter actually ran and its lane accounting is exact:
  // every Δ block was mask-checked once, and the lane hits are exactly the
  // rows that carry the constant.
  EXPECT_EQ(stats.simd_blocks,
            (delta.size() + simd::kLanes - 1) / simd::kLanes);
  EXPECT_EQ(stats.simd_lane_hits, filter_hits);
}

}  // namespace
}  // namespace linrec
