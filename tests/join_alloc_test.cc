// Verifies the acceptance contract of the flat join kernel: ApplyRule's
// inner probe loop performs ZERO heap allocations per candidate tuple —
// and, strategy by strategy, that the steady-state rounds of every
// closure allocate nothing beyond amortized capacity growth.
//
// Strategy: this binary replaces global operator new (the plain AND the
// aligned overloads — an over-aligned type allocates through
// std::align_val_t) with a counting wrapper, then measures the allocation
// count of one warm ApplyRule call (indexes cached, output pre-reserved)
// at two very different input sizes. The per-call compile phase allocates
// a small constant number of vectors; if the per-candidate path allocated
// anything, the larger input would allocate strictly more. The closure
// tests apply the same doubling argument per round: a strategy whose
// steady-state round allocated even once would grow its count by the
// extra rounds, so the size-doubled delta is pinned far below that. The
// hook also totals the bytes it hands out, and the LOAD test applies the
// doubling argument to them: a LOAD of twice the facts, or twice the FACT
// lines, allocates about twice the bytes, not four times.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "algebra/closure.h"
#include "common/strings.h"
#include "datalog/parser.h"
#include "eval/apply.h"
#include "eval/fixpoint.h"
#include "eval/index_cache.h"
#include "eval/joint.h"
#include "eval/selection.h"
#include "separability/algorithm.h"
#include "server/server.h"
#include "workload/databases.h"
#include "workload/graphs.h"
#include "workload/rulegen.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_allocated_bytes{0};

void* CountedMalloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);
}

void* CountedAlloc(std::size_t size) {
  void* p = CountedMalloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
// std::stable_sort's temporary buffer comes from the nothrow form. It is
// replaced too, so that a sanitizer's own nothrow operator new never hands
// out memory that the replaced operator delete frees.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace linrec {
namespace {

/// Allocations of one warm ApplyRule pass: Δ = n self-loops joined against
/// a chain of n edges, with the edge index already cached and the output
/// relation pre-sized.
std::size_t WarmApplyAllocations(int n) {
  auto rule = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  EXPECT_TRUE(rule.ok());

  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(n);
  Relation delta(2);
  for (int i = 0; i < n; ++i) delta.Insert({i, i});

  ApplyOptions options;
  options.overrides[rule->recursive_atom_index()] = &delta;
  options.first_atom = rule->recursive_atom_index();

  IndexCache cache;
  Relation warm(2);
  Status s = ApplyRule(rule->rule(), db, options, &warm, nullptr, &cache);
  EXPECT_TRUE(s.ok()) << s;
  EXPECT_EQ(warm.size(), static_cast<std::size_t>(n - 1));

  Relation out(2);
  out.Reserve(static_cast<std::size_t>(2 * n));
  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  s = ApplyRule(rule->rule(), db, options, &out, nullptr, &cache);
  std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(s.ok()) << s;
  EXPECT_EQ(out.size(), static_cast<std::size_t>(n - 1));
  return after - before;
}

TEST(JoinAllocTest, ProbeLoopAllocatesNothingPerCandidate) {
  std::size_t small = WarmApplyAllocations(32);
  std::size_t large = WarmApplyAllocations(512);
  // 16x the candidates, identical allocation count: everything the kernel
  // heap-allocates belongs to the per-call compile phase.
  EXPECT_EQ(small, large) << "per-candidate path allocates";
  // And the compile phase itself stays a small constant.
  EXPECT_LE(small, 64u);
}

/// One warm Run of the head-pinned IVM check shape: candidates `d` drive
/// a join whose second atom `v` is fully bound. Returns the allocations of
/// the Run; `entries` receives the IndexCache size after it.
std::size_t FullyBoundProbeAllocations(int n, std::size_t* entries) {
  auto rule = ParseProgram("h(X,Y) :- d(X,Y), v(X,Y).");
  EXPECT_TRUE(rule.ok());
  Relation d(2);
  Relation v(2);
  for (int i = 0; i < n; ++i) {
    d.Insert({i, i + 1});
    v.Insert({i, i % 2 == 0 ? i + 1 : i});  // every other candidate hits
  }
  Database db;
  ApplyOptions options;
  options.overrides[0] = &d;
  options.overrides[1] = &v;
  options.first_atom = 0;
  Result<CompiledRule> compiled =
      CompileRule(rule->rules.front(), db, options);
  EXPECT_TRUE(compiled.ok()) << compiled.status();

  IndexCache cache;
  Relation out(2);
  out.Reserve(static_cast<std::size_t>(n));
  ClosureStats stats;
  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  Status s = compiled->Run(&out, &stats, &cache);
  std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(s.ok()) << s;
  EXPECT_EQ(out.size(), static_cast<std::size_t>((n + 1) / 2));
  EXPECT_EQ(stats.probes_issued, static_cast<std::size_t>(n));
  *entries = cache.entry_count();
  return after - before;
}

TEST(JoinAllocTest, FullyBoundAtomProbesTheDedupTable) {
  // An atom whose every position is bound is answered by the relation's
  // own dedup table: no HashIndex is built over it (the IVM re-derive
  // pass would otherwise index the whole view on every delete), and the
  // probe allocates nothing.
  std::size_t entries = 1;
  EXPECT_EQ(FullyBoundProbeAllocations(64, &entries), 0u);
  EXPECT_EQ(entries, 0u);
  EXPECT_EQ(FullyBoundProbeAllocations(4096, &entries), 0u);
  EXPECT_EQ(entries, 0u);
}

/// Allocations of one ApplySelection over a relation of `rows` rows in
/// which exactly `matches` rows carry the selected value.
std::size_t SelectionAllocations(int rows, int matches) {
  Relation input(2);
  for (int i = 0; i < rows; ++i) {
    input.Insert({i < matches ? 42 : i + 100, i});
  }
  Selection sigma{0, 42};
  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  Relation out = ApplySelection(input, sigma);
  std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(out.size(), static_cast<std::size_t>(matches));
  return after - before;
}

TEST(JoinAllocTest, SelectiveScanAllocatesPerMatchNotPerInputRow) {
  // The columnar ApplySelection sweeps the column once, collecting the
  // matching row ids into a buffer that grows with the matches, then
  // reserves the output exactly, so a 16x larger input with the same match
  // count allocates identically: O(matches), not O(input).
  std::size_t small = SelectionAllocations(512, 16);
  std::size_t large = SelectionAllocations(8192, 16);
  EXPECT_EQ(small, large) << "selection allocates per input row";
  // And the absolute count is the id buffer's growth plus the output
  // relation's few buffers.
  EXPECT_LE(small, 8u);
}

// ---------------------------------------------------------------------------
// Steady-state closure rounds, strategy by strategy.
//
// Each test runs one full closure at two input sizes whose round counts
// differ by dozens to hundreds, and pins the allocation-count delta to a
// small constant. Geometric pool growth costs O(log n) reallocations per
// container, so the doubled input may legitimately allocate a few more
// times — but one allocation per steady-state round would blow the bound
// by the number of added rounds.

constexpr std::ptrdiff_t kGrowthSlack = 32;

/// Allocations of one full `closure(rules, db, q)` call: chain of n nodes,
/// q seeded with n self-loops — the closure is the full upper-triangle
/// reachability, reached after ~n rounds.
template <typename Closure>
std::size_t ChainClosureAllocations(int n, const Closure& closure) {
  auto rule = ParseLinearRule("p(X,Y) :- p(X,Z), e(Z,Y).");
  EXPECT_TRUE(rule.ok());
  std::vector<LinearRule> rules{*rule};
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(n);
  Relation q(2);
  for (int i = 0; i < n; ++i) q.Insert({i, i});

  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  Result<Relation> out = closure(rules, db, q);
  std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out->size(),
            static_cast<std::size_t>(n) * (n + 1) / 2);
  return after - before;
}

TEST(ClosureAllocTest, SemiNaiveSteadyStateRoundsAllocateNothing) {
  auto run = [](const std::vector<LinearRule>& rules, const Database& db,
                const Relation& q) { return SemiNaiveClosure(rules, db, q); };
  std::size_t small = ChainClosureAllocations(128, run);
  std::size_t large = ChainClosureAllocations(256, run);
  EXPECT_LE(static_cast<std::ptrdiff_t>(large - small), kGrowthSlack)
      << "semi-naive rounds allocate: " << small << " -> " << large;
}

TEST(ClosureAllocTest, NaiveSteadyStateRoundsAllocateNothing) {
  auto run = [](const std::vector<LinearRule>& rules, const Database& db,
                const Relation& q) { return NaiveClosure(rules, db, q); };
  std::size_t small = ChainClosureAllocations(48, run);
  std::size_t large = ChainClosureAllocations(96, run);
  EXPECT_LE(static_cast<std::ptrdiff_t>(large - small), kGrowthSlack)
      << "naive rounds allocate: " << small << " -> " << large;
}

TEST(ClosureAllocTest, PowerSumSteadyStateRoundsAllocateNothing) {
  auto run = [](const std::vector<LinearRule>& rules, const Database& db,
                const Relation& q) {
    // q holds one self-loop per chain node, so q.size() powers suffice.
    return PowerSum(rules, db, q, static_cast<int>(q.size()) + 1);
  };
  std::size_t small = ChainClosureAllocations(64, run);
  std::size_t large = ChainClosureAllocations(128, run);
  EXPECT_LE(static_cast<std::ptrdiff_t>(large - small), kGrowthSlack)
      << "power-sum rounds allocate: " << small << " -> " << large;
}

/// Allocations of one DecomposedClosure over same-generation with each rule
/// in its own group (the commuting pair of Example 5.2).
std::size_t DecomposedAllocations(int width) {
  SameGenerationWorkload w = MakeSameGeneration(5, width, 2, 7);
  std::vector<LinearRule> rules = SameGenerationRules();
  std::vector<std::vector<LinearRule>> groups = {{rules[0]}, {rules[1]}};

  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  Result<Relation> out = DecomposedClosure(groups, w.db, w.q);
  std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(out.ok());
  EXPECT_GT(out->size(), 0u);
  return after - before;
}

TEST(ClosureAllocTest, DecomposedSteadyStateRoundsAllocateNothing) {
  std::size_t small = DecomposedAllocations(8);
  std::size_t large = DecomposedAllocations(16);
  EXPECT_LE(static_cast<std::ptrdiff_t>(large - small), kGrowthSlack)
      << "decomposed rounds allocate: " << small << " -> " << large;
}

/// Allocations of one SeparableClosure A*(σ(B* q)) over same-generation.
/// The up-front commutativity oracle allocates, but a per-call constant
/// amount — the doubling argument still pins the round path.
std::size_t SeparableAllocations(int width) {
  auto r1 = ParseLinearRule("p(X,Y) :- p(X,V), down(V,Y).");
  auto r2 = ParseLinearRule("p(X,Y) :- p(U,Y), up(X,U).");
  EXPECT_TRUE(r1.ok() && r2.ok());
  std::vector<LinearRule> a_rules{*r1};
  std::vector<LinearRule> b_rules{*r2};
  SameGenerationWorkload w = MakeSameGeneration(5, width, 2, 11);
  Selection sigma{0, w.q.Sorted().front()[0]};

  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  Result<Relation> out =
      SeparableClosure(a_rules, b_rules, sigma, w.db, w.q);
  std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(out.ok());
  EXPECT_GT(out->size(), 0u);
  return after - before;
}

TEST(ClosureAllocTest, SeparableSteadyStateRoundsAllocateNothing) {
  std::size_t small = SeparableAllocations(8);
  std::size_t large = SeparableAllocations(16);
  EXPECT_LE(static_cast<std::ptrdiff_t>(large - small), kGrowthSlack)
      << "separable rounds allocate: " << small << " -> " << large;
}

/// Allocations of one JointSemiNaiveClosure over the even/odd parity chain:
/// n rounds whose Δs alternate between the two members.
std::size_t JointAllocations(int n) {
  Result<JointWorkload> w = MakeEvenOddChain(n);
  EXPECT_TRUE(w.ok());

  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  Result<std::vector<Relation>> out =
      JointSemiNaiveClosure(w->members, w->rules, w->db, w->seeds);
  std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].size() + (*out)[1].size(), static_cast<std::size_t>(n));
  return after - before;
}

TEST(ClosureAllocTest, JointSteadyStateRoundsAllocateNothing) {
  std::size_t small = JointAllocations(128);
  std::size_t large = JointAllocations(256);
  EXPECT_LE(static_cast<std::ptrdiff_t>(large - small), kGrowthSlack)
      << "joint rounds allocate: " << small << " -> " << large;
}

/// Bytes allocated by the tc rules and an n-edge chain, sent line by line
/// through Server::HandleLine into a fresh session of `server`: the edges
/// inside the LOAD block, or (`fact_lines`) as FACT lines after a
/// rules-only LOAD.
std::size_t LoadBytes(Server& server, int n, bool fact_lines) {
  std::vector<std::string> lines = {"LOAD", "tc(X, Y) :- e(X, Y).",
                                    "tc(X, Y) :- tc(X, Z), e(Z, Y)."};
  if (fact_lines) lines.push_back("END");
  for (int i = 0; i < n; ++i) {
    lines.push_back(StrCat(fact_lines ? "FACT " : "", "e(", i, ", ", i + 1,
                           ")."));
  }
  if (!fact_lines) lines.push_back("END");
  std::vector<std::string> expected = {
      StrCat("OK loaded rules=2 facts=", fact_lines ? 0 : n, " queries=0")};
  if (fact_lines) expected.resize(1 + n, "OK fact");
  std::unique_ptr<Session> session = server.NewSession();
  std::vector<std::string> out;
  out.reserve(expected.size());
  std::size_t before = g_allocated_bytes.load(std::memory_order_relaxed);
  for (const std::string& line : lines) {
    server.HandleLine(*session, line, &out);
  }
  std::size_t after = g_allocated_bytes.load(std::memory_order_relaxed);
  EXPECT_EQ(out, expected);
  return after - before;
}

TEST(LoadAllocTest, LoadBytesGrowLinearlyInItsFacts) {
  for (bool fact_lines : {false, true}) {
    const char* input = fact_lines ? "FACT lines" : "facts in one LOAD";
    Server server;
    // The first LOAD compiles the rules; the measured two hit the registry.
    LoadBytes(server, 1, fact_lines);
    std::size_t half = LoadBytes(server, 600, fact_lines);
    std::size_t full = LoadBytes(server, 1200, fact_lines);
    // Linear is 2x; rebuilding the engine per fact copies O(n^2) rows.
    EXPECT_LE(2 * full, 5 * half)
        << "1200 " << input << " allocated " << full << " bytes, 600 "
        << half << " bytes";
  }
}

TEST(JoinAllocTest, CountingHookIsLive) {
  // Guard against the override silently not linking: an explicit heap
  // allocation must be observed.
  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  auto* p = new std::vector<int>(10);
  std::size_t after = g_allocations.load(std::memory_order_relaxed);
  delete p;
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace linrec
