// Golden tests for Engine plan selection and plan/reference execution
// equivalence: the planner must pick each of the paper's strategies
// exactly when its theorem licenses it.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <optional>

#include "algebra/closure.h"
#include "common/parallel.h"
#include "datalog/parser.h"
#include "eval/fixpoint.h"
#include "separability/algorithm.h"
#include "workload/databases.h"
#include "workload/graphs.h"
#include "workload/rulegen.h"

namespace linrec {
namespace {

LinearRule LR(const std::string& text) {
  auto lr = ParseLinearRule(text);
  EXPECT_TRUE(lr.ok()) << lr.status();
  return *lr;
}

/// Prepares `query`, binds `seed` and — when the query declares a σ
/// position — the σ value `sigma`, and runs it.
Result<QueryResult> RunQuery(Engine& engine, const Query& query,
                             const Relation& seed,
                             std::optional<Value> sigma = std::nullopt) {
  Result<PreparedQuery> prepared = engine.Prepare(query);
  if (!prepared.ok()) return prepared.status();
  BoundQuery bound =
      sigma.has_value() ? prepared->Bind(*sigma) : prepared->Bind();
  return engine.Execute(bound.BindSeed(seed));
}

/// Same-generation pair (Example 5.2): the two operators commute.
LinearRule Down() { return LR("p(X,Y) :- p(X,V), down(V,Y)."); }
LinearRule Up() { return LR("p(X,Y) :- p(U,Y), up(X,U)."); }

Database SameGenDb() {
  Database db;
  Relation down = TreeGraph(/*branching=*/2, /*depth=*/5);
  Relation up(2);
  for (TupleView t : down) up.Insert({t[1], t[0]});
  db.GetOrCreate("down", 2) = std::move(down);
  db.GetOrCreate("up", 2) = std::move(up);
  return db;
}

Relation IdentitySeed(const Database& db) {
  Relation q(2);
  for (TupleView t : *db.Find("down")) {
    q.Insert({t[0], t[0]});
    q.Insert({t[1], t[1]});
  }
  return q;
}

TEST(EnginePlanTest, CommutingPairYieldsDecomposed) {
  Engine engine(SameGenDb());
  Relation q = IdentitySeed(engine.db());
  Query query = Query::Closure({Down(), Up()});
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(prepared->plan().strategy, Strategy::kDecomposed);
  EXPECT_EQ(prepared->plan().groups.size(), 2u);

  // Engine result equals the direct semi-naive closure of the sum.
  auto via_engine = RunQuery(engine, query, q);
  ASSERT_TRUE(via_engine.ok()) << via_engine.status();
  auto direct = SemiNaiveClosure({Down(), Up()}, engine.db(), q);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_engine->relation(), *direct);
}

TEST(EnginePlanTest, NonCommutingPairFallsBackToSemiNaive) {
  // Inequivalent q-/rr-bridges: the pair does not commute
  // (tests/commutativity_test.cc, ClauseDInequivalentBridgesFail).
  LinearRule r1 = LR("p(X,Y) :- p(X,Z), q(Z,Y).");
  LinearRule r2 = LR("p(X,Y) :- p(X,Z), rr(Z,Y).");
  Engine engine;
  engine.db().GetOrCreate("q", 2) = ChainGraph(6);
  engine.db().GetOrCreate("rr", 2).Insert({2, 0});
  Relation seed(2);
  seed.Insert({0, 0});

  Query query = Query::Closure({r1, r2});
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(prepared->plan().strategy, Strategy::kSemiNaive);
  EXPECT_TRUE(prepared->plan().groups.empty());

  auto via_engine = RunQuery(engine, query, seed);
  ASSERT_TRUE(via_engine.ok());
  auto direct = SemiNaiveClosure({r1, r2}, engine.db(), seed);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_engine->relation(), *direct);
}

TEST(EnginePlanTest, MixedTripleGroupsNonCommutingPairAndMatchesDirect) {
  // r1 commutes with r2 and r3 (free-1p split); r2 and r3 do not commute
  // with each other (same general position, different predicates), so the
  // groups are {r1} and {r2, r3}.
  LinearRule r1 = LR("p(X,Y) :- p(Z,Y), up(X,Z).");
  LinearRule r2 = LR("p(X,Y) :- p(X,Z), q(Z,Y).");
  LinearRule r3 = LR("p(X,Y) :- p(X,Z), rr(Z,Y).");
  Engine engine;
  engine.db().GetOrCreate("up", 2) = RandomGraph(15, 25, 1);
  engine.db().GetOrCreate("q", 2) = RandomGraph(15, 25, 2);
  engine.db().GetOrCreate("rr", 2) = RandomGraph(15, 25, 3);
  Relation seed(2);
  for (int i = 0; i < 15; i += 2) seed.Insert({i, i});

  Query query = Query::Closure({r1, r2, r3});
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(prepared->plan().strategy, Strategy::kDecomposed);
  const std::vector<std::vector<int>> groups = {{0}, {1, 2}};
  EXPECT_EQ(prepared->plan().groups, groups);

  auto via_engine = RunQuery(engine, query, seed);
  ASSERT_TRUE(via_engine.ok()) << via_engine.status();
  auto direct = SemiNaiveClosure({r1, r2, r3}, engine.db(), seed);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_engine->relation(), *direct);
}

TEST(EnginePlanTest, PersistentSelectedColumnYieldsSeparable) {
  Engine engine(SameGenDb());
  Relation q = IdentitySeed(engine.db());
  // Position 0 is 1-persistent in Down() and not in Up(): A = {down rule},
  // B = {up rule}, and the pair commutes (Theorem 4.1).
  Selection sigma{0, q.Sorted().front()[0]};
  Query query = Query::Closure({Down(), Up()}).SelectPosition(0);
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const ExecutionPlan& plan = prepared->plan();
  EXPECT_EQ(plan.strategy, Strategy::kSeparable);
  EXPECT_TRUE(plan.selection_pushed);
  ASSERT_EQ(plan.outer.size(), 1u);
  ASSERT_EQ(plan.inner.size(), 1u);
  EXPECT_EQ(plan.outer[0], 0);
  EXPECT_EQ(plan.inner[0], 1);

  auto via_engine = RunQuery(engine, query, q, sigma.value);
  ASSERT_TRUE(via_engine.ok());
  auto direct =
      SeparableClosure({Down()}, {Up()}, sigma, engine.db(), q);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_engine->relation(), *direct);
  auto filtered = ClosureThenSelect({Down()}, {Up()}, sigma, engine.db(), q);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(via_engine->relation(), *filtered);
}

TEST(EnginePlanTest, SelectionOnGeneralColumnIsPostFiltered) {
  // Position 1 is general in both forward-chaining rules: σ commutes with
  // neither, so there is no pushdown; the plan filters the final closure.
  LinearRule r1 = LR("p(X,Y) :- p(X,Z), q(Z,Y).");
  LinearRule r2 = LR("p(X,Y) :- p(X,Z), rr(Z,Y).");
  Engine engine;
  engine.db().GetOrCreate("q", 2) = ChainGraph(6);
  engine.db().GetOrCreate("rr", 2).Insert({2, 0});
  Relation q(2);
  q.Insert({0, 0});
  Selection sigma{1, 3};
  Query query = Query::Closure({r1, r2}).SelectPosition(1);
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_NE(prepared->plan().strategy, Strategy::kSeparable);
  EXPECT_FALSE(prepared->plan().selection_pushed);

  auto via_engine = RunQuery(engine, query, q, sigma.value);
  ASSERT_TRUE(via_engine.ok());
  auto closure = SemiNaiveClosure({r1, r2}, engine.db(), q);
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(via_engine->relation(), ApplySelection(*closure, sigma));
}

TEST(EnginePlanTest, FullPushdownWhenSelectionCommutesWithEveryRule) {
  // Single TC rule, σ on the 1-persistent source column: inner group is
  // empty and the seed itself is filtered.
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  Engine engine;
  engine.db().GetOrCreate("e", 2) = ChainGraph(6);
  Relation q(2);
  for (int i = 0; i < 6; ++i) q.Insert({i, i});
  Selection sigma{0, 2};
  Query query = Query::Closure({tc}).SelectPosition(0);
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(prepared->plan().strategy, Strategy::kSeparable);
  EXPECT_TRUE(prepared->plan().inner.empty());

  auto via_engine = RunQuery(engine, query, q, sigma.value);
  ASSERT_TRUE(via_engine.ok());
  auto closure = SemiNaiveClosure({tc}, engine.db(), q);
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(via_engine->relation(), ApplySelection(*closure, sigma));
}

TEST(EnginePlanTest, UniformlyBoundedRuleYieldsPowerSum) {
  // A uniformly bounded operator, A^n ≤ A^k with k < n, closes as the
  // power sum A* = Σ_{m<n} A^m.
  auto check = [](const LinearRule& r, Engine& engine, const Relation& q,
                  int power_bound) {
    Query query = Query::Closure({r});
    auto prepared = engine.Prepare(query);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    EXPECT_EQ(prepared->plan().strategy, Strategy::kPowerSum);
    EXPECT_EQ(prepared->plan().power_bound, power_bound);

    auto via_engine = RunQuery(engine, query, q);
    ASSERT_TRUE(via_engine.ok());
    auto direct = SemiNaiveClosure({r}, engine.db(), q);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(via_engine->relation(), *direct);
  };
  {
    // r^2 ≡ r (idempotent guard): n = 2.
    Engine engine;
    engine.db().GetOrCreate("g", 1).Insert({1});
    engine.db().GetOrCreate("g", 1).Insert({2});
    Relation q(1);
    q.Insert({1});
    q.Insert({7});
    check(LR("p(X) :- p(X), g(X)."), engine, q, 1);
  }
  {
    // r^3 ≤ r: a third swap only re-derives what one swap derived.
    Engine engine;
    engine.db().GetOrCreate("e", 2) = RandomGraph(10, 30, 9);
    Relation q(2);
    for (int i = 0; i < 10; i += 2) q.Insert({i, (i + 3) % 10});
    check(LR("p(X,Y) :- p(Y,X), e(X,Y)."), engine, q, 2);
  }
}

TEST(EnginePlanTest, BoundedBridgeElidesRedundantPredicate) {
  // Example 6.1: endorses sits in a uniformly bounded bridge, so it is
  // recursively redundant and the plan elides it via the factorization.
  LinearRule rule =
      LR("buys(X,Y) :- knows(X,Z), buys(Z,Y), endorses(W,Y).");
  EndorsedBuysWorkload w = MakeEndorsedBuys(/*people=*/60, /*items=*/15,
                                            /*fanout=*/4,
                                            /*initial_buys=*/15, /*seed=*/3);
  Engine engine(std::move(w.db));
  Query query = Query::Closure({rule});
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const ExecutionPlan& plan = prepared->plan();
  EXPECT_EQ(plan.strategy, Strategy::kSemiNaive);
  ASSERT_TRUE(plan.factorization.has_value());
  ASSERT_EQ(plan.elided_predicates.size(), 1u);
  EXPECT_EQ(plan.elided_predicates[0], "endorses");

  auto via_engine = RunQuery(engine, query, w.q);
  ASSERT_TRUE(via_engine.ok()) << via_engine.status();
  auto direct = SemiNaiveClosure({rule}, engine.db(), w.q);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_engine->relation(), *direct);
}

TEST(EnginePlanTest, ExplainNamesStrategyAndTheorem) {
  Engine engine(SameGenDb());
  auto prepared = engine.Prepare(Query::Closure({Down(), Up()}));
  ASSERT_TRUE(prepared.ok());
  std::string text = prepared->plan().Explain();
  EXPECT_NE(text.find("decomposed"), std::string::npos) << text;
  EXPECT_NE(text.find("Theorem 3.1"), std::string::npos) << text;
  EXPECT_NE(text.find("commute"), std::string::npos) << text;
}

TEST(EnginePlanTest, ExplainReportsParallelMode) {
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");

  EngineOptions serial_options;
  serial_options.parallel_workers = 1;
  Engine serial_engine(Database{}, serial_options);
  auto serial = serial_engine.Prepare(Query::Closure({tc}));
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->plan().parallel_workers, 1);
  EXPECT_NE(serial->plan().Explain().find("parallel: serial"),
            std::string::npos)
      << serial->plan().Explain();

  EngineOptions parallel_options;
  parallel_options.parallel_workers = 8;
  Engine parallel_engine(Database{}, parallel_options);
  auto parallel = parallel_engine.Prepare(Query::Closure({tc}));
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->plan().parallel_workers, 8);
  std::string text = parallel->plan().Explain();
  EXPECT_NE(text.find("8 workers"), std::string::npos) << text;
  // The worker count sizes only batch slots: queries and rounds stay
  // serial.
  EXPECT_NE(text.find("batch slots"), std::string::npos) << text;
  EXPECT_NE(text.find("every query and round is serial"), std::string::npos)
      << text;

  // A decomposed plan spends it the same way: its group closures run in
  // product order on the query's own thread.
  Engine decomposed_engine(SameGenDb(), parallel_options);
  auto decomposed =
      decomposed_engine.Prepare(Query::Closure({Down(), Up()}));
  ASSERT_TRUE(decomposed.ok());
  ASSERT_EQ(decomposed->plan().strategy, Strategy::kDecomposed);
  auto parallel_line = [](const std::string& explain) {
    const std::size_t begin = explain.find("parallel:");
    return explain.substr(begin, explain.find('\n', begin) - begin);
  };
  EXPECT_EQ(parallel_line(decomposed->plan().Explain()),
            parallel_line(text));
}

TEST(EngineOptionsTest, ZeroWorkersMeansHardwareConcurrencyNotSerial) {
  // The contract of common/parallel.h: 0 = one lane per hardware thread
  // (always at least 1), 1 = serial, explicit values taken literally.
  EXPECT_GE(ResolveWorkers(0), 1);
  EXPECT_EQ(ResolveWorkers(1), 1);
  EXPECT_EQ(ResolveWorkers(6), 6);
  EXPECT_EQ(ResolveWorkers(-3), 1);

  EngineOptions defaults;
  EXPECT_EQ(defaults.parallel_workers, 0);  // auto, not serial
  Engine engine;
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto prepared = engine.Prepare(Query::Closure({tc}));
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->plan().parallel_workers, ResolveWorkers(0));
}

TEST(EngineForceTest, ForcedNaiveMatchesSemiNaive) {
  Engine engine;
  engine.db().GetOrCreate("e", 2) = ChainGraph(5);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  Relation q(2);
  for (int i = 0; i < 5; ++i) q.Insert({i, i});
  auto naive =
      RunQuery(engine, Query::Closure({tc}).Force(Strategy::kNaive), q);
  ASSERT_TRUE(naive.ok());
  auto semi = RunQuery(engine, Query::Closure({tc}), q);
  ASSERT_TRUE(semi.ok());
  EXPECT_EQ(naive->relation(), semi->relation());
}

TEST(EngineForceTest, ForcedPowerSumRequiresBound) {
  Engine engine;
  engine.db().GetOrCreate("e", 2) = ChainGraph(5);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto prepared =
      engine.Prepare(Query::Closure({tc}).Force(Strategy::kPowerSum));
  EXPECT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineCacheTest, AnalysisIsMemoized) {
  Engine engine;
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto first = engine.Analyze(tc);
  auto second = engine.Analyze(tc);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);  // same cached pointer
  EXPECT_EQ(engine.analysis_cache().rule_entries(), 1u);

  auto c1 = engine.Commutes(Down(), Up());
  auto c2 = engine.Commutes(Up(), Down());  // symmetric: one cache entry
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c1->commute, c2->commute);
  EXPECT_EQ(engine.analysis_cache().pair_entries(), 1u);
}

TEST(EngineCacheTest, StatsAccumulateAcrossQueries) {
  Engine engine;
  engine.db().GetOrCreate("e", 2) = ChainGraph(5);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  Relation q(2);
  q.Insert({0, 0});
  ASSERT_TRUE(RunQuery(engine, Query::Closure({tc}), q).ok());
  std::size_t after_one = engine.stats().derivations;
  ASSERT_TRUE(RunQuery(engine, Query::Closure({tc}), q).ok());
  EXPECT_GT(engine.stats().derivations, after_one);
  engine.ResetStats();
  EXPECT_EQ(engine.stats().derivations, 0u);
}

TEST(EngineCacheTest, IndexCacheDoesNotAccumulateTemporaries) {
  // Every Execute builds indexes over per-call temporaries (Δs, the seed);
  // the engine must evict them so a long-lived engine stays bounded.
  Engine engine;
  engine.db().GetOrCreate("e", 2) = ChainGraph(8);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  Relation q(2);
  q.Insert({0, 0});
  ASSERT_TRUE(RunQuery(engine, Query::Closure({tc}), q).ok());
  std::size_t after_one = engine.index_cache().entry_count();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(RunQuery(engine, Query::Closure({tc}), q).ok());
  }
  EXPECT_EQ(engine.index_cache().entry_count(), after_one);
}

TEST(EnginePlanCacheTest, RepeatQueriesSkipPlanning) {
  Engine engine(SameGenDb());
  Relation q = IdentitySeed(engine.db());
  auto first = engine.Prepare(Query::Closure({Down(), Up()}));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->plan().from_plan_cache);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
  EXPECT_EQ(engine.plan_cache_hits(), 0u);

  auto second = engine.Prepare(Query::Closure({Down(), Up()}));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->plan().from_plan_cache);
  EXPECT_EQ(second->plan().strategy, first->plan().strategy);
  EXPECT_EQ(second->plan().groups, first->plan().groups);
  EXPECT_EQ(engine.plan_cache_hits(), 1u);

  // The cached plan executes identically.
  auto out1 = engine.Execute(first->Bind().BindSeed(q));
  auto out2 = engine.Execute(second->Bind().BindSeed(q));
  ASSERT_TRUE(out1.ok());
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out1->relation(), out2->relation());

  // Declaring a σ changes the structural digest: planned from scratch...
  auto with_sigma =
      engine.Prepare(Query::Closure({Down(), Up()}).SelectPosition(0));
  ASSERT_TRUE(with_sigma.ok()) << with_sigma.status();
  EXPECT_FALSE(with_sigma->plan().from_plan_cache);
  EXPECT_EQ(engine.plan_cache_misses(), 2u);
  // ...and the same σ position again is a hit, whatever value binds.
  auto same_position =
      engine.Prepare(Query::Closure({Down(), Up()}).SelectPosition(0));
  ASSERT_TRUE(same_position.ok()) << same_position.status();
  EXPECT_TRUE(same_position->plan().from_plan_cache);
  EXPECT_EQ(engine.plan_cache_misses(), 2u);

  // A different σ position is structural: planned from scratch.
  auto other_position =
      engine.Prepare(Query::Closure({Down(), Up()}).SelectPosition(1));
  ASSERT_TRUE(other_position.ok()) << other_position.status();
  EXPECT_FALSE(other_position->plan().from_plan_cache);
  EXPECT_EQ(engine.plan_cache_misses(), 3u);
}

TEST(EnginePlanCacheTest, CachedPlanServesFreshSeeds) {
  // The digest covers structure only, so one cached plan answers every
  // seed.
  Engine engine(SameGenDb());
  Relation q1 = IdentitySeed(engine.db());
  ASSERT_TRUE(RunQuery(engine, Query::Closure({Down(), Up()}), q1).ok());
  Relation q2(2);
  q2.Insert({3, 3});
  auto prepared = engine.Prepare(Query::Closure({Down(), Up()}));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_TRUE(prepared->plan().from_plan_cache);
  auto out = engine.Execute(prepared->Bind().BindSeed(q2));
  ASSERT_TRUE(out.ok()) << out.status();
  auto direct = SemiNaiveClosure({Down(), Up()}, engine.db(), q2);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(out->relation(), *direct);
}

TEST(EngineParallelTest, ParallelWorkersMatchSequentialResult) {
  EngineOptions parallel_options;
  parallel_options.parallel_workers = 4;
  Engine parallel_engine(SameGenDb(), parallel_options);
  Relation q = IdentitySeed(parallel_engine.db());
  auto parallel_out =
      RunQuery(parallel_engine, Query::Closure({Down(), Up()}), q);
  ASSERT_TRUE(parallel_out.ok()) << parallel_out.status();

  EngineOptions sequential_options;
  sequential_options.parallel_workers = 1;
  Engine sequential_engine(SameGenDb(), sequential_options);
  auto sequential_out =
      RunQuery(sequential_engine, Query::Closure({Down(), Up()}), q);
  ASSERT_TRUE(sequential_out.ok()) << sequential_out.status();
  EXPECT_EQ(parallel_out->relation(), sequential_out->relation());
}

TEST(EnginePlanCacheTest, FifoEvictsOldestSingleEntry) {
  // At capacity the cache drops exactly the oldest entry — earlier
  // versions cleared the whole cache, cold-starting every hot plan.
  EngineOptions options;
  options.plan_cache_capacity = 2;
  Engine engine(Database{}, options);
  Query a = Query::Closure({LR("p(X,Y) :- p(X,Z), ea(Z,Y).")});
  Query b = Query::Closure({LR("p(X,Y) :- p(X,Z), eb(Z,Y).")});
  Query c = Query::Closure({LR("p(X,Y) :- p(X,Z), ec(Z,Y).")});
  auto from_cache = [&engine](const Query& query) {
    return engine.Prepare(query)->plan().from_plan_cache;
  };

  ASSERT_TRUE(engine.Prepare(a).ok());  // miss: {a}
  ASSERT_TRUE(engine.Prepare(b).ok());  // miss: {a, b}
  EXPECT_EQ(engine.plan_cache_misses(), 2u);
  EXPECT_TRUE(from_cache(a));  // hit, a stays cached
  EXPECT_EQ(engine.plan_cache_hits(), 1u);

  ASSERT_TRUE(engine.Prepare(c).ok());  // miss; evicts only a (the oldest)
  EXPECT_EQ(engine.plan_cache_misses(), 3u);
  EXPECT_EQ(engine.plan_cache_size(), 2u);
  EXPECT_TRUE(from_cache(b));  // b survived the insert
  EXPECT_TRUE(from_cache(c));
  EXPECT_EQ(engine.plan_cache_hits(), 3u);

  EXPECT_FALSE(from_cache(a));  // a was the one evicted
  EXPECT_EQ(engine.plan_cache_misses(), 4u);
  EXPECT_EQ(engine.plan_cache_size(), 2u);
}

TEST(EnginePlanCacheTest, ZeroCapacityDisablesCaching) {
  EngineOptions options;
  options.plan_cache_capacity = 0;
  Engine engine(Database{}, options);
  Query query = Query::Closure({LR("p(X,Y) :- p(X,Z), e(Z,Y).")});
  ASSERT_TRUE(engine.Prepare(query).ok());
  EXPECT_FALSE(engine.Prepare(query)->plan().from_plan_cache);
  EXPECT_EQ(engine.plan_cache_size(), 0u);
}

TEST(EngineExecuteTest, RejectsOutOfRangeSelectionPosition) {
  // Engine-boundary validation: an out-of-range σ position must fail with
  // InvalidArgument at Prepare, not reach WhereEquals as UB in NDEBUG
  // builds.
  Engine engine;
  engine.db().GetOrCreate("e", 2) = ChainGraph(4);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  Relation q(2);
  q.Insert({0, 0});

  auto out_of_range = engine.Prepare(Query::Closure({tc}).SelectPosition(5));
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.Prepare(Query::Closure({tc}).SelectPosition(-1)).ok());

  // An in-range selection still executes.
  auto prepared = engine.Prepare(Query::Closure({tc}).SelectPosition(0));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_TRUE(engine.Execute(prepared->Bind(0).BindSeed(q)).ok());
}

TEST(EngineJointTest, JointQueryPlansAndExecutes) {
  auto w = MakeEvenOddChain(8);
  ASSERT_TRUE(w.ok()) << w.status();
  Engine engine(std::move(w->db));
  auto prepared = engine.Prepare(Query::JointClosure(w->members, w->rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(prepared->plan().strategy, Strategy::kJointSemiNaive);
  std::string text = prepared->plan().Explain();
  EXPECT_NE(text.find("joint-semi-naive"), std::string::npos) << text;
  EXPECT_NE(text.find("even, odd"), std::string::npos) << text;
  EXPECT_NE(text.find("Δ source"), std::string::npos) << text;

  // Joint plans refuse a single-relation seed binding...
  Relation q(2);
  q.Insert({0, 0});
  auto wrong = engine.Execute(prepared->Bind().BindSeed(q));
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
  // ...and non-joint plans refuse per-member seeds.
  auto single =
      engine.Prepare(Query::Closure({LR("p(X,Y) :- p(X,Z), succ(Z,Y).")}));
  ASSERT_TRUE(single.ok());
  EXPECT_FALSE(
      engine.Execute(single->Bind().BindSeeds(w->seeds)).ok());

  auto out = engine.Execute(prepared->Bind().BindSeeds(w->seeds));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->joint);
  ASSERT_EQ(out->relations.size(), 2u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out->relations[0].Contains({i}), i % 2 == 0) << i;
    EXPECT_EQ(out->relations[1].Contains({i}), i % 2 == 1) << i;
  }
  EXPECT_GT(engine.stats().derivations, 0u);
}

TEST(EngineJointTest, JointPlansAreCachedSeedless) {
  auto w = MakeEvenOddChain(6);
  ASSERT_TRUE(w.ok());
  Engine engine(std::move(w->db));
  Query query = Query::JointClosure(w->members, w->rules);
  auto first = engine.Prepare(query);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->plan().from_plan_cache);

  // Same members + rules: a hit, which runs on whatever seeds bind.
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_TRUE(prepared->plan().from_plan_cache);
  std::vector<Relation> rebind;
  rebind.emplace_back(1);
  rebind.back().Insert({2});
  rebind.emplace_back(1);
  auto out =
      engine.Execute(prepared->Bind().BindSeeds(std::move(rebind)));
  ASSERT_TRUE(out.ok()) << out.status();
  // Seeded from 2 instead of 0: evens are {2,4}, odds {3,5}.
  EXPECT_TRUE(out->relations[0].Contains({4}));
  EXPECT_FALSE(out->relations[0].Contains({0}));
}

TEST(EngineJointTest, JointValidationErrors) {
  auto w = MakeEvenOddChain(6);
  ASSERT_TRUE(w.ok());
  Engine engine;

  // Selections and Force are not supported on joint queries.
  EXPECT_FALSE(engine
                   .Prepare(Query::JointClosure(w->members, w->rules)
                                .SelectPosition(0))
                   .ok());
  EXPECT_FALSE(engine
                   .Prepare(Query::JointClosure(w->members, w->rules)
                                .Force(Strategy::kSemiNaive))
                   .ok());
  auto prepared = engine.Prepare(Query::JointClosure(w->members, w->rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  // Seed count must match member count.
  {
    std::vector<Relation> one_seed;
    one_seed.emplace_back(1);
    EXPECT_FALSE(
        engine.Execute(prepared->Bind().BindSeeds(std::move(one_seed))).ok());
  }
  // No seeds at all.
  EXPECT_FALSE(engine.Execute(prepared->Bind()).ok());
  // A rule reading two member atoms is non-linear joint recursion.
  {
    auto bad_rule = ParseRule("even(X) :- odd(X), even(X), succ(X,X).");
    ASSERT_TRUE(bad_rule.ok());
    std::vector<JointRule> rules = w->rules;
    rules.push_back(JointRule{*bad_rule, 0, 0, 1});
    auto bad =
        engine.Prepare(Query::JointClosure(w->members, std::move(rules)));
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("exactly one member atom"),
              std::string::npos)
        << bad.status().message();
  }
  // Duplicate member names.
  EXPECT_FALSE(
      engine.Prepare(Query::JointClosure({"even", "even"}, w->rules)).ok());
}

TEST(EngineQueryTest, ValidationErrors) {
  Engine engine;
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto prepared = engine.Prepare(Query::Closure({tc}));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  // No seed.
  EXPECT_FALSE(engine.Execute(prepared->Bind()).ok());
  // Arity mismatch.
  Relation bad(3);
  bad.Insert({1, 2, 3});
  EXPECT_FALSE(engine.Execute(prepared->Bind().BindSeed(bad)).ok());
  // Mixed head predicates.
  LinearRule other = LR("r(X,Y) :- r(X,Z), e(Z,Y).");
  EXPECT_FALSE(engine.Prepare(Query::Closure({tc, other})).ok());
  // Selection position out of range.
  EXPECT_FALSE(engine.Prepare(Query::Closure({tc}).SelectPosition(5)).ok());
  // No rules.
  EXPECT_FALSE(engine.Prepare(Query::Closure({})).ok());
}

}  // namespace
}  // namespace linrec
