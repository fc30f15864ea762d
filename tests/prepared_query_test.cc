// Prepared-query API tests: Prepare/Bind/Execute round trips, the
// structure-only plan-cache digest (σ value and seed excluded — one
// planning pass per σ-sweep), unified QueryResult with per-execution
// stats, coherent counter resets, and batched multi-query execution on
// the shared pool (determinism across worker counts, mixed single+joint
// batches, shared parameter-relation indexes).

#include "engine/prepared.h"

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "eval/fixpoint.h"
#include "eval/selection.h"
#include "real_threads.h"
#include "workload/graphs.h"
#include "workload/rulegen.h"

namespace linrec {
namespace {

LinearRule LR(const std::string& text) {
  auto lr = ParseLinearRule(text);
  EXPECT_TRUE(lr.ok()) << lr.status();
  return *lr;
}

/// Same-generation pair (Example 5.2): commuting, and position 0 is
/// 1-persistent in Down — the planner picks kSeparable for σ on 0.
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

TEST(PreparedQueryTest, PrepareBindExecuteMatchesLegacy) {
  Engine engine;
  engine.db().GetOrCreate("e", 2) = ChainGraph(8);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  Relation q(2);
  q.Insert({0, 0});

  auto prepared = engine.Prepare(Query::Closure({tc}));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_FALSE(prepared->is_joint());
  EXPECT_FALSE(prepared->has_sigma_param());

  auto result = engine.Execute(prepared->Bind().BindSeed(q));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->joint);
  auto legacy = SemiNaiveClosure({tc}, engine.db(), q);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(result->relation(), *legacy);

  // Per-execution stats ride on the result; the engine-global record
  // still accumulates.
  EXPECT_GT(result->stats.derivations, 0u);
  EXPECT_EQ(result->stats.result_size, result->relation().size());
  EXPECT_EQ(engine.stats().derivations, result->stats.derivations);
}

TEST(PreparedQueryTest, SigmaSweepPlansExactlyOnce) {
  // The satellite regression: the plan-cache digest used to include the σ
  // *value*, so sweeping selection constants — Theorem 4.1's own workload
  // — was 100% cache misses. Prepared queries plan once and bind N times.
  Engine engine(SameGenDb());
  Relation q = IdentitySeed(engine.db());
  auto seed = std::make_shared<const Relation>(q);

  auto prepared =
      engine.Prepare(Query::Closure({Down(), Up()}).SelectPosition(0));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_TRUE(prepared->has_sigma_param());
  EXPECT_EQ(prepared->plan().strategy, Strategy::kSeparable);
  EXPECT_EQ(prepared->plan().sigma_position, 0);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);

  // Reference: full closure, filtered per value.
  auto full = SemiNaiveClosure({Down(), Up()}, engine.db(), q);
  ASSERT_TRUE(full.ok());

  for (Value v = 0; v < 100; ++v) {
    auto result = engine.Execute(prepared->Bind(v).BindSeed(seed));
    ASSERT_TRUE(result.ok()) << "σ value " << v << ": " << result.status();
    EXPECT_EQ(result->relation(), ApplySelection(*full, Selection{0, v}))
        << "σ value " << v;
  }
  // One Prepare + 100 binds = exactly one planning pass.
  EXPECT_EQ(engine.plan_cache_misses(), 1u);

  // Preparing the structure again per σ value (the one-shot sweep) is a
  // plan-cache hit every time: 100 hits, zero further planning passes.
  const std::size_t hits_before = engine.plan_cache_hits();
  for (Value v = 0; v < 100; ++v) {
    auto again =
        engine.Prepare(Query::Closure({Down(), Up()}).SelectPosition(0));
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_TRUE(again->plan().from_plan_cache);
    auto result = engine.Execute(again->Bind(v).BindSeed(seed));
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->relation(), ApplySelection(*full, Selection{0, v}));
  }
  EXPECT_EQ(engine.plan_cache_hits(), hits_before + 100);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
}

TEST(PreparedQueryTest, PreparedJointMatchesDirectJointClosure) {
  auto w = MakeEvenOddChain(8);
  ASSERT_TRUE(w.ok()) << w.status();
  Engine engine(std::move(w->db));

  auto prepared =
      engine.Prepare(Query::JointClosure(w->members, w->rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_TRUE(prepared->is_joint());

  auto result = engine.Execute(prepared->Bind().BindSeeds(w->seeds));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->joint);
  ASSERT_EQ(result->relations.size(), 2u);
  EXPECT_GT(result->stats.derivations, 0u);

  auto direct =
      JointSemiNaiveClosure(w->members, w->rules, engine.db(), w->seeds);
  ASSERT_TRUE(direct.ok()) << direct.status();
  // Member order is preserved by both paths.
  EXPECT_EQ(result->relations[0], (*direct)[0]);
  EXPECT_EQ(result->relations[1], (*direct)[1]);
}

TEST(PreparedQueryTest, BindMisuseSurfacesAtExecute) {
  Engine engine;
  engine.db().GetOrCreate("e", 2) = ChainGraph(4);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  Relation q(2);
  q.Insert({0, 0});

  auto no_sigma = engine.Prepare(Query::Closure({tc}));
  ASSERT_TRUE(no_sigma.ok());
  // Bind(value) without a σ parameter.
  {
    auto out = engine.Execute(no_sigma->Bind(3).BindSeed(q));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  }
  // Missing seed.
  {
    auto out = engine.Execute(no_sigma->Bind());
    ASSERT_FALSE(out.ok());
    EXPECT_NE(out.status().message().find("seed"), std::string::npos);
  }
  // Seed arity mismatch.
  {
    Relation bad(3);
    bad.Insert({1, 2, 3});
    auto out = engine.Execute(no_sigma->Bind().BindSeed(bad));
    ASSERT_FALSE(out.ok());
    EXPECT_NE(out.status().message().find("arity"), std::string::npos);
  }
  // BindSeeds on a single-predicate prepared query.
  {
    std::vector<Relation> seeds;
    seeds.emplace_back(2);
    auto out = engine.Execute(no_sigma->Bind().BindSeeds(std::move(seeds)));
    ASSERT_FALSE(out.ok());
    EXPECT_NE(out.status().message().find("BindSeed"), std::string::npos);
  }

  auto with_param = engine.Prepare(Query::Closure({tc}).SelectPosition(0));
  ASSERT_TRUE(with_param.ok());
  // Bind() without the σ value: the value binds only per execution.
  {
    auto out = engine.Execute(with_param->Bind().BindSeed(q));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(out.status().message().find("Bind(value)"), std::string::npos)
        << out.status().message();
  }

  // BindSeed on a joint prepared query.
  {
    auto w = MakeEvenOddChain(4);
    ASSERT_TRUE(w.ok());
    Engine joint_engine(std::move(w->db));
    auto joint = joint_engine.Prepare(
        Query::JointClosure(w->members, w->rules));
    ASSERT_TRUE(joint.ok()) << joint.status();
    Relation seed(1);
    auto out = joint_engine.Execute(joint->Bind().BindSeed(seed));
    ASSERT_FALSE(out.ok());
    EXPECT_NE(out.status().message().find("BindSeeds"), std::string::npos);
  }
}

TEST(PreparedQueryTest, ResetCountersResetsCoherently) {
  // ResetStats left the plan-cache hit/miss counters running forever;
  // ResetCounters zeroes the whole observability surface while keeping
  // cache *contents* (a repeated query is still a hit afterwards).
  Engine engine(SameGenDb());
  auto q = std::make_shared<const Relation>(IdentitySeed(engine.db()));
  Query query = Query::Closure({Down(), Up()});
  auto prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ASSERT_TRUE(engine.Execute(prepared->Bind().BindSeed(q)).ok());
  prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(engine.Execute(prepared->Bind().BindSeed(q)).ok());
  EXPECT_GT(engine.stats().derivations, 0u);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
  EXPECT_GT(engine.plan_cache_hits(), 0u);

  // ResetStats alone: stats cleared, cache ledger untouched.
  engine.ResetStats();
  EXPECT_EQ(engine.stats().derivations, 0u);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);

  engine.ResetCounters();
  EXPECT_EQ(engine.stats().derivations, 0u);
  EXPECT_EQ(engine.stats().iterations, 0u);
  EXPECT_EQ(engine.stats().millis, 0.0);
  EXPECT_EQ(engine.plan_cache_hits(), 0u);
  EXPECT_EQ(engine.plan_cache_misses(), 0u);

  // The cached plan survived the counter reset.
  prepared = engine.Prepare(query);
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->plan().from_plan_cache);
  EXPECT_EQ(engine.plan_cache_hits(), 1u);
  EXPECT_EQ(engine.plan_cache_misses(), 0u);
}

// --- Batched execution ----------------------------------------------------

/// A mixed batch over one engine: a σ-sweep on the separable same-gen
/// pair, an unselected closure, and (via a second prepared handle) the
/// batch runs against the same shared parameter relations throughout.
std::vector<BoundQuery> MakeSweepBatch(const PreparedQuery& sweep,
                                       const PreparedQuery& plain,
                                       const std::shared_ptr<const Relation>&
                                           seed,
                                       int sweep_size) {
  std::vector<BoundQuery> batch;
  for (Value v = 0; v < sweep_size; ++v) {
    batch.push_back(sweep.Bind(v).BindSeed(seed));
  }
  batch.push_back(plain.Bind().BindSeed(seed));
  return batch;
}

TEST(ExecuteBatchTest, MatchesSequentialAcrossWorkerCounts) {
  // Real threads even on a 1-core host.
  WorkerPool::OverrideThreadCapForTesting(16);

  // Sequential reference, computed once with a serial engine.
  std::vector<Relation> expected;
  {
    EngineOptions serial;
    serial.parallel_workers = 1;
    Engine engine(SameGenDb(), serial);
    auto seed =
        std::make_shared<const Relation>(IdentitySeed(engine.db()));
    auto sweep =
        engine.Prepare(Query::Closure({Down(), Up()}).SelectPosition(0));
    auto plain = engine.Prepare(Query::Closure({Down(), Up()}));
    ASSERT_TRUE(sweep.ok() && plain.ok());
    for (BoundQuery& bound : MakeSweepBatch(*sweep, *plain, seed, 9)) {
      auto result = engine.Execute(bound);
      ASSERT_TRUE(result.ok()) << result.status();
      expected.push_back(std::move(result->relation()));
    }
  }

  for (int workers : {1, 2, 8}) {
    EngineOptions options;
    options.parallel_workers = workers;
    Engine engine(SameGenDb(), options);
    auto seed =
        std::make_shared<const Relation>(IdentitySeed(engine.db()));
    auto sweep =
        engine.Prepare(Query::Closure({Down(), Up()}).SelectPosition(0));
    auto plain = engine.Prepare(Query::Closure({Down(), Up()}));
    ASSERT_TRUE(sweep.ok() && plain.ok());
    std::vector<BoundQuery> batch = MakeSweepBatch(*sweep, *plain, seed, 9);

    auto results = engine.ExecuteBatch(batch);
    ASSERT_TRUE(results.ok()) << workers << " workers: " << results.status();
    ASSERT_EQ(results->size(), expected.size());
    std::size_t stats_sum = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*results)[i].relation(), expected[i])
          << "batch slot " << i << " at " << workers << " workers";
      EXPECT_GT((*results)[i].stats.derivations, 0u);
      stats_sum += (*results)[i].stats.derivations;
    }
    // The engine-global record is the sum of the per-query records.
    EXPECT_EQ(engine.stats().derivations, stats_sum);
  }

  WorkerPool::OverrideThreadCapForTesting(0);
}

TEST(ExecuteBatchTest, MixedSingleAndJointBatch) {
  WorkerPool::OverrideThreadCapForTesting(16);

  auto w = MakeEvenOddChain(10);
  ASSERT_TRUE(w.ok()) << w.status();
  Database db = std::move(w->db);
  db.GetOrCreate("e", 2) = ChainGraph(10);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  Relation q(2);
  for (int i = 0; i < 10; ++i) q.Insert({i, i});

  for (int workers : {1, 2, 8}) {
    EngineOptions options;
    options.parallel_workers = workers;
    Engine engine(db, options);
    auto single = engine.Prepare(Query::Closure({tc}));
    auto joint =
        engine.Prepare(Query::JointClosure(w->members, w->rules));
    ASSERT_TRUE(single.ok() && joint.ok());

    std::vector<BoundQuery> batch;
    batch.push_back(single->Bind().BindSeed(q));
    batch.push_back(joint->Bind().BindSeeds(w->seeds));
    batch.push_back(single->Bind().BindSeed(q));

    auto results = engine.ExecuteBatch(batch);
    ASSERT_TRUE(results.ok()) << results.status();
    ASSERT_EQ(results->size(), 3u);

    auto tc_ref = SemiNaiveClosure({tc}, engine.db(), q);
    ASSERT_TRUE(tc_ref.ok());
    EXPECT_FALSE((*results)[0].joint);
    EXPECT_EQ((*results)[0].relation(), *tc_ref);
    EXPECT_EQ((*results)[2].relation(), *tc_ref);

    EXPECT_TRUE((*results)[1].joint);
    ASSERT_EQ((*results)[1].relations.size(), 2u);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ((*results)[1].relations[0].Contains({i}), i % 2 == 0);
      EXPECT_EQ((*results)[1].relations[1].Contains({i}), i % 2 == 1);
    }
  }

  WorkerPool::OverrideThreadCapForTesting(0);
}

TEST(ExecuteBatchTest, SharedParameterIndexBuildsDoNotScaleWithBatchSize) {
  // Every query of a batch probes the same parameter relation `e`; the
  // shared read-side tier must build that index once per batch at most —
  // and zero times once the engine cache is warm — however many queries
  // the batch holds. (Per-query temporaries index privately and are not
  // counted here.)
  WorkerPool::OverrideThreadCapForTesting(16);
  EngineOptions options;
  options.parallel_workers = 4;
  Engine engine(Database{}, options);
  engine.db().GetOrCreate("e", 2) = RandomGraph(64, 128, /*seed=*/7);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto seed = std::make_shared<const Relation>([] {
    Relation q(2);
    for (int i = 0; i < 64; i += 4) q.Insert({i, i});
    return q;
  }());

  auto prepared = engine.Prepare(Query::Closure({tc}));
  ASSERT_TRUE(prepared.ok());
  // Warm the shared tier: the first execution builds e's index.
  ASSERT_TRUE(engine.Execute(prepared->Bind().BindSeed(seed)).ok());

  auto run_batch = [&](int n) -> std::size_t {
    std::vector<BoundQuery> batch;
    for (int i = 0; i < n; ++i) {
      batch.push_back(prepared->Bind().BindSeed(seed));
    }
    const std::size_t before = engine.index_cache().rebuilds();
    auto results = engine.ExecuteBatch(batch);
    EXPECT_TRUE(results.ok()) << results.status();
    return engine.index_cache().rebuilds() - before;
  };

  const std::size_t rebuilds_small = run_batch(2);
  const std::size_t rebuilds_large = run_batch(16);
  EXPECT_EQ(rebuilds_small, 0u);
  EXPECT_EQ(rebuilds_large, 0u);

  WorkerPool::OverrideThreadCapForTesting(0);
}

TEST(ExecuteBatchTest, BatchAfterParameterInsertsMatchesSequential) {
  // Facts inserted, and one fact erased, after the shared tier was warmed
  // leave the parameter relations' cached indexes behind, as the serving
  // layer leaves them when it maintains a goal's dependencies right before
  // batching its σ goals. The batch's first lane to reach each index
  // catches it up (appends, then one EraseRows) under the shared tier's
  // lock while the other lanes wait on it; every slot must then read one
  // consistent index per relation: the σ sweep and the decomposed closures
  // of the batch match sequential execution on an engine that never saw
  // the old facts.
  RealThreads threads;
  auto add_edges = [](Database& db) {
    Relation& down = db.GetOrCreate("down", 2);
    Relation& up = db.GetOrCreate("up", 2);
    for (Value child : {100, 101, 102}) {
      down.Insert({child - 70, child});
      up.Insert({child, child - 70});
    }
    // The tree edge 1→4, in both directions.
    Relation down_gone(2), up_gone(2);
    down_gone.Insert({1, 4});
    up_gone.Insert({4, 1});
    EXPECT_EQ(down.EraseRows(down_gone), 1u);
    EXPECT_EQ(up.EraseRows(up_gone), 1u);
  };
  auto prepare = [](Engine& engine) {
    auto sweep =
        engine.Prepare(Query::Closure({Down(), Up()}).SelectPosition(0));
    auto plain = engine.Prepare(Query::Closure({Down(), Up()}));
    EXPECT_TRUE(sweep.ok() && plain.ok());
    EXPECT_EQ(plain->plan().strategy, Strategy::kDecomposed);
    return std::make_pair(*sweep, *plain);
  };

  EngineOptions options;
  options.parallel_workers = 4;
  Engine engine(SameGenDb(), options);
  auto [sweep, plain] = prepare(engine);
  const auto old_seed =
      std::make_shared<const Relation>(IdentitySeed(engine.db()));
  ASSERT_TRUE(engine.ExecuteBatch(MakeSweepBatch(sweep, plain, old_seed, 2))
                  .ok());
  add_edges(engine.db());
  const auto seed =
      std::make_shared<const Relation>(IdentitySeed(engine.db()));
  const std::vector<BoundQuery> batch = {
      sweep.Bind(1).BindSeed(seed), plain.Bind().BindSeed(seed),
      sweep.Bind(2).BindSeed(seed), plain.Bind().BindSeed(seed)};
  const std::size_t rebuilds = engine.index_cache().rebuilds();
  auto results = engine.ExecuteBatch(batch);
  ASSERT_TRUE(results.ok()) << results.status();
  // The shared indexes were caught up, not rebuilt.
  EXPECT_EQ(engine.index_cache().rebuilds(), rebuilds);

  Database db = SameGenDb();
  add_edges(db);
  EngineOptions serial;
  serial.parallel_workers = 1;
  Engine reference(std::move(db), serial);
  auto [ref_sweep, ref_plain] = prepare(reference);
  const std::vector<BoundQuery> ref_batch = {
      ref_sweep.Bind(1).BindSeed(seed), ref_plain.Bind().BindSeed(seed),
      ref_sweep.Bind(2).BindSeed(seed), ref_plain.Bind().BindSeed(seed)};
  ASSERT_EQ(results->size(), ref_batch.size());
  for (std::size_t i = 0; i < ref_batch.size(); ++i) {
    auto expected = reference.Execute(ref_batch[i]);
    ASSERT_TRUE(expected.ok()) << expected.status();
    EXPECT_EQ((*results)[i].relation(), expected->relation())
        << "batch slot " << i;
  }
  // The new edges reach the closure.
  EXPECT_TRUE((*results)[1].relation().Contains({30, 100}));
}

TEST(ExecuteBatchTest, EmptyBatchAndFailurePropagation) {
  Engine engine;
  engine.db().GetOrCreate("e", 2) = ChainGraph(4);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  Relation q(2);
  q.Insert({0, 0});

  auto empty = engine.ExecuteBatch({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  auto prepared = engine.Prepare(Query::Closure({tc}));
  ASSERT_TRUE(prepared.ok());
  std::vector<BoundQuery> batch;
  batch.push_back(prepared->Bind().BindSeed(q));
  batch.push_back(prepared->Bind());  // no seed: invalid
  auto out = engine.ExecuteBatch(batch);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  // The error names the failing slot.
  EXPECT_NE(out.status().message().find("batch query 1"), std::string::npos)
      << out.status().message();
}

}  // namespace
}  // namespace linrec
