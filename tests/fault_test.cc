// Deterministic fault-injection tests: the injector's exact-nth and seeded
// schedules, and injection coverage for the in-engine sites — every armed
// fault must surface as a *typed* Status (never a crash, never a mangled
// relation), the engine must keep serving afterwards, and a fixed schedule
// must abort at the same hit in every build mode.

#include "common/fault.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "workload/databases.h"
#include "workload/graphs.h"

namespace linrec {
namespace {

LinearRule LR(const std::string& text) {
  auto lr = ParseLinearRule(text);
  EXPECT_TRUE(lr.ok()) << lr.status();
  return *lr;
}

/// An engine over a chain graph with the usual tc rule, built *before* any
/// fault is armed (relation construction hits kPoolGrowth too).
Engine ChainEngine(int n) {
  EngineOptions options;
  options.parallel_workers = 1;
  Engine engine(Database{}, options);
  engine.db().GetOrCreate("e", 2) = ChainGraph(n);
  return engine;
}

Relation SeedZero() {
  Relation q(2);
  q.Insert({0, 0});
  return q;
}

TEST(FaultInjectorTest, ArmAtFiresExactlyOnNthHit) {
  FaultInjector& injector = FaultInjector::Instance();
  injector.ArmAt(FaultSite::kRehash, 3);
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kRehash));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kRehash));
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kRehash));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kRehash));
  // Other sites never fire under an nth-hit arm.
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kPoolGrowth));
  EXPECT_EQ(injector.hits(FaultSite::kRehash), 4u);
  EXPECT_EQ(injector.fired(FaultSite::kRehash), 1u);
  EXPECT_EQ(injector.last_fired_hit(FaultSite::kRehash), 3u);
  injector.Disarm();
  // Disarmed sites neither fire nor count.
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kRehash));
  EXPECT_EQ(injector.hits(FaultSite::kRehash), 4u);
}

TEST(FaultInjectorTest, SeededScheduleReplaysExactly) {
  FaultInjector& injector = FaultInjector::Instance();
  auto schedule = [&](std::uint64_t seed) {
    injector.ArmSeeded(seed, 7);
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) {
      fires.push_back(injector.ShouldFire(FaultSite::kWorkerDispatch));
    }
    injector.Disarm();
    return fires;
  };
  const std::vector<bool> first = schedule(42);
  const std::vector<bool> second = schedule(42);
  EXPECT_EQ(first, second);
  // The schedule actually fires somewhere, and a different seed differs.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(first, schedule(43));
}

TEST(FaultInjectorTest, ScopedFaultDisarmsOnScopeExit) {
  {
    ScopedFault fault(FaultSite::kSocketWrite, 1);
    EXPECT_TRUE(FaultFires(FaultSite::kSocketWrite));
  }
  EXPECT_FALSE(FaultFires(FaultSite::kSocketWrite));
}

TEST(FaultInjectionTest, PoolGrowthFaultSurfacesAsResourceExhausted) {
  Engine engine = ChainEngine(32);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto prepared = engine.Prepare(Query::Closure({tc}));
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  Relation seed = SeedZero();
  {
    ScopedFault fault(FaultSite::kPoolGrowth, 1);
    auto result = engine.Execute(prepared->Bind().BindSeed(seed));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << result.status();
  }
  // The engine keeps serving: the same prepared query now succeeds and
  // matches an untouched engine's answer bit for bit.
  auto after = engine.Execute(prepared->Bind().BindSeed(seed));
  ASSERT_TRUE(after.ok()) << after.status();
  Engine fresh = ChainEngine(32);
  auto clean = fresh.Execute(
      fresh.Prepare(Query::Closure({tc}))->Bind().BindSeed(seed));
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(after->relation(), clean->relation());
}

TEST(FaultInjectionTest, RehashFaultSurfacesAsResourceExhausted) {
  Engine engine = ChainEngine(64);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto prepared = engine.Prepare(Query::Closure({tc}));
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  ScopedFault fault(FaultSite::kRehash, 2);
  auto result = engine.Execute(prepared->Bind().BindSeed(SeedZero()));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status();
}

TEST(FaultInjectionTest, WorkerDispatchFaultSurfacesAsTypedInternal) {
  // Every slot of a batch is dispatched to a worker lane, and the armed
  // fault fails the first slot dispatched with a typed status while its
  // neighbours still run. The slots are the commuting same-generation pair,
  // planned as a two-group decomposed closure. Slots dispatch on every
  // host, one core or many.
  SameGenerationWorkload w =
      MakeSameGeneration(/*layers=*/4, /*width=*/12, /*fanout=*/2,
                         /*seed=*/5);
  EngineOptions options;
  options.parallel_workers = 4;
  Engine engine(w.db, options);
  auto prepared = engine.Prepare(Query::Closure(SameGenerationRules()));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  ASSERT_EQ(prepared->plan().strategy, Strategy::kDecomposed);
  ASSERT_EQ(prepared->plan().groups.size(), 2u);
  const std::vector<BoundQuery> batch(4, prepared->Bind().BindSeed(w.q));
  {
    ScopedFault fault(FaultSite::kWorkerDispatch, 1);
    std::vector<Result<QueryResult>> slots = engine.ExecuteBatchEach(batch);
    ASSERT_EQ(slots.size(), batch.size());
    std::size_t failed = 0;
    for (const Result<QueryResult>& slot : slots) {
      if (slot.ok()) continue;
      ++failed;
      EXPECT_EQ(slot.status().code(), StatusCode::kInternal) << slot.status();
      EXPECT_NE(slot.status().message().find("injected worker fault"),
                std::string::npos)
          << slot.status();
    }
    EXPECT_EQ(failed, 1u);
  }
  // The engine keeps serving: the next batch succeeds in every slot with
  // the rows of an untouched engine.
  Engine fresh(w.db, options);
  auto clean = fresh.Execute(
      fresh.Prepare(Query::Closure(SameGenerationRules()))
          ->Bind()
          .BindSeed(w.q));
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_GT(clean->relation().size(), w.q.size());
  auto after = engine.ExecuteBatch(batch);
  ASSERT_TRUE(after.ok()) << after.status();
  for (const QueryResult& slot : *after) {
    EXPECT_EQ(slot.relation(), clean->relation());
  }
}

TEST(FaultInjectionTest, FixedScheduleAbortsAtTheSameHitEveryRun) {
  // The reproducibility contract behind `--fault-seed`: one seed, one abort
  // point — across runs (and, by the same determinism, across build modes).
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  // (aborted, pool-growth abort hit, rehash abort hit) of one seeded run.
  struct AbortPoint {
    bool aborted = false;
    std::uint64_t pool_hit = 0;
    std::uint64_t rehash_hit = 0;
    bool operator==(const AbortPoint& o) const {
      return aborted == o.aborted && pool_hit == o.pool_hit &&
             rehash_hit == o.rehash_hit;
    }
  };
  auto run = [&](std::uint64_t seed) -> AbortPoint {
    Engine engine = ChainEngine(256);
    auto prepared = engine.Prepare(Query::Closure({tc}));
    EXPECT_TRUE(prepared.ok()) << prepared.status();
    // Seed rows are inserted before arming: only *execution* growth may
    // observe the schedule, as in the daemon (--fault-seed arms at boot,
    // before any session holds relations — but the schedule's hit counts
    // must come from evaluation to be comparable across runs).
    BoundQuery bound = prepared->Bind().BindSeed(SeedZero());
    FaultInjector::Instance().ArmSeeded(seed, /*period=*/5);
    auto result = engine.Execute(bound);
    FaultInjector::Instance().Disarm();
    AbortPoint point;
    point.aborted =
        !result.ok() &&
        result.status().code() == StatusCode::kResourceExhausted;
    point.pool_hit =
        FaultInjector::Instance().last_fired_hit(FaultSite::kPoolGrowth);
    point.rehash_hit =
        FaultInjector::Instance().last_fired_hit(FaultSite::kRehash);
    return point;
  };
  // Seeded firing is probabilistic per seed (1/period per hit), so pick the
  // first of a handful of fixed seeds that aborts; the *contract* is that
  // replaying that seed aborts at the identical hit.
  std::uint64_t chosen = 0;
  AbortPoint first;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    first = run(seed);
    if (first.aborted) {
      chosen = seed;
      break;
    }
  }
  ASSERT_NE(chosen, 0u) << "no seed in 1..32 fired within the run";
  EXPECT_TRUE(first.pool_hit != 0 || first.rehash_hit != 0);
  EXPECT_EQ(run(chosen), first);
  EXPECT_EQ(run(chosen), first);
}

}  // namespace
}  // namespace linrec
