// IVM parity suite: the delta engine must be observationally equal to
// recomputation. Apply(Δ) on a materialized view yields the relation a
// from-scratch evaluation over the updated inputs would; Retract undoes
// it (DRed); Apply-then-Retract of the same delta round-trips to the
// exact pre-update bytes; a fault injected mid-Apply rolls back to the
// exact pre-call bytes. All of it across strategies and worker counts,
// with real threads forced so single-core CI still runs the parallel
// rounds.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "ivm/view.h"
#include "workload/graphs.h"
#include "workload/rulegen.h"

namespace linrec {
namespace {

LinearRule LR(const std::string& text) {
  auto r = ParseLinearRule(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

void ForceRealThreads() { WorkerPool::OverrideThreadCapForTesting(16); }
void RestoreThreadCap() { WorkerPool::OverrideThreadCapForTesting(0); }

/// Rows in INSERTION order — the byte-level observable of a relation
/// (Sorted() would hide reordering).
std::vector<Tuple> Rows(const Relation& rel) {
  std::vector<Tuple> out;
  out.reserve(rel.size());
  for (TupleView t : rel) {
    out.emplace_back(std::vector<Value>(t.data(), t.data() + t.arity()));
  }
  return out;
}

Relation IdentitySeed(int nodes) {
  Relation q(2);
  for (int i = 0; i < nodes; ++i) q.Insert({i, i});
  return q;
}

/// Splits `edges` into a base part and `batches` update batches of
/// `batch_size` rows each (deterministic: insertion order).
struct EdgeStream {
  Relation base{2};
  std::vector<Relation> batches;
};
EdgeStream SplitEdges(const Relation& edges, int batches, int batch_size) {
  EdgeStream s;
  const std::size_t updates =
      static_cast<std::size_t>(batches) * static_cast<std::size_t>(batch_size);
  const std::size_t base_count = edges.size() - updates;
  std::size_t i = 0;
  for (TupleView t : edges) {
    if (i < base_count) {
      s.base.Insert(t);
    } else {
      const std::size_t b = (i - base_count) / batch_size;
      if (s.batches.size() <= b) s.batches.emplace_back(2);
      s.batches[b].Insert(t);
    }
    ++i;
  }
  return s;
}

/// The oracle: from-scratch closure of `rules` over edge relation `e`.
Relation Recompute(const std::vector<LinearRule>& rules, const Relation& e,
                   const Relation& q) {
  Database db;
  db.GetOrCreate("e", 2) = e;
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  EXPECT_TRUE(prepared.ok()) << prepared.status();
  auto out = engine.Execute(prepared->Bind().BindSeed(q));
  EXPECT_TRUE(out.ok()) << out.status();
  return out->relation();
}

/// Materializes tc over the base edges, Applies each update batch, and
/// checks the maintained view equals the from-scratch closure after
/// every batch.
void RunApplyParity(int workers, std::vector<LinearRule> rules) {
  const int nodes = 40;
  EdgeStream s = SplitEdges(RandomGraph(nodes, 140, /*seed=*/11),
                            /*batches=*/4, /*batch_size=*/10);
  const Relation q = IdentitySeed(nodes);

  EngineOptions options;
  options.parallel_workers = workers;
  Database db;
  db.GetOrCreate("e", 2) = s.base;
  Engine engine(std::move(db), options);
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto view = engine.Materialize(prepared->Bind().BindSeed(q), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();

  Relation all_edges = s.base;
  for (const Relation& batch : s.batches) {
    DeltaInsert delta;
    delta.param_inserts.emplace("e", batch);
    auto outcome = engine.Apply(*view, delta);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    all_edges.UnionWith(batch);

    const Relation* maintained = engine.db().Find("tc");
    ASSERT_NE(maintained, nullptr);
    EXPECT_EQ(*maintained, Recompute(rules, all_edges, q))
        << "workers=" << workers;
    // The database copy of the input tracked the stream.
    EXPECT_EQ(*engine.db().Find("e"), all_edges);
  }
  EXPECT_EQ(view->applies(), s.batches.size());
}

TEST(IvmApply, MatchesRecomputeSerial) {
  RunApplyParity(1, {LR("p(X,Y) :- p(X,Z), e(Z,Y).")});
}

TEST(IvmApply, MatchesRecomputeParallel) {
  ForceRealThreads();
  RunApplyParity(2, {LR("p(X,Y) :- p(X,Z), e(Z,Y).")});
  RunApplyParity(8, {LR("p(X,Y) :- p(X,Z), e(Z,Y).")});
  RestoreThreadCap();
}

TEST(IvmApply, MatchesRecomputeTwoRules) {
  // Left- and right-linear rules over the same input: both read "e", so
  // one parameter delta seeds delta runs of both.
  std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y)."),
                                   LR("p(X,Y) :- e(X,Z), p(Z,Y).")};
  RunApplyParity(1, rules);
  ForceRealThreads();
  RunApplyParity(2, rules);
  RestoreThreadCap();
}

TEST(IvmApply, SeedInsertsExtendTheClosure) {
  const std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(12);
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  // Seed only half the nodes; the rest arrive as seed deltas.
  Relation q(2);
  for (int i = 0; i < 6; ++i) q.Insert({i, i});
  auto view = engine.Materialize(prepared->Bind().BindSeed(q), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();

  DeltaInsert delta;
  delta.seed_inserts.emplace_back(2);
  for (int i = 6; i < 12; ++i) delta.seed_inserts[0].Insert({i, i});
  auto outcome = engine.Apply(*view, delta);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->added, outcome->appended[0].second -
                                outcome->appended[0].first);

  EXPECT_EQ(*engine.db().Find("tc"),
            Recompute(rules, ChainGraph(12), IdentitySeed(12)));
  // The maintained seed absorbed the delta.
  EXPECT_EQ(view->seed(), IdentitySeed(12));
}

TEST(IvmApply, IdempotentOnDuplicateDelta) {
  const std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(10);
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto view =
      engine.Materialize(prepared->Bind().BindSeed(IdentitySeed(10)), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();
  const std::vector<Tuple> before = Rows(*engine.db().Find("tc"));

  // Re-inserting tuples the input already holds derives nothing new and
  // leaves the view byte-identical (stale deltas are sound).
  DeltaInsert delta;
  Relation dup(2);
  dup.Insert({3, 4});
  dup.Insert({7, 8});
  delta.param_inserts.emplace("e", std::move(dup));
  auto outcome = engine.Apply(*view, delta);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->added, 0u);
  EXPECT_EQ(Rows(*engine.db().Find("tc")), before);
}

/// Retract parity: delete a batch of edges from a maintained view and
/// compare against the from-scratch closure over the remaining edges.
void RunRetractParity(int workers) {
  const std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  const int nodes = 36;
  const Relation edges = RandomGraph(nodes, 120, /*seed=*/23);
  const Relation q = IdentitySeed(nodes);

  EngineOptions options;
  options.parallel_workers = workers;
  Database db;
  db.GetOrCreate("e", 2) = edges;
  Engine engine(std::move(db), options);
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto view = engine.Materialize(prepared->Bind().BindSeed(q), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();

  // Delete every fifth edge — dense enough that some damaged tuples have
  // alternative derivations (the re-derive half of DRed does real work).
  Relation remaining(2), dropped(2);
  std::size_t i = 0;
  for (TupleView t : edges) {
    if (i++ % 5 == 0) {
      dropped.Insert(t);
    } else {
      remaining.Insert(t);
    }
  }
  DeltaDelete delta;
  delta.param_deletes.emplace("e", dropped);
  auto outcome = engine.Retract(*view, delta);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  EXPECT_EQ(*engine.db().Find("tc"), Recompute(rules, remaining, q))
      << "workers=" << workers;
  EXPECT_EQ(*engine.db().Find("e"), remaining);
  EXPECT_EQ(view->retracts(), 1u);
}

TEST(IvmRetract, MatchesRecomputeSerial) { RunRetractParity(1); }

TEST(IvmRetract, MatchesRecomputeParallel) {
  ForceRealThreads();
  RunRetractParity(2);
  RunRetractParity(8);
  RestoreThreadCap();
}

/// The round-trip property (satellite): Apply(Δ) then Retract(Δ) must
/// restore the EXACT pre-update state — same tuples, same insertion
/// order, same seed — across worker counts. The inserted edges are fresh
/// (absent before), so DRed removes precisely what Apply added and the
/// survivor prefix is the untouched original closure.
void RunRoundTrip(int workers) {
  const std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  const int nodes = 30;
  EdgeStream s = SplitEdges(RandomGraph(nodes, 100, /*seed=*/5),
                            /*batches=*/1, /*batch_size=*/12);
  const Relation q = IdentitySeed(nodes);

  EngineOptions options;
  options.parallel_workers = workers;
  Database db;
  db.GetOrCreate("e", 2) = s.base;
  Engine engine(std::move(db), options);
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto view = engine.Materialize(prepared->Bind().BindSeed(q), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();

  const std::vector<Tuple> closed_before = Rows(*engine.db().Find("tc"));
  const std::vector<Tuple> edges_before = Rows(*engine.db().Find("e"));
  const std::vector<Tuple> seed_before = Rows(view->seed());

  DeltaInsert ins;
  ins.param_inserts.emplace("e", s.batches[0]);
  auto applied = engine.Apply(*view, ins);
  ASSERT_TRUE(applied.ok()) << applied.status();

  DeltaDelete del;
  del.param_deletes.emplace("e", s.batches[0]);
  auto retracted = engine.Retract(*view, del);
  ASSERT_TRUE(retracted.ok()) << retracted.status();

  // Byte-identical round trip: contents AND insertion order.
  EXPECT_EQ(Rows(*engine.db().Find("tc")), closed_before)
      << "workers=" << workers;
  EXPECT_EQ(Rows(*engine.db().Find("e")), edges_before);
  EXPECT_EQ(Rows(view->seed()), seed_before);
  // And what Retract removed is exactly what Apply added.
  EXPECT_EQ(retracted->removed_count, applied->added);
}

TEST(IvmRoundTrip, ApplyThenRetractRestoresExactBytes) {
  RunRoundTrip(1);
  ForceRealThreads();
  RunRoundTrip(2);
  RunRoundTrip(8);
  RestoreThreadCap();
}

TEST(IvmJoint, ApplyAndRetractMatchRecompute) {
  // Alternating-color reachability: a genuine two-member SCC. Insert new
  // red edges (which are also reach_red seed tuples), compare against a
  // from-scratch joint closure, then retract them and compare again.
  auto w = MakeAlternatingReachability(30, 60, /*seed=*/9);
  ASSERT_TRUE(w.ok()) << w.status();

  // Hold back the last 8 red edges as the update.
  const Relation& red_all = *w->db.Find("red");
  Relation red_base(2), red_new(2);
  std::size_t i = 0;
  for (TupleView t : red_all) {
    (i++ + 8 >= red_all.size() ? red_new : red_base).Insert(t);
  }

  Database db;
  db.GetOrCreate("red", 2) = red_base;
  db.GetOrCreate("blue", 2) = *w->db.Find("blue");
  Engine engine(std::move(db));
  auto prepared =
      engine.Prepare(Query::JointClosure(w->members, w->rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  // Seeds mirror the workload's convention: reach_red = red, reach_blue =
  // blue — restricted to the base edges.
  std::vector<Relation> seeds = {red_base, *w->db.Find("blue")};
  auto view = engine.Materialize(prepared->Bind().BindSeeds(std::move(seeds)),
                                 {"reach_red", "reach_blue"});
  ASSERT_TRUE(view.ok()) << view.status();
  ASSERT_TRUE(view->joint());

  const std::vector<Tuple> red_closed_before =
      Rows(*engine.db().Find("reach_red"));
  const std::vector<Tuple> blue_closed_before =
      Rows(*engine.db().Find("reach_blue"));

  // Oracle over the FULL edge set.
  Database full;
  full.GetOrCreate("red", 2) = red_all;
  full.GetOrCreate("blue", 2) = *w->db.Find("blue");
  Engine oracle(std::move(full));
  auto oracle_prepared =
      oracle.Prepare(Query::JointClosure(w->members, w->rules));
  ASSERT_TRUE(oracle_prepared.ok()) << oracle_prepared.status();
  std::vector<Relation> full_seeds = {red_all, *w->db.Find("blue")};
  auto oracle_out = oracle.Execute(
      oracle_prepared->Bind().BindSeeds(std::move(full_seeds)));
  ASSERT_TRUE(oracle_out.ok()) << oracle_out.status();

  // Apply: new red edges are both a parameter delta and a reach_red seed
  // delta.
  DeltaInsert ins;
  ins.seed_inserts.emplace_back(red_new);
  ins.seed_inserts.emplace_back(2);
  ins.param_inserts.emplace("red", red_new);
  auto applied = engine.Apply(*view, ins);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*engine.db().Find("reach_red"), oracle_out->relations[0]);
  EXPECT_EQ(*engine.db().Find("reach_blue"), oracle_out->relations[1]);

  // Retract the same delta: the pre-apply closure returns byte for byte.
  // The inserted edges gave some ORIGINAL tuples alternative derivations;
  // those are re-derived in place, so the rows Apply appended are exactly
  // the rows that leave.
  DeltaDelete del;
  del.seed_deletes.emplace_back(red_new);
  del.seed_deletes.emplace_back(2);
  del.param_deletes.emplace("red", red_new);
  auto retracted = engine.Retract(*view, del);
  ASSERT_TRUE(retracted.ok()) << retracted.status();
  EXPECT_GT(retracted->rederived, 0u);
  EXPECT_EQ(Rows(*engine.db().Find("reach_red")), red_closed_before);
  EXPECT_EQ(Rows(*engine.db().Find("reach_blue")), blue_closed_before);
  EXPECT_EQ(*engine.db().Find("red"), red_base);
  EXPECT_EQ(view->seed(0), red_base);
}

TEST(IvmFault, MidApplyAbortRollsBackToExactBytes) {
  const std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(14);
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto view =
      engine.Materialize(prepared->Bind().BindSeed(IdentitySeed(14)), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();

  const std::vector<Tuple> closed_before = Rows(*engine.db().Find("tc"));
  const std::vector<Tuple> edges_before = Rows(*engine.db().Find("e"));
  const std::vector<Tuple> seed_before = Rows(view->seed());

  Relation batch(2);
  batch.Insert({13, 0});  // closes the chain into a cycle: a large delta

  // Both injection points: before the resume (hit 1) and at commit
  // (hit 2). Each must leave the view, the input, and the maintained
  // seed byte-identical — contents and insertion order.
  for (std::uint64_t nth : {1u, 2u}) {
    ScopedFault fault(FaultSite::kIvmApply, nth);
    DeltaInsert delta;
    delta.param_inserts.emplace("e", batch);
    auto outcome = engine.Apply(*view, delta);
    ASSERT_FALSE(outcome.ok()) << "fault hit " << nth << " did not fire";
    EXPECT_EQ(outcome.status().code(), StatusCode::kInternal);
    EXPECT_EQ(Rows(*engine.db().Find("tc")), closed_before) << nth;
    EXPECT_EQ(Rows(*engine.db().Find("e")), edges_before) << nth;
    EXPECT_EQ(Rows(view->seed()), seed_before) << nth;
    EXPECT_EQ(view->applies(), 0u);
  }

  // Disarmed, the identical Apply succeeds and matches recompute.
  DeltaInsert delta;
  delta.param_inserts.emplace("e", batch);
  auto outcome = engine.Apply(*view, delta);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  Relation all = ChainGraph(14);
  all.UnionWith(batch);
  EXPECT_EQ(*engine.db().Find("tc"), Recompute(rules, all, IdentitySeed(14)));
}

/// Materializes tc with seed = e (the linrecd program's shape) over
/// `edges` and returns the engine; `view` receives the handle.
std::unique_ptr<Engine> MaterializeTc(const Relation& edges,
                                      MaterializedView* view) {
  Database db;
  db.GetOrCreate("e", 2) = edges;
  auto engine = std::make_unique<Engine>(std::move(db));
  auto prepared =
      engine->Prepare(Query::Closure({LR("p(X,Y) :- p(X,Z), e(Z,Y).")}));
  EXPECT_TRUE(prepared.ok()) << prepared.status();
  auto materialized =
      engine->Materialize(prepared->Bind().BindSeed(edges), {"tc"});
  EXPECT_TRUE(materialized.ok()) << materialized.status();
  *view = std::move(materialized).value();
  return engine;
}

DeltaDelete EdgeDelete(const Relation& edges) {
  DeltaDelete d;
  d.seed_deletes.push_back(edges);
  d.param_deletes.emplace("e", edges);
  return d;
}

/// A diamond 0→1→2, 0→3→2 with a tail 2→4→5, plus `chains` disjoint
/// 12-node chains that make the view large without touching the diamond.
Relation DiamondWithFiller(int chains) {
  Relation e(2);
  for (auto [a, b] : {std::pair{0, 1}, {1, 2}, {0, 3}, {3, 2}, {2, 4},
                      {4, 5}}) {
    e.Insert({a, b});
  }
  for (int c = 0; c < chains; ++c) {
    const int base = 100 + 20 * c;
    for (int i = 0; i < 11; ++i) e.Insert({base + i, base + i + 1});
  }
  return e;
}

TEST(IvmRetractCost, LocalDeleteCostIsIndependentOfViewSize) {
  // Deleting 1→2 takes (1,2), (1,4), (1,5) away and re-derives (0,2),
  // (0,4), (0,5) through 3. The work must follow those tuples, not the
  // view: identical counters on a view of N rows and one of ~8N. That
  // covers index work too: once the first write has built the indexes it
  // probes, the cached indexes follow the view's and e's appends and
  // erases, so a second Apply + Retract of the same edge builds none.
  ClosureStats stats[2];
  ClosureStats again[2];
  std::size_t view_rows[2];
  const int chains[2] = {40, 320};
  for (int k = 0; k < 2; ++k) {
    MaterializedView view;
    auto engine = MaterializeTc(DiamondWithFiller(chains[k]), &view);
    view_rows[k] = engine->db().Find("tc")->size();
    Relation gone(2);
    gone.Insert({1, 2});
    auto out = engine->Retract(view, EdgeDelete(gone));
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(out->removed_count, 3u);
    EXPECT_EQ(out->rederived, 3u);
    stats[k] = out->stats;

    const std::size_t rebuilds = engine->index_cache().rebuilds();
    DeltaInsert back;
    back.seed_inserts.push_back(gone);
    back.param_inserts.emplace("e", gone);
    auto applied = engine->Apply(view, back);
    ASSERT_TRUE(applied.ok()) << applied.status();
    const Relation edges = DiamondWithFiller(chains[k]);
    EXPECT_EQ(*engine->db().Find("tc"),
              Recompute({LR("p(X,Y) :- p(X,Z), e(Z,Y).")}, edges, edges));
    auto retracted = engine->Retract(view, EdgeDelete(gone));
    ASSERT_TRUE(retracted.ok()) << retracted.status();
    EXPECT_EQ(retracted->removed_count, 3u);
    EXPECT_EQ(retracted->rederived, 3u);
    again[k] = applied->stats;
    again[k].Accumulate(retracted->stats);
    EXPECT_EQ(engine->index_cache().rebuilds(), rebuilds)
        << "view of " << view_rows[k] << " rows";
  }
  EXPECT_GE(view_rows[1], 7 * view_rows[0]);
  EXPECT_EQ(stats[0].derivations, stats[1].derivations);
  EXPECT_EQ(stats[0].rows_scanned, stats[1].rows_scanned);
  EXPECT_EQ(stats[0].probes_issued, stats[1].probes_issued);
  EXPECT_LT(stats[0].derivations, 40u);
  EXPECT_EQ(again[0].derivations, again[1].derivations);
  EXPECT_EQ(again[0].rows_scanned, again[1].rows_scanned);
  EXPECT_EQ(again[0].probes_issued, again[1].probes_issued);
}

TEST(IvmRetractOrder, ViewKeepsItsOrderMinusTheRemovedRows) {
  // Dense random graph with cycles: deleting every seventh edge removes
  // many tuples and re-derives many others. The survivors, re-derived
  // ones included, keep their places; the removed rows simply leave.
  const Relation edges = RandomGraph(30, 90, /*seed=*/41);
  MaterializedView view;
  auto engine = MaterializeTc(edges, &view);
  const std::vector<Tuple> before = Rows(*engine->db().Find("tc"));
  const std::vector<Tuple> seed_before = Rows(view.seed());

  Relation gone(2), remaining(2);
  std::size_t i = 0;
  for (TupleView t : edges) (i++ % 7 == 0 ? gone : remaining).Insert(t);
  auto out = engine->Retract(view, EdgeDelete(gone));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(out->rederived, 0u);
  EXPECT_GT(out->removed_count, 0u);

  std::vector<Tuple> expected;
  for (const Tuple& t : before) {
    if (!out->removed[0].Contains(t)) expected.push_back(t);
  }
  EXPECT_EQ(Rows(*engine->db().Find("tc")), expected);
  EXPECT_EQ(out->removed_count, before.size() - expected.size());
  EXPECT_EQ(*engine->db().Find("tc"),
            Recompute({LR("p(X,Y) :- p(X,Z), e(Z,Y).")}, remaining,
                      remaining));
  std::vector<Tuple> seed_expected;
  for (const Tuple& t : seed_before) {
    if (!gone.Contains(t)) seed_expected.push_back(t);
  }
  EXPECT_EQ(Rows(view.seed()), seed_expected);
}

TEST(IvmFault, FailedRetractLeavesViewSeedAndInputByteIdentical) {
  const Relation edges = RandomGraph(24, 70, /*seed=*/17);
  Relation gone(2), remaining(2);
  std::size_t i = 0;
  for (TupleView t : edges) (i++ % 5 == 0 ? gone : remaining).Insert(t);

  MaterializedView view;
  auto engine = MaterializeTc(edges, &view);
  const std::vector<Tuple> closed_before = Rows(*engine->db().Find("tc"));
  const std::vector<Tuple> edges_before = Rows(*engine->db().Find("e"));
  const std::vector<Tuple> seed_before = Rows(view.seed());
  auto unchanged = [&](const std::string& what) {
    EXPECT_EQ(Rows(*engine->db().Find("tc")), closed_before) << what;
    EXPECT_EQ(Rows(*engine->db().Find("e")), edges_before) << what;
    EXPECT_EQ(Rows(view.seed()), seed_before) << what;
    EXPECT_EQ(view.retracts(), 0u) << what;
  };

  {
    // The injected fault right before the commit.
    ScopedFault fault(FaultSite::kIvmApply, 1);
    auto out = engine->Retract(view, EdgeDelete(gone));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kInternal);
    unchanged("ivm_apply fault");
  }
  {
    // A budget that refuses the first growth.
    QueryBudget tiny(1);
    auto out = engine->Retract(view, EdgeDelete(gone), nullptr, &tiny);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
    unchanged("budget denial");
  }
  // An allocation fault at every growth point in turn, until the delete
  // gets through.
  bool succeeded = false;
  for (std::uint64_t nth = 1; nth < 400 && !succeeded; ++nth) {
    ScopedFault fault(FaultSite::kPoolGrowth, nth);
    auto out = engine->Retract(view, EdgeDelete(gone));
    if (out.ok()) {
      succeeded = true;
      break;
    }
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted) << nth;
    unchanged("pool_growth fault at hit " + std::to_string(nth));
  }
  ASSERT_TRUE(succeeded);
  EXPECT_EQ(*engine->db().Find("tc"),
            Recompute({LR("p(X,Y) :- p(X,Z), e(Z,Y).")}, remaining,
                      remaining));
  EXPECT_EQ(*engine->db().Find("e"), remaining);
}

TEST(IvmValidation, RejectsMalformedDeltas) {
  const std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(6);
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  auto view =
      engine.Materialize(prepared->Bind().BindSeed(IdentitySeed(6)), {"tc"});
  ASSERT_TRUE(view.ok()) << view.status();
  const std::vector<Tuple> before = Rows(*engine.db().Find("tc"));

  // Wrong-arity parameter delta.
  {
    DeltaInsert delta;
    Relation bad(3);
    bad.Insert({1, 2, 3});
    delta.param_inserts.emplace("e", std::move(bad));
    auto outcome = engine.Apply(*view, delta);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  }
  // Inserting into the derived member itself.
  {
    DeltaInsert delta;
    Relation bad(2);
    bad.Insert({1, 2});
    delta.param_inserts.emplace("tc", std::move(bad));
    auto outcome = engine.Apply(*view, delta);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  }
  // Wrong seed_inserts shape.
  {
    DeltaInsert delta;
    delta.seed_inserts.emplace_back(2);
    delta.seed_inserts.emplace_back(2);
    auto outcome = engine.Apply(*view, delta);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  }
  // Default-constructed view.
  {
    MaterializedView dangling;
    DeltaInsert delta;
    auto outcome = engine.Apply(dangling, delta);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  }
  // Nothing moved.
  EXPECT_EQ(Rows(*engine.db().Find("tc")), before);
  EXPECT_EQ(view->applies(), 0u);
}

TEST(IvmMaterialize, RejectsSelectedQueries) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(6);
  Engine engine(std::move(db));
  auto prepared = engine.Prepare(
      Query::Closure({LR("p(X,Y) :- p(X,Z), e(Z,Y).")}).SelectPosition(0));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  Relation q(2);
  q.Insert({3, 3});
  auto view = engine.Materialize(prepared->Bind(3).BindSeed(q), {"tc"});
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace linrec
