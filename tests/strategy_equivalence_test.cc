// Execution equivalence across strategies: every evaluation route — naive,
// semi-naive, the decomposed product, and the engine's automatic choice —
// must produce the identical closure on the workload suite. This is the
// paper's core claim (the theorems rewrite the *computation*, never the
// *result*) and the regression net for the flat storage layer. The
// worker-count suite goes further: the rows and their order, not just the
// set, are independent of EngineOptions::parallel_workers, executed alone
// or in a batch.

#include <gtest/gtest.h>

#include <optional>

#include "algebra/closure.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "eval/fixpoint.h"
#include "real_threads.h"
#include "workload/databases.h"
#include "workload/graphs.h"

namespace linrec {
namespace {

LinearRule LR(const std::string& text) {
  auto r = ParseLinearRule(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

/// Asserts naive == semi-naive == engine-auto on (rules, db, q) and returns
/// the agreed closure (as sorted tuples, so failures print deterministic
/// diffs).
std::vector<Tuple> ExpectAllStrategiesAgree(
    const std::vector<LinearRule>& rules, Database db, const Relation& q) {
  auto naive = NaiveClosure(rules, db, q);
  auto semi = SemiNaiveClosure(rules, db, q);
  EXPECT_TRUE(naive.ok()) << naive.status();
  EXPECT_TRUE(semi.ok()) << semi.status();
  EXPECT_EQ(*naive, *semi);

  Engine engine(std::move(db));
  auto prepared = engine.Prepare(Query::Closure(rules));
  EXPECT_TRUE(prepared.ok()) << prepared.status();
  auto engine_out = engine.Execute(prepared->Bind().BindSeed(q));
  EXPECT_TRUE(engine_out.ok()) << engine_out.status();
  EXPECT_EQ(*semi, engine_out->relation());
  return semi->Sorted();
}

TEST(StrategyEquivalence, TransitiveClosureChain) {
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(24);
  Relation q(2);
  for (int i = 0; i < 24; ++i) q.Insert({i, i});
  auto sorted = ExpectAllStrategiesAgree({LR("p(X,Y) :- p(X,Z), e(Z,Y).")},
                                         std::move(db), q);
  EXPECT_EQ(sorted.size(), 24u * 25u / 2u);
}

TEST(StrategyEquivalence, TransitiveClosureGrid) {
  Database db;
  db.GetOrCreate("e", 2) = GridGraph(5, 5);
  Relation q(2);
  for (int i = 0; i < 25; ++i) q.Insert({i, i});
  ExpectAllStrategiesAgree({LR("p(X,Y) :- p(X,Z), e(Z,Y).")}, std::move(db),
                           q);
}

TEST(StrategyEquivalence, TransitiveClosureRandom) {
  Database db;
  db.GetOrCreate("e", 2) = RandomGraph(60, 150, /*seed=*/7);
  Relation q(2);
  for (int i = 0; i < 60; i += 3) q.Insert({i, i});
  ExpectAllStrategiesAgree({LR("p(X,Y) :- p(X,Z), e(Z,Y).")}, std::move(db),
                           q);
}

TEST(StrategyEquivalence, SameGenerationDecomposedEqualsDirect) {
  SameGenerationWorkload w =
      MakeSameGeneration(/*layers=*/4, /*width=*/10, /*fanout=*/2,
                         /*seed=*/42);
  std::vector<LinearRule> rules = SameGenerationRules();

  auto direct = SemiNaiveClosure(rules, w.db, w.q);
  ASSERT_TRUE(direct.ok()) << direct.status();

  // The two rules commute, so each may form its own group (Theorem 3.1).
  std::vector<std::vector<LinearRule>> groups = {{rules[0]}, {rules[1]}};
  auto decomposed = DecomposedClosure(groups, w.db, w.q);
  ASSERT_TRUE(decomposed.ok()) << decomposed.status();
  EXPECT_EQ(*direct, *decomposed);
}

TEST(StrategyEquivalence, DecomposedThreeGroups) {
  // Three mutually commuting chase operators over disjoint columns-by-value
  // ranges: each rule advances along its own edge relation. All groups
  // commute pairwise, so any product order must equal the direct closure.
  Database db;
  db.GetOrCreate("e1", 2) = ChainGraph(8);
  Relation shifted(2);
  for (TupleView t : ChainGraph(8)) shifted.Insert({t[0] + 100, t[1] + 100});
  db.GetOrCreate("e2", 2) = shifted;
  Relation far(2);
  for (TupleView t : ChainGraph(8)) far.Insert({t[0] + 200, t[1] + 200});
  db.GetOrCreate("e3", 2) = far;

  std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e1(Z,Y)."),
                                   LR("p(X,Y) :- p(X,Z), e2(Z,Y)."),
                                   LR("p(X,Y) :- p(X,Z), e3(Z,Y).")};
  Relation q(2);
  q.Insert({0, 0});
  q.Insert({0, 100});
  q.Insert({0, 200});

  auto direct = SemiNaiveClosure(rules, db, q);
  ASSERT_TRUE(direct.ok()) << direct.status();

  std::vector<std::vector<LinearRule>> groups = {{rules[0]}, {rules[1]},
                                                 {rules[2]}};
  auto out = DecomposedClosure(groups, db, q);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*direct, *out);
}

// --- Worker-count parity --------------------------------------------------
//
// EngineOptions::parallel_workers sizes only the slots of a batch; each
// query, and every round of its closure, runs serially. So at every worker
// count each strategy must return the same rows in the same order — the
// bytes a linrecd reply streams — not merely the same set, whether the
// query runs alone or in a batch beside copies of itself. Helper threads
// are forced on, so the batch really fans out even on a single-core host.

constexpr int kWorkerCounts[] = {1, 2, 8};

/// The rows of `r` in iteration order.
std::vector<Tuple> RowsInOrder(const Relation& r) {
  std::vector<Tuple> rows;
  rows.reserve(r.size());
  for (TupleView t : r) rows.push_back(t.ToTuple());
  return rows;
}

/// Executes `query` from `seed` (with σ value `sigma` when the query
/// declares a σ position) on a fresh engine over `db` at every worker
/// count — once alone, then as each slot of a batch of three copies —
/// expecting the planned `strategy` and, for every result relation, the
/// 1-worker rows in the 1-worker order with the 1-worker derivation count.
void ExpectWorkerCountParity(const Database& db, const Query& query,
                             const Relation& seed, Strategy strategy,
                             std::optional<Value> sigma = std::nullopt) {
  RealThreads threads;
  std::vector<std::vector<Tuple>> reference;
  std::size_t reference_derivations = 0;
  auto expect_reference = [&](const QueryResult& out, const char* how,
                              int workers) {
    std::vector<std::vector<Tuple>> rows;
    for (const Relation& r : out.relations) rows.push_back(RowsInOrder(r));
    ASSERT_FALSE(rows.empty());
    ASSERT_FALSE(rows.front().empty());
    if (reference.empty()) {
      reference = std::move(rows);
      reference_derivations = out.stats.derivations;
      return;
    }
    EXPECT_EQ(rows, reference) << how << ", workers=" << workers;
    EXPECT_EQ(out.stats.derivations, reference_derivations)
        << how << ", workers=" << workers;
  };
  for (int workers : kWorkerCounts) {
    EngineOptions options;
    options.parallel_workers = workers;
    Engine engine(db, options);
    auto prepared = engine.Prepare(query);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    EXPECT_EQ(prepared->plan().strategy, strategy)
        << prepared->plan().Explain();
    BoundQuery bound =
        sigma.has_value() ? prepared->Bind(*sigma) : prepared->Bind();
    bound.BindSeed(seed);
    auto out = engine.Execute(bound);
    ASSERT_TRUE(out.ok()) << out.status();
    expect_reference(*out, "alone", workers);
    auto batch = engine.ExecuteBatch({bound, bound, bound});
    ASSERT_TRUE(batch.ok()) << batch.status();
    for (const QueryResult& slot : *batch) {
      expect_reference(slot, "batch slot", workers);
    }
  }
}

Relation SelfLoops(int n, int step) {
  Relation q(2);
  for (int i = 0; i < n; i += step) q.Insert({i, i});
  return q;
}

TEST(WorkerCountParity, SemiNaive) {
  Database db;
  db.GetOrCreate("e", 2) = RandomGraph(200, 600, /*seed=*/7);
  ExpectWorkerCountParity(db,
                          Query::Closure({LR("p(X,Y) :- p(X,Z), e(Z,Y).")}),
                          SelfLoops(200, 4), Strategy::kSemiNaive);
}

TEST(WorkerCountParity, Naive) {
  Database db;
  db.GetOrCreate("e", 2) = RandomGraph(120, 360, /*seed=*/3);
  ExpectWorkerCountParity(db,
                          Query::Closure({LR("p(X,Y) :- p(X,Z), e(Z,Y).")})
                              .Force(Strategy::kNaive),
                          SelfLoops(120, 6), Strategy::kNaive);
}

TEST(WorkerCountParity, PowerSum) {
  // A² ⊆ A (the g(Y) guard re-applied adds nothing), so the planner
  // closes with one power: q plus every (x, g) pair of its sources.
  Database db;
  Relation& g = db.GetOrCreate("g", 1);
  for (Value v = 0; v < 20; ++v) g.Insert({v});
  ExpectWorkerCountParity(db, Query::Closure({LR("p(X,Y) :- p(X,Z), g(Y).")}),
                          SelfLoops(300, 1), Strategy::kPowerSum);
}

TEST(WorkerCountParity, Decomposed) {
  SameGenerationWorkload w =
      MakeSameGeneration(/*layers=*/5, /*width=*/24, /*fanout=*/2,
                         /*seed=*/99);
  ExpectWorkerCountParity(w.db, Query::Closure(SameGenerationRules()), w.q,
                          Strategy::kDecomposed);
}

TEST(WorkerCountParity, Separable) {
  // σ on the down-persistent column: A = {down} outside, B = {up} inside
  // (Theorem 4.1). The seed pairs every top-layer node with every other,
  // and σ picks a child of node 0, so B* q holds that child paired with
  // the whole top layer and both phases run rounds of hundreds of Δ rows.
  const int width = 260;
  SameGenerationWorkload w =
      MakeSameGeneration(/*layers=*/3, width, /*fanout=*/2, /*seed=*/99);
  Relation q(2);
  for (Value u = 0; u < width; ++u) {
    for (Value y = 0; y < width; ++y) q.Insert({u, y});
  }
  const Value child = w.db.Find("down")->WhereEquals(0, 0).Row(0)[1];
  ExpectWorkerCountParity(
      w.db, Query::Closure(SameGenerationRules()).SelectPosition(0), q,
      Strategy::kSeparable, child);
}

// The joint case is JointFixpointTest.EngineRowsIndependentOfWorkerCount.

TEST(WorkerCountParity, IvmApplyRetractSequence) {
  // A maintained tc view through inserts and deletes of edges: after every
  // step the view holds the same rows in the same order at every worker
  // count, and each step reports the same counts.
  RealThreads threads;
  const Relation edges = RandomGraph(160, 360, /*seed=*/13);
  Relation base(2), extra(2);
  std::size_t i = 0;
  for (TupleView t : edges) (i++ % 4 == 0 ? extra : base).Insert(t);

  auto run = [&](int workers) {
    std::vector<std::vector<Tuple>> steps;
    EngineOptions options;
    options.parallel_workers = workers;
    Database db;
    db.GetOrCreate("e", 2) = base;
    Engine engine(std::move(db), options);
    auto prepared =
        engine.Prepare(Query::Closure({LR("p(X,Y) :- p(X,Z), e(Z,Y).")}));
    EXPECT_TRUE(prepared.ok()) << prepared.status();
    auto view =
        engine.Materialize(prepared->Bind().BindSeed(SelfLoops(160, 2)),
                           {"tc"});
    EXPECT_TRUE(view.ok()) << view.status();
    steps.push_back(RowsInOrder(*engine.db().Find("tc")));
    for (int step = 0; step < 3; ++step) {
      Relation batch(2);
      std::size_t j = 0;
      for (TupleView t : extra) {
        if (j++ % 3 == static_cast<std::size_t>(step)) batch.Insert(t);
      }
      DeltaInsert insert;
      insert.param_inserts.emplace("e", batch);
      auto applied = engine.Apply(*view, insert);
      EXPECT_TRUE(applied.ok()) << applied.status();
      steps.push_back(RowsInOrder(*engine.db().Find("tc")));
      steps.push_back({Tuple({static_cast<Value>(applied->added)})});

      Relation dropped(2);
      std::size_t k = 0;
      for (TupleView t : base) {
        if (k++ % 7 == static_cast<std::size_t>(step)) dropped.Insert(t);
      }
      DeltaDelete erase;
      erase.param_deletes.emplace("e", dropped);
      auto retracted = engine.Retract(*view, erase);
      EXPECT_TRUE(retracted.ok()) << retracted.status();
      steps.push_back(RowsInOrder(*engine.db().Find("tc")));
      steps.push_back({Tuple({static_cast<Value>(retracted->removed_count),
                              static_cast<Value>(retracted->rederived)})});
    }
    return steps;
  };

  const std::vector<std::vector<Tuple>> reference = run(kWorkerCounts[0]);
  ASSERT_GT(reference.front().size(), 1000u);
  for (int workers : kWorkerCounts) {
    EXPECT_EQ(run(workers), reference) << "workers=" << workers;
  }
}

TEST(StrategyEquivalence, SemiNaiveExtendMatchesFromScratch) {
  // Extending a closed part by extra seeds appended past it must equal
  // closing the union from scratch.
  Database db;
  db.GetOrCreate("e", 2) = ChainGraph(16);
  std::vector<LinearRule> rules = {LR("p(X,Y) :- p(X,Z), e(Z,Y).")};

  Relation q1(2);
  q1.Insert({0, 0});
  auto closed = SemiNaiveClosure(rules, db, q1);
  ASSERT_TRUE(closed.ok()) << closed.status();

  Relation extra(2);
  extra.Insert({5, 5});
  extra.Insert({0, 3});  // already derivable: must not disturb anything

  Relation both = q1;
  both.UnionWith(extra);
  auto scratch = SemiNaiveClosure(rules, db, both);
  ASSERT_TRUE(scratch.ok()) << scratch.status();

  Relation extended = *closed;
  extended.UnionWith(extra);
  Status status = SemiNaiveExtend(rules, db, &extended,
                                  static_cast<RowId>(closed->size()));
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(*scratch, extended);
}

}  // namespace
}  // namespace linrec
