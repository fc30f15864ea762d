// E2 — Section 3.1: the decomposed computation B*C* is cheaper in wall time
// than the direct (B+C)*, with the gap growing with data size. Driven
// through linrec::Engine: the planner discovers the split by itself
// (Prepare() picks kDecomposed from the cached commutativity matrix), and the
// compiled plan is reused across iterations.

#include <benchmark/benchmark.h>

#include "datalog/parser.h"
#include "engine/engine.h"
#include "workload/databases.h"

namespace linrec {
namespace {

SameGenerationWorkload MakeWorkload(int width) {
  return MakeSameGeneration(/*layers=*/6, width, /*fanout=*/2, /*seed=*/99);
}

void BM_Direct(benchmark::State& state) {
  SameGenerationWorkload w = MakeWorkload(static_cast<int>(state.range(0)));
  Engine engine(std::move(w.db));
  auto prepared = engine.Prepare(
      Query::Closure(SameGenerationRules()).Force(Strategy::kSemiNaive));
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  BoundQuery bound = prepared->Bind().BindSeed(w.q);
  std::size_t result = 0;
  for (auto _ : state) {
    auto out = engine.Execute(bound);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    result = out->relation().size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["result"] = static_cast<double>(result);
}

void BM_Decomposed(benchmark::State& state) {
  SameGenerationWorkload w = MakeWorkload(static_cast<int>(state.range(0)));
  Engine engine(std::move(w.db));
  // Automatic planning: the analysis finds the commuting split.
  auto prepared = engine.Prepare(Query::Closure(SameGenerationRules()));
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  if (prepared->plan().strategy != Strategy::kDecomposed) {
    state.SkipWithError("planner did not choose kDecomposed");
    return;
  }
  BoundQuery bound = prepared->Bind().BindSeed(w.q);
  std::size_t result = 0;
  for (auto _ : state) {
    auto out = engine.Execute(bound);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    result = out->relation().size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["result"] = static_cast<double>(result);
}

void BM_PlannedEndToEnd(benchmark::State& state) {
  // Prepare + Bind + Execute each iteration (the seed is shared, not
  // copied). After the first iteration the structural digest hits the plan
  // cache, so this measures the warm re-preparation overhead the facade
  // adds per query.
  SameGenerationWorkload w = MakeWorkload(static_cast<int>(state.range(0)));
  Engine engine(std::move(w.db));
  Query query = Query::Closure(SameGenerationRules());
  auto seed = std::make_shared<const Relation>(std::move(w.q));
  for (auto _ : state) {
    auto prepared = engine.Prepare(query);
    if (!prepared.ok()) {
      state.SkipWithError(prepared.status().ToString().c_str());
      break;
    }
    auto out = engine.Execute(prepared->Bind().BindSeed(seed));
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
  state.counters["pair_cache"] =
      static_cast<double>(engine.analysis_cache().pair_entries());
}

void BM_ColdPlan(benchmark::State& state) {
  // Planning only, from a cold cache: the pairwise syntactic tests plus
  // boundedness/redundancy probes. The one-off cost the engine pays before
  // its first execution of a rule set.
  std::vector<LinearRule> rules = SameGenerationRules();
  for (auto _ : state) {
    Engine engine;
    auto prepared = engine.Prepare(Query::Closure(rules));
    if (!prepared.ok()) {
      state.SkipWithError(prepared.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(prepared);
  }
}

BENCHMARK(BM_Direct)->Arg(8)->Arg(16)->Arg(32)->Arg(48)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Decomposed)->Arg(8)->Arg(16)->Arg(32)->Arg(48)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlannedEndToEnd)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdPlan)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace linrec

BENCHMARK_MAIN();
