// E3 — Theorem 4.1 / Algorithm 4.1: for commuting operators and a
// commuting selection, σ(A1+A2)* can be computed as A1*(A2*(σq)) with the
// selection pushed to the initial relation. The win grows with the domain
// size (the full closure touches everything; the pushed-down one only the
// selected cone) and shrinks as selectivity approaches 1. Driven through
// linrec::Engine: the planner detects the 1-persistent selected column and
// compiles kSeparable by itself; the baseline forces semi-naive, which
// filters the final closure.

#include <benchmark/benchmark.h>

#include "datalog/parser.h"
#include "engine/engine.h"
#include "workload/databases.h"

namespace linrec {
namespace {

struct Fixture {
  SameGenerationWorkload w;
  Selection sigma;
};

Fixture MakeFixture(int width) {
  Fixture f{MakeSameGeneration(/*layers=*/6, width, /*fanout=*/2,
                               /*seed=*/5),
            {}};
  // Select one seed node on position 0 (1-persistent in the down rule).
  f.sigma = Selection{0, f.w.q.Sorted().front()[0]};
  return f;
}

void RunBound(benchmark::State& state, const BoundQuery& bound,
              Engine& engine) {
  for (auto _ : state) {
    engine.ResetStats();
    auto out = engine.Execute(bound);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
  state.counters["derivations"] =
      static_cast<double>(engine.stats().derivations);
}

void BM_ClosureThenSelect(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<int>(state.range(0)));
  Engine engine(std::move(f.w.db));
  auto prepared = engine.Prepare(Query::Closure(SameGenerationRules())
                                     .SelectPosition(f.sigma.position)
                                     .Force(Strategy::kSemiNaive));
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  RunBound(state, prepared->Bind(f.sigma.value).BindSeed(f.w.q), engine);
}

void BM_SeparableAlgorithm(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<int>(state.range(0)));
  Engine engine(std::move(f.w.db));
  auto prepared = engine.Prepare(Query::Closure(SameGenerationRules())
                                     .SelectPosition(f.sigma.position));
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  if (prepared->plan().strategy != Strategy::kSeparable) {
    state.SkipWithError("planner did not choose kSeparable");
    return;
  }
  RunBound(state, prepared->Bind(f.sigma.value).BindSeed(f.w.q), engine);
}

// Selectivity sweep: fraction of seed nodes matching σ, emulated by seeding
// q with `range(0)` copies of the selected head value.
void BM_SeparableSelectivity(benchmark::State& state) {
  int width = 32;
  int matching = static_cast<int>(state.range(0));
  SameGenerationWorkload w = MakeSameGeneration(6, width, 2, 7);
  // Rewrite q so `matching` of the seeds share the selected key.
  Relation q(2);
  Value key = 1'000'000;
  int i = 0;
  for (const Tuple& t : w.q.Sorted()) {
    q.Insert({i < matching ? key : t[0], t[1]});
    ++i;
  }
  Engine engine(std::move(w.db));
  auto prepared = engine.Prepare(
      Query::Closure(SameGenerationRules()).SelectPosition(0));
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  BoundQuery bound = prepared->Bind(key).BindSeed(q);
  for (auto _ : state) {
    auto out = engine.Execute(bound);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
  state.counters["matching_seeds"] = matching;
}

BENCHMARK(BM_ClosureThenSelect)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SeparableAlgorithm)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SeparableSelectivity)->Arg(1)->Arg(4)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace linrec

BENCHMARK_MAIN();
