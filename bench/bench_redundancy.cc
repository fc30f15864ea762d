// E4 — Theorems 4.2/6.4: with a recursively redundant C, the closure can be
// computed applying C's predicates a bounded number of times on small
// prefix sets; the unbounded tail applies only B. Workload: the fan-out
// variant of Example 6.1,
//
//   buys(X,Y) :- knows(X,Z), buys(Z,Y), endorses(W,Y).
//
// `endorses` (the redundant predicate) has `fanout` matches per item, so
// the direct closure pays fanout-many duplicate derivations per iteration;
// the redundancy-aware closure pays them once. Driven through
// linrec::Engine: automatic planning finds the bounded bridge and elides
// the predicate (plan->factorization); the baseline forces semi-naive.

#include <benchmark/benchmark.h>

#include "datalog/parser.h"
#include "engine/engine.h"
#include "workload/databases.h"

namespace linrec {
namespace {

constexpr const char* kRule =
    "buys(X,Y) :- knows(X,Z), buys(Z,Y), endorses(W,Y).";

EndorsedBuysWorkload MakeWorkload(int people, int fanout) {
  return MakeEndorsedBuys(people, /*items=*/people / 4, fanout,
                          /*initial_buys=*/people / 4, /*seed=*/3);
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
  state.counters["result"] = static_cast<double>(engine.stats().result_size);
}

void BM_Direct_FanoutSweep(benchmark::State& state) {
  auto rule = ParseLinearRule(kRule);
  EndorsedBuysWorkload w =
      MakeWorkload(200, static_cast<int>(state.range(0)));
  Engine engine(std::move(w.db));
  auto prepared = engine.Prepare(
      Query::Closure({*rule}).Force(Strategy::kSemiNaive));
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  RunBound(state, prepared->Bind().BindSeed(w.q), engine);
}

void BM_RedundancyAware_FanoutSweep(benchmark::State& state) {
  auto rule = ParseLinearRule(kRule);
  EndorsedBuysWorkload w =
      MakeWorkload(200, static_cast<int>(state.range(0)));
  Engine engine(std::move(w.db));
  auto prepared = engine.Prepare(Query::Closure({*rule}));
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  if (!prepared->plan().factorization.has_value()) {
    state.SkipWithError("planner did not elide the redundant predicate");
    return;
  }
  RunBound(state, prepared->Bind().BindSeed(w.q), engine);
  state.counters["commuting_path"] =
      prepared->plan().factorization->commuting ? 1 : 0;
}

void BM_Direct_DepthSweep(benchmark::State& state) {
  auto rule = ParseLinearRule(kRule);
  EndorsedBuysWorkload w =
      MakeWorkload(static_cast<int>(state.range(0)), /*fanout=*/8);
  Engine engine(std::move(w.db));
  auto prepared = engine.Prepare(
      Query::Closure({*rule}).Force(Strategy::kSemiNaive));
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  BoundQuery bound = prepared->Bind().BindSeed(w.q);
  for (auto _ : state) {
    auto out = engine.Execute(bound);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}

void BM_RedundancyAware_DepthSweep(benchmark::State& state) {
  auto rule = ParseLinearRule(kRule);
  EndorsedBuysWorkload w =
      MakeWorkload(static_cast<int>(state.range(0)), /*fanout=*/8);
  Engine engine(std::move(w.db));
  auto prepared = engine.Prepare(Query::Closure({*rule}));
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  BoundQuery bound = prepared->Bind().BindSeed(w.q);
  for (auto _ : state) {
    auto out = engine.Execute(bound);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}

void BM_ColdRedundancyPlan(benchmark::State& state) {
  // One-off planning cost from a cold cache: Theorem 6.3 bridge analysis,
  // the torsion search, and the Lemma 6.3-6.5 factorization.
  auto rule = ParseLinearRule(kRule);
  for (auto _ : state) {
    Engine engine;
    auto prepared = engine.Prepare(Query::Closure({*rule}));
    if (!prepared.ok()) {
      state.SkipWithError(prepared.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(prepared);
  }
}

BENCHMARK(BM_Direct_FanoutSweep)->Arg(1)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RedundancyAware_FanoutSweep)->Arg(1)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Direct_DepthSweep)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RedundancyAware_DepthSweep)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdRedundancyPlan)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace linrec

BENCHMARK_MAIN();
