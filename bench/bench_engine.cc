// bench_engine — the repo's perf trajectory harness.
//
// Self-contained driver (no google-benchmark dependency): runs a fixed
// strategy × workload matrix through linrec::Engine, times each cell, and
// writes machine-readable results to BENCH_engine.json (path overridable
// via argv[1]). CI runs this in Release mode, uploads the JSON as an
// artifact, and diffs it against the previous push's artifact
// (bench/bench_diff.py), so every commit leaves a comparable perf record
// and large regressions fail the build.
//
// The figure of merit is derivations/sec: Theorem 3.1 counts work in tuple
// derivations, so throughput in derivations normalizes across strategies
// that do different amounts of total work. Each row records the worker
// count it ran with; the `meta` block records the host (hardware threads,
// compiler, git sha) so cross-machine comparisons are interpretable —
// worker counts above `hardware_concurrency` exercise the parallel
// machinery without adding real parallelism.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/memory.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "eval/apply.h"
#include "eval/index_cache.h"
#include "eval/stats.h"
#include "server/server.h"
#include "workload/databases.h"
#include "workload/graphs.h"
#include "workload/rulegen.h"

namespace linrec {
namespace {

struct BenchResult {
  std::string workload;
  std::string strategy;
  int n = 0;
  int workers = 0;
  int reps = 0;
  double wall_ms_mean = 0.0;
  double wall_ms_min = 0.0;
  std::size_t derivations = 0;  // per repetition
  double derivations_per_sec = 0.0;
  std::size_t result_size = 0;
  /// Measured same-binary run-to-run spread where it exceeds the default
  /// regression gate (fractional drop; 0 = workload is quieter than the
  /// gate). bench_diff.py widens the row's threshold to this value, so a
  /// noisy workload's own variance never reads as a regression.
  double noise_margin = 0.0;
};

LinearRule TC(const char* edge) {
  std::string text = std::string("p(X,Y) :- p(X,Z), ") + edge + "(Z,Y).";
  return *ParseLinearRule(text);
}

/// Times `r->reps` calls of `once` (after one untimed warmup) and fills
/// the row's timing fields. `once` executes the query, fills
/// r->derivations / r->result_size, and returns wall milliseconds.
void TimeInto(BenchResult* r, const std::function<double()>& once) {
  once();  // warmup: builds parameter-relation indexes, touches the pages
  double total = 0.0;
  double best = 1e300;
  for (int i = 0; i < r->reps; ++i) {
    double ms = once();
    total += ms;
    best = std::min(best, ms);
  }
  r->wall_ms_mean = total / r->reps;
  r->wall_ms_min = best;
  r->derivations_per_sec =
      r->wall_ms_mean > 0.0
          ? static_cast<double>(r->derivations) / (r->wall_ms_mean / 1000.0)
          : 0.0;
}

/// Times `reps` executions of `bound` and fills a BenchResult row. Each
/// repetition resets the engine stats so `derivations` is per-execution.
BenchResult Run(const std::string& workload, const std::string& strategy,
                int n, Engine& engine, const BoundQuery& bound, int workers,
                int reps) {
  BenchResult r;
  r.workload = workload;
  r.strategy = strategy;
  r.n = n;
  r.workers = workers;
  r.reps = reps;
  TimeInto(&r, [&]() -> double {
    engine.ResetStats();
    auto start = std::chrono::steady_clock::now();
    Result<QueryResult> out = engine.Execute(bound);
    auto end = std::chrono::steady_clock::now();
    if (!out.ok()) {
      std::fprintf(stderr, "FATAL %s/%s: %s\n", workload.c_str(),
                   strategy.c_str(), out.status().ToString().c_str());
      std::exit(1);
    }
    r.derivations = engine.stats().derivations;
    r.result_size = out->relation().size();
    return std::chrono::duration<double, std::milli>(end - start).count();
  });
  return r;
}

/// Prepares `query` and times `reps` executions of it from `seed`.
BenchResult RunQuery(const std::string& workload, int n, Engine& engine,
                     const Query& query, Relation seed, int reps) {
  Result<PreparedQuery> prepared = engine.Prepare(query);
  if (!prepared.ok()) {
    std::fprintf(stderr, "FATAL planning %s: %s\n", workload.c_str(),
                 prepared.status().ToString().c_str());
    std::exit(1);
  }
  BoundQuery bound = prepared->Bind();
  bound.BindSeed(std::move(seed));
  return Run(workload, StrategyName(prepared->plan().strategy), n, engine,
             bound, prepared->plan().parallel_workers, reps);
}

/// Seed relation {(i,i) : i ∈ 0..n-1 step `stride`}.
Relation SelfLoops(int n, int stride) {
  Relation q(2);
  for (int i = 0; i < n; i += stride) q.Insert({i, i});
  return q;
}

/// Best-effort git revision: CI exports GITHUB_SHA; local runs shell out.
std::string GitSha() {
  if (const char* sha = std::getenv("GITHUB_SHA")) return sha;
  std::string out;
  if (std::FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, p) != nullptr) {
      out = buf;
      while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
        out.pop_back();
      }
    }
    ::pclose(p);
  }
  return out.empty() ? "unknown" : out;
}

std::string Compiler() {
#if defined(__clang_version__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void WriteJson(const std::vector<BenchResult>& results, const char* path,
               std::size_t plan_cache_hits, std::size_t plan_cache_misses) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open %s for writing\n", path);
    std::exit(1);
  }
  // Plan-cache hit rate of the one-shot σ-sweep: N distinct selection
  // constants over one structure must be (N-1)/N hits — the digest
  // excludes the σ value. bench_diff.py gates an absolute drop, so a
  // planner change that re-keys plans on the value fails CI.
  const std::size_t lookups = plan_cache_hits + plan_cache_misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(plan_cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  std::fprintf(f, "{\n  \"schema\": \"linrec-bench-engine/v3\",\n");
  // single_core_host: on a 1-thread host every workers>1 row measures the
  // parallel machinery's overhead, not scaling — bench_diff.py skips those
  // comparisons when either side sets this.
  std::fprintf(f,
               "  \"meta\": {\"git_sha\": \"%s\", "
               "\"default_parallel_workers\": %d, "
               "\"hardware_concurrency\": %u, "
               "\"single_core_host\": %s, \"compiler\": \"%s\", "
               "\"plan_cache_hits\": %zu, \"plan_cache_misses\": %zu, "
               "\"plan_cache_hit_rate\": %.4f},\n",
               GitSha().c_str(), ResolveWorkers(0),
               std::thread::hardware_concurrency(),
               std::thread::hardware_concurrency() <= 1 ? "true" : "false",
               Compiler().c_str(), plan_cache_hits, plan_cache_misses,
               hit_rate);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"strategy\": \"%s\", \"n\": %d, "
        "\"workers\": %d, \"reps\": %d, \"wall_ms_mean\": %.3f, "
        "\"wall_ms_min\": %.3f, \"derivations\": %zu, "
        "\"derivations_per_sec\": %.1f, \"result_size\": %zu, "
        "\"noise_margin\": %.2f}%s\n",
        r.workload.c_str(), r.strategy.c_str(), r.n, r.workers, r.reps,
        r.wall_ms_mean, r.wall_ms_min, r.derivations, r.derivations_per_sec,
        r.result_size, r.noise_margin, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  std::vector<BenchResult> results;

  // --- Transitive closure over a chain: deep recursion, no duplicates. ---
  // Worker sweep: the same query at 1, 4 and 8 workers. A single-rule
  // (one-group) plan runs serial rounds at every count, so the workers>1
  // rows must match the workers=1 row.
  {
    const int n = 512;
    for (int workers : {1, 4, 8}) {
      Database db;
      db.GetOrCreate("e", 2) = ChainGraph(n);
      EngineOptions options;
      options.parallel_workers = workers;
      Engine engine(std::move(db), options);
      results.push_back(RunQuery("tc_chain", n, engine,
                                 Query::Closure({TC("e")}), SelfLoops(n, 1),
                                 3));
    }
    // Naive is O(rounds × full relation): keep it small.
    Database db2;
    db2.GetOrCreate("e", 2) = ChainGraph(96);
    EngineOptions serial;
    serial.parallel_workers = 1;
    Engine engine2(std::move(db2), serial);
    Query naive_small = Query::Closure({TC("e")}).Force(Strategy::kNaive);
    results.push_back(
        RunQuery("tc_chain", 96, engine2, naive_small, SelfLoops(96, 1), 3));
  }

  // --- Governed transitive closure: tc_chain with a (never-denying)
  // memory budget attached, so the row-by-row diff against tc_chain — and
  // the bench_diff gate once this row has a baseline — bounds the cost of
  // budget accounting. Charging happens only at pool-growth/rehash sites,
  // so the expected overhead is noise-level. ---
  {
    const int n = 512;
    for (int workers : {1, 4, 8}) {
      Database db;
      db.GetOrCreate("e", 2) = ChainGraph(n);
      EngineOptions options;
      options.parallel_workers = workers;
      Engine engine(std::move(db), options);
      Result<PreparedQuery> prepared =
          engine.Prepare(Query::Closure({TC("e")}));
      if (!prepared.ok()) {
        std::fprintf(stderr, "FATAL planning governed_tc_chain: %s\n",
                     prepared.status().ToString().c_str());
        std::exit(1);
      }
      MemoryBudget global(/*limit_bytes=*/std::size_t{1} << 40);
      QueryBudget budget(/*limit_bytes=*/std::size_t{1} << 40, &global);
      BoundQuery bound =
          prepared->Bind().BindSeed(SelfLoops(n, 1)).WithBudget(&budget);
      results.push_back(Run("governed_tc_chain",
                            StrategyName(prepared->plan().strategy), n,
                            engine, bound,
                            prepared->plan().parallel_workers, 3));
    }
  }

  // --- Transitive closure over a random sparse graph. ---
  {
    const int n = 1024;
    for (int workers : {1, 4, 8}) {
      Database db;
      db.GetOrCreate("e", 2) = RandomGraph(n, n * 3, /*seed=*/17);
      EngineOptions options;
      options.parallel_workers = workers;
      Engine engine(std::move(db), options);
      results.push_back(RunQuery("tc_random", n, engine,
                                 Query::Closure({TC("e")}), SelfLoops(n, 8),
                                 3));
      // The random-graph closure is the suite's noisiest workload:
      // identical binaries have measured 0.54-1.0x run to run (dedup-heavy
      // rounds, allocator- and cache-layout-sensitive). Let the diff gate
      // at the measured spread instead of crying wolf at the default 20%.
      results.back().noise_margin = 0.50;
    }
  }

  // --- Transitive closure over a grid: duplicate derivations dominate. ---
  {
    const int side = 14;
    Database db;
    db.GetOrCreate("e", 2) = GridGraph(side, side);
    EngineOptions serial;
    serial.parallel_workers = 1;
    Engine engine(std::move(db), serial);
    results.push_back(RunQuery("tc_grid", side, engine,
                               Query::Closure({TC("e")}),
                               SelfLoops(side * side, 1), 3));
  }

  // --- Mutual recursion: alternating-edge reachability, the joint SCC
  // fixpoint (one Δ row-range per member predicate). ---
  {
    const int nodes = 96;
    Result<JointWorkload> w =
        MakeAlternatingReachability(nodes, nodes * 4, /*seed=*/29);
    if (!w.ok()) {
      std::fprintf(stderr, "FATAL mutual workload: %s\n",
                   w.status().ToString().c_str());
      std::exit(1);
    }
    EngineOptions serial;
    serial.parallel_workers = 1;
    Engine engine(std::move(w->db), serial);
    Result<PreparedQuery> prepared =
        engine.Prepare(Query::JointClosure(w->members, w->rules));
    if (!prepared.ok()) {
      std::fprintf(stderr, "FATAL planning mutual_alt_reach: %s\n",
                   prepared.status().ToString().c_str());
      std::exit(1);
    }
    BoundQuery bound = prepared->Bind().BindSeeds(w->seeds);
    BenchResult r;
    r.workload = "mutual_alt_reach";
    r.strategy = StrategyName(prepared->plan().strategy);
    r.n = nodes;
    r.workers = prepared->plan().parallel_workers;
    r.reps = 3;
    TimeInto(&r, [&]() -> double {
      engine.ResetStats();
      auto start = std::chrono::steady_clock::now();
      Result<QueryResult> out = engine.Execute(bound);
      auto end = std::chrono::steady_clock::now();
      if (!out.ok()) {
        std::fprintf(stderr, "FATAL mutual_alt_reach: %s\n",
                     out.status().ToString().c_str());
        std::exit(1);
      }
      r.derivations = engine.stats().derivations;
      r.result_size = 0;
      for (const Relation& rel : out->relations) r.result_size += rel.size();
      return std::chrono::duration<double, std::milli>(end - start).count();
    });
    results.push_back(r);
  }

  // --- Same-generation pair: the planner decomposes into B*C* (Thm 3.1). ---
  {
    const int width = 48;
    SameGenerationWorkload w =
        MakeSameGeneration(/*layers=*/6, width, /*fanout=*/2, /*seed=*/99);
    EngineOptions serial;
    serial.parallel_workers = 1;
    Engine engine(std::move(w.db), serial);
    results.push_back(RunQuery("same_gen_decomposed", width, engine,
                               Query::Closure(SameGenerationRules()), w.q,
                               3));
    Query direct =
        Query::Closure(SameGenerationRules()).Force(Strategy::kSemiNaive);
    results.push_back(
        RunQuery("same_gen_direct", width, engine, direct, w.q, 3));
  }

  // --- The full serving path: LOAD + query through the linrecd front
  // door (src/server). Every rep is a fresh session against one shared
  // Server, so after the first rep the program is a registry hit and the
  // closure a plan-cache hit — the row tracks the per-connection cost a
  // warmed server pays: parse, seed, closure, goal filter, and reply
  // formatting. Gated by bench_diff.py like every other workload. ---
  {
    const int n = 160;
    std::string program =
        "tc(X, Y) :- edge(X, Y).\n"
        "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n";
    for (int i = 1; i < n; ++i) {
      program += StrCat("edge(", i, ", ", i + 1, ").\n");
    }
    Server server;
    BenchResult r;
    r.workload = "server_tc_chain";
    r.strategy = "served";
    r.n = n;
    r.workers = 1;
    r.reps = 3;
    std::size_t result_rows = 0;
    TimeInto(&r, [&]() -> double {
      auto session = server.NewSession();
      std::vector<std::string> replies;
      auto start = std::chrono::steady_clock::now();
      server.HandleLine(*session, "LOAD", &replies);
      server.HandleLine(*session, program, &replies);
      server.HandleLine(*session, "END", &replies);
      server.SubmitQueryLines(*session, {"?- tc(X, Y)."}, &replies);
      auto end = std::chrono::steady_clock::now();
      if (replies.size() < 3 || replies[0].rfind("OK loaded", 0) != 0 ||
          replies[1].rfind("RESULT tc/2", 0) != 0) {
        std::fprintf(stderr, "FATAL server_tc_chain: %s\n",
                     replies.empty() ? "no reply" : replies.front().c_str());
        std::exit(1);
      }
      r.derivations = session->instance().derivations();
      result_rows = replies.size() - 3;  // minus OK, RESULT header, "."
      return std::chrono::duration<double, std::milli>(end - start).count();
    });
    r.result_size = result_rows;
    results.push_back(r);
  }

  // --- update_stream: incremental view maintenance vs recompute on a
  // live insert stream. One materialized tc closure over a random base
  // graph; kBatches batches of fresh edges arrive; the ivm_apply row
  // extends the view in place with Engine::Apply (delta rules + the
  // semi-naive resume), the recompute row re-executes the full closure
  // after every batch. derivations := maintained tuples — the rows the
  // stream added to the view, identical for both strategies by
  // construction — so derivations_per_sec is maintained-tuples/sec and
  // the ivm_apply : recompute ratio is the IVM speedup the acceptance
  // bar gates (>= 5x). Setup (engine, base materialization) is untimed:
  // the rows measure steady-state update cost only. ---
  {
    const int nodes = 192;
    const int kBatches = 8;
    const int kBatchEdges = 12;
    const Relation stream = RandomGraph(
        nodes, nodes * 3 + kBatches * kBatchEdges, /*seed=*/33);
    Relation base(2);
    std::vector<Relation> batches(kBatches, Relation(2));
    {
      const std::size_t base_count =
          stream.size() -
          static_cast<std::size_t>(kBatches) * kBatchEdges;
      std::size_t i = 0;
      for (TupleView t : stream) {
        if (i < base_count) {
          base.Insert(t);
        } else {
          batches[(i - base_count) / kBatchEdges].Insert(t);
        }
        ++i;
      }
    }
    const Relation seed = SelfLoops(nodes, 1);
    EngineOptions serial;
    serial.parallel_workers = 1;

    std::size_t maintained = 0;  // filled by ivm_apply, reused by recompute

    {
      BenchResult r;
      r.workload = "update_stream";
      r.strategy = "ivm_apply";
      r.n = nodes;
      r.workers = 1;
      r.reps = 5;
      std::size_t view_rows = 0;
      TimeInto(&r, [&]() -> double {
        Database db;
        db.GetOrCreate("e", 2) = base;
        Engine engine(std::move(db), serial);
        Result<PreparedQuery> prepared =
            engine.Prepare(Query::Closure({TC("e")}));
        if (!prepared.ok()) {
          std::fprintf(stderr, "FATAL planning update_stream: %s\n",
                       prepared.status().ToString().c_str());
          std::exit(1);
        }
        Result<MaterializedView> view =
            engine.Materialize(prepared->Bind().BindSeed(seed), {"tc"});
        if (!view.ok()) {
          std::fprintf(stderr, "FATAL materializing update_stream: %s\n",
                       view.status().ToString().c_str());
          std::exit(1);
        }
        std::size_t added = 0;
        auto start = std::chrono::steady_clock::now();
        for (const Relation& batch : batches) {
          DeltaInsert delta;
          delta.param_inserts.emplace("e", batch);
          Result<ApplyOutcome> out = engine.Apply(*view, delta);
          if (!out.ok()) {
            std::fprintf(stderr, "FATAL update_stream apply: %s\n",
                         out.status().ToString().c_str());
            std::exit(1);
          }
          added += out->added;
        }
        auto end = std::chrono::steady_clock::now();
        maintained = added;
        r.derivations = added;
        view_rows = engine.db().Find("tc")->size();
        return std::chrono::duration<double, std::milli>(end - start)
            .count();
      });
      r.result_size = view_rows;
      // Measured: ~5 ms walls on the single-core record host swing well
      // past the default 20% gate run-to-run (within-run mean/min spread
      // alone is ~30%); same widened margin as tc_random.
      r.noise_margin = 0.50;
      results.push_back(r);
    }

    {
      BenchResult r;
      r.workload = "update_stream";
      r.strategy = "recompute";
      r.n = nodes;
      r.workers = 1;
      r.reps = 3;
      std::size_t view_rows = 0;
      TimeInto(&r, [&]() -> double {
        Database db;
        db.GetOrCreate("e", 2) = base;
        Engine engine(std::move(db), serial);
        Result<PreparedQuery> prepared =
            engine.Prepare(Query::Closure({TC("e")}));
        if (!prepared.ok()) {
          std::fprintf(stderr, "FATAL planning update_stream: %s\n",
                       prepared.status().ToString().c_str());
          std::exit(1);
        }
        // The non-incremental consumer still pays the baseline closure
        // before the stream starts; keep it untimed like Materialize.
        Result<QueryResult> baseline =
            engine.Execute(prepared->Bind().BindSeed(seed));
        if (!baseline.ok()) {
          std::fprintf(stderr, "FATAL update_stream baseline: %s\n",
                       baseline.status().ToString().c_str());
          std::exit(1);
        }
        auto start = std::chrono::steady_clock::now();
        for (const Relation& batch : batches) {
          engine.db().FindMutable("e")->UnionWith(batch);
          Result<QueryResult> out =
              engine.Execute(prepared->Bind().BindSeed(seed));
          if (!out.ok()) {
            std::fprintf(stderr, "FATAL update_stream recompute: %s\n",
                         out.status().ToString().c_str());
            std::exit(1);
          }
          view_rows = out->relation().size();
        }
        auto end = std::chrono::steady_clock::now();
        r.derivations = maintained;
        return std::chrono::duration<double, std::milli>(end - start)
            .count();
      });
      r.result_size = view_rows;
      r.noise_margin = 0.50;
      results.push_back(r);
    }
  }

  // --- scan_sigma: the σ columnar scan (Relation::WhereEquals) in
  // isolation. Arity-2 pool, 1/64 selectivity so the strided column sweep
  // dominates the matched-row copies. derivations := rows the sweep
  // scanned, so derivations/sec is scan throughput. The row keeps its
  // historical "scalar" strategy name so bench_diff.py matches it against
  // earlier records.
  {
    const int n = 1 << 16;
    const int inner = 32;  // scans per timed repetition
    Relation rel(2);
    for (int i = 0; i < n; ++i) rel.Insert({i & 63, i});
    const Value needle = 7;
    BenchResult r;
    r.workload = "scan_sigma";
    r.strategy = "scalar";
    r.n = n;
    r.workers = 1;
    r.reps = 5;
    TimeInto(&r, [&]() -> double {
      auto start = std::chrono::steady_clock::now();
      std::size_t hits = 0;
      for (int it = 0; it < inner; ++it) {
        hits += rel.WhereEquals(0, needle).size();
      }
      auto end = std::chrono::steady_clock::now();
      r.derivations = static_cast<std::size_t>(n) * inner;
      r.result_size = hits / inner;
      return std::chrono::duration<double, std::milli>(end - start).count();
    });
    results.push_back(r);
  }

  // --- probe_chain: the join cursor's probe pipeline in isolation — one
  // semi-naive-style round (RunPartition over the full Δ) of
  // p(X,Y) :- p(X,Z), e(Z,Y) against a random graph, repeated on a warmed
  // CompiledRule + IndexCache with the output pool Clear()ed between
  // rounds (steady-state: zero allocations, all time in probes and
  // emits). derivations counts body matches, as everywhere else. ---
  {
    const int nodes = 4096;
    Database db;
    db.GetOrCreate("e", 2) = RandomGraph(nodes, nodes * 4, /*seed=*/7);
    Relation delta = RandomGraph(nodes, nodes * 4, /*seed=*/7);
    LinearRule lr = TC("e");
    ApplyOptions options;
    options.overrides[lr.recursive_atom_index()] = &delta;
    options.first_atom = lr.recursive_atom_index();
    Result<CompiledRule> compiled = CompileRule(lr.rule(), db, options);
    if (!compiled.ok()) {
      std::fprintf(stderr, "FATAL compiling probe_chain: %s\n",
                   compiled.status().ToString().c_str());
      std::exit(1);
    }
    IndexCache cache;
    Relation out(2);
    const int inner = 16;  // rounds per timed repetition
    BenchResult r;
    r.workload = "probe_chain";
    r.strategy = "kernel";
    r.n = nodes;
    r.workers = 1;
    r.reps = 5;
    TimeInto(&r, [&]() -> double {
      ClosureStats stats;
      auto start = std::chrono::steady_clock::now();
      for (int it = 0; it < inner; ++it) {
        out.Clear();
        Status s = compiled->RunPartition(
            delta.View(0, static_cast<RowId>(delta.size())), &out, &stats,
            &cache);
        if (!s.ok()) {
          std::fprintf(stderr, "FATAL probe_chain: %s\n",
                       s.ToString().c_str());
          std::exit(1);
        }
      }
      auto end = std::chrono::steady_clock::now();
      r.derivations = stats.derivations;
      r.result_size = out.size();
      return std::chrono::duration<double, std::milli>(end - start).count();
    });
    results.push_back(r);
  }

  // --- σ-sweep over one prepared plan: N selection constants against the
  // separable same-generation query. Three calling conventions on the same
  // work: the one-shot API (Prepare + Execute per constant — each a
  // plan-cache hit after the first, since the digest excludes the σ
  // value), the prepared API run serially (plan once, bind N times), and
  // the prepared API batched onto the shared worker pool (queries
  // concurrent, rounds serial, one shared read-side IndexCache). The
  // one-shot engine's hit/miss counters feed the JSON meta block: a
  // planner change that leaks the σ value back into the digest collapses
  // the hit rate, which bench_diff.py gates. ---
  std::size_t sweep_cache_hits = 0;
  std::size_t sweep_cache_misses = 0;
  {
    const int width = 32;
    const int sweep = 48;
    SameGenerationWorkload w =
        MakeSameGeneration(/*layers=*/7, width, /*fanout=*/2, /*seed=*/77);
    // The first `sweep` seed nodes are the selection constants.
    std::vector<Value> constants;
    for (const Tuple& t : w.q.Sorted()) {
      constants.push_back(t[0]);
      if (static_cast<int>(constants.size()) == sweep) break;
    }
    const Selection sigma0{0, 0};  // position fixed; value swept

    EngineOptions serial;
    serial.parallel_workers = 1;
    Engine one_shot(w.db, serial);
    auto one_shot_seed = std::make_shared<const Relation>(w.q);
    {
      BenchResult r;
      r.workload = "batch_sigma_sweep";
      r.strategy = "one_shot";
      r.n = sweep;
      r.workers = 1;
      r.reps = 3;
      TimeInto(&r, [&]() -> double {
        one_shot.ResetStats();
        auto start = std::chrono::steady_clock::now();
        std::size_t total = 0;
        for (Value v : constants) {
          Result<PreparedQuery> prepared =
              one_shot.Prepare(Query::Closure(SameGenerationRules())
                                   .SelectPosition(sigma0.position));
          if (!prepared.ok()) {
            std::fprintf(stderr, "FATAL batch_sigma_sweep/one_shot: %s\n",
                         prepared.status().ToString().c_str());
            std::exit(1);
          }
          Result<QueryResult> out =
              one_shot.Execute(prepared->Bind(v).BindSeed(one_shot_seed));
          if (!out.ok()) {
            std::fprintf(stderr, "FATAL batch_sigma_sweep/one_shot: %s\n",
                         out.status().ToString().c_str());
            std::exit(1);
          }
          total += out->relation().size();
        }
        auto end = std::chrono::steady_clock::now();
        r.derivations = one_shot.stats().derivations;
        r.result_size = total;
        return std::chrono::duration<double, std::milli>(end - start)
            .count();
      });
      results.push_back(r);
    }
    sweep_cache_hits = one_shot.plan_cache_hits();
    sweep_cache_misses = one_shot.plan_cache_misses();

    auto sweep_prepared = [&](Engine& engine, const char* strategy,
                              int workers, bool batched) {
      Result<PreparedQuery> prepared =
          engine.Prepare(Query::Closure(SameGenerationRules())
                             .SelectPosition(sigma0.position));
      if (!prepared.ok()) {
        std::fprintf(stderr, "FATAL preparing batch_sigma_sweep: %s\n",
                     prepared.status().ToString().c_str());
        std::exit(1);
      }
      auto seed = std::make_shared<const Relation>(w.q);
      std::vector<BoundQuery> batch;
      for (Value v : constants) {
        batch.push_back(prepared->Bind(v).BindSeed(seed));
      }
      BenchResult r;
      r.workload = "batch_sigma_sweep";
      r.strategy = strategy;
      r.n = sweep;
      r.workers = workers;
      r.reps = 3;
      TimeInto(&r, [&]() -> double {
        engine.ResetStats();
        auto start = std::chrono::steady_clock::now();
        std::size_t total = 0;
        if (batched) {
          Result<std::vector<QueryResult>> out = engine.ExecuteBatch(batch);
          if (!out.ok()) {
            std::fprintf(stderr, "FATAL batch_sigma_sweep/%s: %s\n",
                         strategy, out.status().ToString().c_str());
            std::exit(1);
          }
          for (const QueryResult& qr : *out) total += qr.relation().size();
        } else {
          for (const BoundQuery& bound : batch) {
            Result<QueryResult> out = engine.Execute(bound);
            if (!out.ok()) {
              std::fprintf(stderr, "FATAL batch_sigma_sweep/%s: %s\n",
                           strategy, out.status().ToString().c_str());
              std::exit(1);
            }
            total += out->relation().size();
          }
        }
        auto end = std::chrono::steady_clock::now();
        r.derivations = engine.stats().derivations;
        r.result_size = total;
        return std::chrono::duration<double, std::milli>(end - start)
            .count();
      });
      results.push_back(r);
    };

    Engine prepared_serial(w.db, serial);
    sweep_prepared(prepared_serial, "prepared_serial", 1, false);
    EngineOptions batched_options;
    batched_options.parallel_workers = 8;
    Engine prepared_batch(std::move(w.db), batched_options);
    sweep_prepared(prepared_batch, "prepared_batch", 8, true);
  }

  WriteJson(results, out_path, sweep_cache_hits, sweep_cache_misses);
  std::printf("%-22s %-12s %6s %3s %12s %12s %16s %12s\n", "workload",
              "strategy", "n", "w", "wall_ms", "wall_ms_min", "derivs/sec",
              "result");
  for (const BenchResult& r : results) {
    std::printf("%-22s %-12s %6d %3d %12.3f %12.3f %16.1f %12zu\n",
                r.workload.c_str(), r.strategy.c_str(), r.n, r.workers,
                r.wall_ms_mean, r.wall_ms_min, r.derivations_per_sec,
                r.result_size);
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace linrec

int main(int argc, char** argv) { return linrec::Main(argc, argv); }
