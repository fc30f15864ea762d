// The traced run: a per-layer cost ledger over the ops the untraced run
// sends. A fixed number of ops goes through the socket of a fresh linrecd,
// a chunk at a time, and each chunk is then replayed in-process through
// each layer's public entry point in turn, on replicas that apply every
// op, so each layer sees the state the daemon saw:
//
//   server    Server::SubmitQueryLines / HandleLine
//   frontend  ProgramInstance::EvalQueries / InsertFact / DeleteFact,
//             CompileProgram
//   datalog   ParseProgram
//   engine    Engine::Execute (the eval counters come from its stats)
//   ivm       Engine::Apply / Retract
//   storage   Relation::WhereEquals
//
// Every call is timed from outside; the counters are the ones the calls
// already return. A layer's self time is its median minus the median of
// the layer below on the same ops.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "client.h"
#include "engine/engine.h"
#include "frontend/lower.h"
#include "server/server.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

std::string Joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string Handle(linrec::Server& server, linrec::Session& session,
                   const std::string& line) {
  std::vector<std::string> out;
  server.HandleLine(session, line, &out);
  return Joined(out);
}

/// A LOAD block fed line by line, as linrecd's connection loop feeds it.
std::string Load(linrec::Server& server, linrec::Session& session,
                 const std::string& text) {
  std::vector<std::string> out;
  server.HandleLine(session, "LOAD", &out);
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    server.HandleLine(session, text.substr(begin, end - begin), &out);
    begin = end + 1;
  }
  server.HandleLine(session, "END", &out);
  return Joined(out);
}

/// The one atom of a "?- goal." or "fact." clause; an empty atom (which
/// every layer rejects) if the text does not parse.
linrec::Atom ParseAtom(const std::string& text) {
  linrec::Result<linrec::Program> parsed = linrec::ParseProgram(text);
  if (!parsed.ok()) return {};
  if (!parsed->queries.empty()) return parsed->queries.front();
  if (!parsed->facts.empty()) return parsed->facts.front();
  return {};
}

linrec::Relation EdgeRelation(const Edge& e) {
  linrec::Relation rel(2);
  const linrec::Value row[2] = {e.first, e.second};
  rel.InsertRow(row);
  return rel;
}

linrec::Database EdgeDatabase(const std::vector<Edge>& edges) {
  linrec::Database db;
  linrec::Relation& rel = db.GetOrCreate("e", 2);
  for (const Edge& e : edges) {
    const linrec::Value row[2] = {e.first, e.second};
    rel.InsertRow(row);
  }
  return db;
}

const linrec::CompiledUnit& TcUnit(const linrec::CompiledProgram& program) {
  return program.units[program.unit_of.at("tc")];
}

/// Per-op-type timings (ms) of one layer.
struct Layer {
  std::vector<double> query, insert, remove, load;
};

struct Ledger {
  Layer server, frontend, engine;
  std::vector<double> parse, compile, where_equals;
  /// Query ops, and the reply rows the server produced for them.
  std::size_t queries = 0;
  std::size_t rows = 0;
  /// Materialized-path goals: view rows MatchGoal walked, rows returned.
  std::size_t examined = 0;
  std::size_t returned = 0;
  /// Engine-layer calls: their summed counters and time.
  linrec::ClosureStats eval;
  double eval_s = 0;
  std::size_t inserts = 0;
  std::size_t deletes = 0;
  std::size_t added = 0;
  std::size_t retracted = 0;
  std::size_t rederived = 0;
  /// Rows of the view a goal read (materialized view or session closure).
  std::size_t view_rows = 0;
  std::size_t view_samples = 0;

  void CountEval(const linrec::ClosureStats& stats, double ms) {
    eval.Accumulate(stats);
    eval_s += ms / 1000;
  }
};

/// In-process replicas of the daemon's state.
struct Replicas {
  explicit Replicas(int workers) { options.parallel_workers = workers; }

  linrec::EngineOptions options;
  std::unique_ptr<linrec::Server> server;
  /// The session driven through the Server (the server layer).
  std::unique_ptr<linrec::Session> front;
  /// update_mix: a second session whose ProgramInstance is the frontend
  /// replica, since one write cannot be applied twice to one state.
  /// Read-only workloads call the front session's instance directly.
  std::unique_ptr<linrec::Session> mirror;
  linrec::ProgramInstance* instance = nullptr;
  /// update_mix: the engine replica, its view maintained by Apply/Retract.
  std::unique_ptr<linrec::Engine> engine;
  linrec::MaterializedView view;
  /// point_lookup: the σ-parameterized closure and its seed (e).
  std::optional<linrec::PreparedQuery> sigma;
  std::shared_ptr<const linrec::Relation> seed;
  /// session_churn: the long-lived planner CompileProgram runs through, as
  /// the server's registry-miss path does.
  linrec::Planner compile_planner;
};

/// Loads (and for materialized workloads materializes) one session the
/// way SetUp does over the socket.
std::string OpenSession(Replicas& r, const Shape& shape,
                        const std::vector<Edge>& edges,
                        std::unique_ptr<linrec::Session>* session) {
  *session = r.server->NewSession();
  if (Load(*r.server, **session, ProgramText(edges)) !=
      LoadReply(edges.size())) {
    return "in-process LOAD failed";
  }
  if (shape.materialize) {
    Handle(*r.server, **session, "SET max_rows 0");
    const std::string reply = Handle(*r.server, **session, kFullGoalLine);
    Handle(*r.server, **session, "SET max_rows 100000");
    if (reply != "RESULT tc/2 rows=0 truncated=1\n.\n") {
      return "in-process materialization failed";
    }
  }
  return "";
}

std::string SetUpReplicas(const Config& config, const Shape& shape,
                          const std::vector<Edge>& edges, Replicas* r) {
  r->server = std::make_unique<linrec::Server>(linrec::ServerLimits{},
                                               r->options);
  if (config.workload == Workload::kSessionChurn) return "";
  std::string error = OpenSession(*r, shape, edges, &r->front);
  if (!error.empty()) return error;
  r->instance = &r->front->instance();
  const linrec::CompiledUnit& unit = TcUnit(*r->instance->program());
  if (config.workload == Workload::kUpdateMix) {
    error = OpenSession(*r, shape, edges, &r->mirror);
    if (!error.empty()) return error;
    r->instance = &r->mirror->instance();
    r->engine =
        std::make_unique<linrec::Engine>(EdgeDatabase(edges), r->options);
    linrec::Relation seed = *r->engine->db().Find("e");
    linrec::Result<linrec::MaterializedView> view = r->engine->Materialize(
        unit.closure->Bind().BindSeed(std::move(seed)), {"tc"});
    if (!view.ok()) return "engine replica: " + view.status().ToString();
    r->view = std::move(view).value();
  }
  if (!shape.materialize) {
    linrec::Result<linrec::PreparedQuery> sigma = r->server->planner().Prepare(
        linrec::Query::Closure(unit.linear).SelectPosition(0));
    if (!sigma.ok()) return "σ prepare: " + sigma.status().ToString();
    r->sigma = std::move(sigma).value();
    r->seed = std::make_shared<const linrec::Relation>(
        *r->instance->engine().db().Find("e"));
  }
  return "";
}

/// The layer one pass of the replay calls into.
enum class Tier { kServer, kFrontend, kEngine };

/// What the server pass saw for one op; the passes below must agree.
struct Expected {
  std::size_t rows = 0;
  std::size_t count = 0;
  std::size_t rederived = 0;
};

void TraceQuery(Tier tier, const Op& op, const std::string* wire,
                Expected* expected, Replicas& r, Ledger* l, Samples* s) {
  const std::string line = RequestLine(op);
  Clock::time_point t0;
  switch (tier) {
    case Tier::kServer: {
      std::vector<std::string> out;
      t0 = Clock::now();
      r.server->SubmitQueryLines(*r.front, {line}, &out);
      l->server.query.push_back(MsSince(t0));
      if (wire != nullptr && Joined(out) != *wire) {
        s->Fail(line + ": Server reply differs from the socket reply");
      }
      expected->rows = out.size() >= 2 ? out.size() - 2 : 0;
      ++l->queries;
      l->rows += expected->rows;
      return;
    }
    case Tier::kFrontend: {
      const linrec::Atom goal = ParseAtom(line);
      t0 = Clock::now();
      std::vector<linrec::Result<linrec::QueryResult>> results =
          r.instance->EvalQueries({goal}, r.server->planner());
      l->frontend.query.push_back(MsSince(t0));
      if (!results.front().ok() ||
          results.front()->relations.front().size() != expected->rows) {
        s->Fail(line + ": ProgramInstance disagrees with the Server");
      }
      return;
    }
    case Tier::kEngine:
      break;
  }
  if (r.sigma.has_value()) {
    const linrec::BoundQuery bound =
        r.sigma->Bind(op.edge.first).BindSeed(r.seed);
    t0 = Clock::now();
    linrec::Result<linrec::QueryResult> result =
        r.instance->engine().Execute(bound);
    const double ms = MsSince(t0);
    l->engine.query.push_back(ms);
    if (!result.ok() || result->relation().size() != expected->rows) {
      s->Fail(line + ": Engine::Execute disagrees with the Server");
      return;
    }
    l->CountEval(result->stats, ms);
    return;
  }
  // The engine pass reads the view of the replica it is replaying.
  const linrec::Relation* view =
      (r.engine != nullptr ? r.engine->db() : r.instance->engine().db())
          .Find("tc");
  if (view == nullptr) {
    s->Fail(line + ": no materialized view");
    return;
  }
  t0 = Clock::now();
  const linrec::Relation selected = view->WhereEquals(0, op.edge.first);
  l->where_equals.push_back(MsSince(t0));
  if (selected.size() != expected->rows) {
    s->Fail(line + ": WhereEquals disagrees with the Server");
  }
  l->examined += view->size();
  l->returned += expected->rows;
  l->view_rows += view->size();
  ++l->view_samples;
}

void TraceUpdate(Tier tier, const Op& op, const std::string* wire,
                 Expected* expected, Replicas& r, Ledger* l, Samples* s) {
  const bool insert = op.kind == OpKind::kInsert;
  const std::string line = RequestLine(op);
  Clock::time_point t0;
  switch (tier) {
    case Tier::kServer: {
      t0 = Clock::now();
      const std::string reply = Handle(*r.server, *r.front, line);
      (insert ? l->server.insert : l->server.remove).push_back(MsSince(t0));
      if (wire != nullptr && reply != *wire) {
        s->Fail(line + ": Server reply differs from the socket reply");
      }
      ReplyField(reply, insert ? "added" : "retracted", &expected->count);
      ReplyField(reply, "rederived", &expected->rederived);
      return;
    }
    case Tier::kFrontend: {
      const linrec::Atom fact = ParseAtom(line.substr(line.find(' ') + 1));
      t0 = Clock::now();
      linrec::Result<linrec::FactUpdateOutcome> outcome =
          insert ? r.instance->InsertFact(fact) : r.instance->DeleteFact(fact);
      (insert ? l->frontend.insert : l->frontend.remove)
          .push_back(MsSince(t0));
      if (!outcome.ok() ||
          (insert ? outcome->tuples_added : outcome->tuples_removed) !=
              expected->count) {
        s->Fail(line + ": ProgramInstance disagrees with the Server");
      }
      return;
    }
    case Tier::kEngine:
      break;
  }
  const linrec::Relation delta = EdgeRelation(op.edge);
  if (insert) {
    linrec::DeltaInsert d;
    d.seed_inserts.push_back(delta);
    d.param_inserts.emplace("e", delta);
    t0 = Clock::now();
    linrec::Result<linrec::ApplyOutcome> applied = r.engine->Apply(r.view, d);
    const double ms = MsSince(t0);
    l->engine.insert.push_back(ms);
    if (!applied.ok() || applied->added != expected->count) {
      s->Fail(line + ": Engine::Apply disagrees with the Server");
      return;
    }
    l->CountEval(applied->stats, ms);
    ++l->inserts;
    l->added += applied->added;
    return;
  }
  linrec::DeltaDelete d;
  d.seed_deletes.push_back(delta);
  d.param_deletes.emplace("e", delta);
  t0 = Clock::now();
  linrec::Result<linrec::RetractOutcome> retracted =
      r.engine->Retract(r.view, d);
  const double ms = MsSince(t0);
  l->engine.remove.push_back(ms);
  if (!retracted.ok() || retracted->removed_count != expected->count ||
      retracted->rederived != expected->rederived) {
    s->Fail(line + ": Engine::Retract disagrees with the Server");
    return;
  }
  l->CountEval(retracted->stats, ms);
  ++l->deletes;
  l->retracted += retracted->removed_count;
  l->rederived += retracted->rederived;
}

void TraceSession(Tier tier, const Op& op, const std::string* wire,
                  Expected* expected, Replicas& r, Ledger* l, Samples* s) {
  const std::vector<Edge> edges = SessionEdges(op.session_seed);
  const std::string text = ProgramText(edges);
  const std::string where = "session " + std::to_string(op.session_seed);
  Clock::time_point t0;

  if (tier == Tier::kServer) {
    std::unique_ptr<linrec::Session> session = r.server->NewSession();
    t0 = Clock::now();
    const std::string load_reply = Load(*r.server, *session, text);
    l->server.load.push_back(MsSince(t0));
    std::vector<std::string> out;
    t0 = Clock::now();
    r.server->SubmitQueryLines(*session, {kFullGoalLine}, &out);
    l->server.query.push_back(MsSince(t0));
    const std::string bye = Handle(*r.server, *session, "QUIT");
    if (wire != nullptr && load_reply + Joined(out) + bye != *wire) {
      s->Fail(where + ": Server replies differ from the socket replies");
    }
    expected->rows = out.size() >= 2 ? out.size() - 2 : 0;
    ++l->queries;
    l->rows += expected->rows;
    return;
  }

  if (tier == Tier::kFrontend) {
    t0 = Clock::now();
    linrec::Result<linrec::Program> parsed = linrec::ParseProgram(text);
    l->parse.push_back(MsSince(t0));
    if (!parsed.ok()) {
      s->Fail(where + ": ParseProgram failed");
      return;
    }
    t0 = Clock::now();
    linrec::Result<linrec::CompiledProgram> compiled =
        linrec::CompileProgram(parsed->rules, r.compile_planner);
    l->compile.push_back(MsSince(t0));
    if (!compiled.ok()) {
      s->Fail(where + ": CompileProgram failed");
      return;
    }
    linrec::ProgramInstance instance(r.options);
    instance.SetProgram(
        std::make_shared<const linrec::CompiledProgram>(std::move(*compiled)));
    for (const linrec::Atom& fact : parsed->facts) {
      if (!instance.AddFact(fact).ok()) {
        s->Fail(where + ": AddFact failed");
        return;
      }
    }
    const linrec::Atom goal = ParseAtom(kFullGoalLine);
    t0 = Clock::now();
    std::vector<linrec::Result<linrec::QueryResult>> results =
        instance.EvalQueries({goal}, r.compile_planner);
    l->frontend.query.push_back(MsSince(t0));
    if (!results.front().ok() ||
        results.front()->relations.front().size() != expected->rows) {
      s->Fail(where + ": ProgramInstance disagrees with the Server");
    }
    return;
  }

  // The session program's closure, prepared through the same planner.
  linrec::Result<linrec::Program> parsed = linrec::ParseProgram(text);
  linrec::Result<linrec::CompiledProgram> compiled =
      parsed.ok() ? linrec::CompileProgram(parsed->rules, r.compile_planner)
                  : linrec::Result<linrec::CompiledProgram>(parsed.status());
  if (!compiled.ok()) {
    s->Fail(where + ": CompileProgram failed");
    return;
  }
  linrec::Engine engine(EdgeDatabase(edges), r.options);
  linrec::Relation seed = *engine.db().Find("e");
  const linrec::BoundQuery bound =
      TcUnit(*compiled).closure->Bind().BindSeed(std::move(seed));
  t0 = Clock::now();
  linrec::Result<linrec::QueryResult> result = engine.Execute(bound);
  const double ms = MsSince(t0);
  l->engine.query.push_back(ms);
  if (!result.ok() || result->relation().size() != expected->rows) {
    s->Fail(where + ": Engine::Execute disagrees with the Server");
    return;
  }
  l->CountEval(result->stats, ms);
  l->view_rows += expected->rows;
  ++l->view_samples;
}

void TraceOp(Tier tier, const Op& op, const std::string* wire,
             Expected* expected, Replicas& r, Ledger* l, Samples* s) {
  switch (op.kind) {
    case OpKind::kQuery:
      TraceQuery(tier, op, wire, expected, r, l, s);
      break;
    case OpKind::kInsert:
    case OpKind::kDelete:
      TraceUpdate(tier, op, wire, expected, r, l, s);
      break;
    case OpKind::kSession:
      TraceSession(tier, op, wire, expected, r, l, s);
      break;
  }
}

/// The shared caches the ledger reports hit rates for.
struct CacheCounters {
  std::size_t registry_hits = 0;
  std::size_t registry_misses = 0;
  std::size_t plan_hits = 0;
  std::size_t plan_misses = 0;

  static CacheCounters Read(Replicas& r) {
    CacheCounters c;
    c.registry_hits = r.server->registry().hits();
    c.registry_misses = r.server->registry().misses();
    c.plan_hits = r.server->planner().plan_cache_hits() +
                  r.compile_planner.plan_cache_hits();
    c.plan_misses = r.server->planner().plan_cache_misses() +
                    r.compile_planner.plan_cache_misses();
    return c;
  }
  void AddDelta(const CacheCounters& before, const CacheCounters& after) {
    registry_hits += after.registry_hits - before.registry_hits;
    registry_misses += after.registry_misses - before.registry_misses;
    plan_hits += after.plan_hits - before.plan_hits;
    plan_misses += after.plan_misses - before.plan_misses;
  }
};

/// Ops per chunk of the traced replay (a multiple of update_mix's
/// insert/read/delete cycle).
constexpr std::size_t kTraceChunk = 30;

/// FNV-1a over the op sequence: a new seed must change it.
std::uint64_t HashOp(std::uint64_t h, const Op& op) {
  const std::uint64_t words[4] = {
      static_cast<std::uint64_t>(op.kind),
      static_cast<std::uint64_t>(op.edge.first),
      static_cast<std::uint64_t>(op.edge.second), op.session_seed};
  for (std::uint64_t w : words) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((w >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace

int RunTraced(const Config& config) {
  const Shape shape = ShapeOf(config.workload);

  // A fresh daemon, and in-process replicas of the state it serves.
  Samples setup;
  Samples wire;
  std::string error;
  std::unique_ptr<Client> client = SetUp(config, &setup, &error);
  if (client == nullptr) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  OpStream stream(config.workload, config.seed);
  Replicas replicas(config.workers);
  error = SetUpReplicas(config, shape, stream.initial_edges(), &replicas);
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  Samples traced;
  Ledger warm;
  std::vector<Op> warmup;
  for (int i = 0; i < shape.warmup_ops; ++i) warmup.push_back(stream.Next());
  std::vector<Expected> warm_expected(warmup.size());
  for (Tier tier : {Tier::kServer, Tier::kFrontend, Tier::kEngine}) {
    for (std::size_t i = 0; i < warmup.size(); ++i) {
      TraceOp(tier, warmup[i], nullptr, &warm_expected[i], replicas, &warm,
              &traced);
    }
  }

  // The ops go through in chunks: each chunk through the socket, then
  // through each layer in turn on its replica. Within a chunk every layer
  // sees a run of its own calls, as the daemon's loop does, and all of a
  // chunk's timings fall within a fraction of a second, so a swing in host
  // speed moves a layer and the layer below it together. Replicas share no
  // mutable state across layers except the read-only front session.
  const std::size_t total = static_cast<std::size_t>(shape.traced_ops);
  std::vector<Op> ops;
  std::vector<std::string> replies(total);
  std::vector<Expected> expected(total);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  Ledger l;
  CacheCounters caches;
  for (std::size_t begin = 0; begin < total; begin += kTraceChunk) {
    const std::size_t end = std::min(total, begin + kTraceChunk);
    for (std::size_t i = begin; i < end; ++i) {
      ops.push_back(client->stream.Next());
      RunOp(*client, ops[i], &wire, &replies[i]);
      if (!(stream.Next() == ops[i])) {
        traced.Fail("the in-process op stream diverged from the socket run");
      }
      digest = HashOp(digest, ops[i]);
    }
    for (Tier tier : {Tier::kServer, Tier::kFrontend, Tier::kEngine}) {
      for (std::size_t i = begin; i < end; ++i) {
        const CacheCounters before = CacheCounters::Read(replicas);
        TraceOp(tier, ops[i], &replies[i], &expected[i], replicas, &l,
                &traced);
        if (tier != Tier::kEngine) {
          caches.AddDelta(before, CacheCounters::Read(replicas));
        }
      }
    }
  }
  if (!ShutDown(*client)) wire.Fail("linrecd did not shut down cleanly");
  client.reset();
  const double registry_hits = static_cast<double>(caches.registry_hits);
  const double registry_misses = static_cast<double>(caches.registry_misses);
  const double plan_hits = static_cast<double>(caches.plan_hits);
  const double plan_misses = static_cast<double>(caches.plan_misses);

  std::printf(
      "# counts {\"workload\": \"%s\", \"seed\": %llu, \"shape\": "
      "{\"nodes\": %d, \"initial_edges\": %zu, \"ops\": %zu, \"queries\": "
      "%zu, \"inserts\": %zu, \"deletes\": %zu, \"sessions\": %zu}, "
      "\"exact\": {\"reply_rows\": %zu, \"reply_bytes\": %zu, "
      "\"derivations\": %zu, \"duplicates\": %zu, \"rows_scanned\": %zu, "
      "\"probes\": %zu, \"ivm_added\": %zu, \"ivm_retracted\": %zu, "
      "\"ivm_rederived\": %zu}, \"op_digest\": \"%016llx\"}\n",
      WorkloadName(config.workload),
      static_cast<unsigned long long>(config.seed), shape.nodes,
      stream.initial_edges().size(), ops.size(), wire.query.size(),
      wire.insert.size(), wire.remove.size(), wire.session.size(),
      wire.reply_rows, wire.reply_bytes, l.eval.derivations,
      l.eval.duplicates, l.eval.rows_scanned, l.eval.probes_issued, l.added,
      l.retracted, l.rederived, static_cast<unsigned long long>(digest));
  ReportErrors(setup);
  ReportErrors(wire);
  ReportErrors(traced);

  const double n = static_cast<double>(ops.size());
  const double wire_q = Median(wire.query);
  const double server_q = Median(l.server.query);
  const double frontend_q = Median(l.frontend.query);
  const double engine_q = Median(l.engine.query);
  const std::size_t attempted = setup.attempted + wire.attempted;
  const std::size_t failed = std::min(
      attempted, setup.failed + wire.failed + traced.failed);
  PrintResult(
      failed == 0, attempted, failed,
      {{"linrecd.self_ms", wire_q - server_q, "ms"},
       {"linrecd.reply_bytes_per_op", Ratio(wire.reply_bytes, n), "bytes"},
       {"linrecd.query_ms", wire_q, "ms"},
       {"linrecd.insert_ms", Median(wire.insert), "ms"},
       {"linrecd.delete_ms", Median(wire.remove), "ms"},
       {"linrecd.load_ms", Median(wire.load), "ms"},
       {"server.self_ms", server_q - frontend_q, "ms"},
       {"server.ns_per_row",
        Ratio((Sum(l.server.query) - Sum(l.frontend.query)) * 1e6,
              static_cast<double>(l.rows)),
        "ns"},
       {"server.rows_per_op",
        Ratio(static_cast<double>(l.rows), static_cast<double>(l.queries)),
        "rows"},
       {"datalog.parse_ms", Median(l.parse), "ms"},
       {"frontend.self_ms", frontend_q - engine_q, "ms"},
       {"frontend.rows_examined_per_row_returned",
        Ratio(static_cast<double>(l.examined),
              static_cast<double>(l.returned)),
        "ratio"},
       {"frontend.compile_ms", Median(l.compile), "ms"},
       {"frontend.registry_hit_rate",
        Ratio(registry_hits, registry_hits + registry_misses), "ratio"},
       {"frontend.insert_self_ms",
        Median(l.frontend.insert) - Median(l.engine.insert), "ms"},
       {"frontend.delete_self_ms",
        Median(l.frontend.remove) - Median(l.engine.remove), "ms"},
       {"engine.execute_ms", engine_q, "ms"},
       {"engine.plan_cache_hit_rate",
        Ratio(plan_hits, plan_hits + plan_misses), "ratio"},
       {"eval.derivations_per_op",
        Ratio(static_cast<double>(l.eval.derivations), n), "count"},
       {"eval.duplicate_ratio",
        Ratio(static_cast<double>(l.eval.duplicates),
              static_cast<double>(l.eval.derivations)),
        "ratio"},
       {"eval.rows_scanned_per_op",
        Ratio(static_cast<double>(l.eval.rows_scanned), n), "rows"},
       {"eval.probes_per_op",
        Ratio(static_cast<double>(l.eval.probes_issued), n), "count"},
       {"eval.rounds_per_op",
        Ratio(static_cast<double>(l.eval.iterations), n), "count"},
       {"eval.derivations_per_s",
        Ratio(static_cast<double>(l.eval.derivations), l.eval_s), "1/s"},
       {"ivm.apply_ms", Median(l.engine.insert), "ms"},
       {"ivm.retract_ms", Median(l.engine.remove), "ms"},
       {"ivm.added_per_insert",
        Ratio(static_cast<double>(l.added), static_cast<double>(l.inserts)),
        "rows"},
       {"ivm.retracted_per_delete",
        Ratio(static_cast<double>(l.retracted),
              static_cast<double>(l.deletes)),
        "rows"},
       {"ivm.rederived_per_delete",
        Ratio(static_cast<double>(l.rederived),
              static_cast<double>(l.deletes)),
        "rows"},
       {"ivm.rederive_ratio",
        Ratio(static_cast<double>(l.rederived),
              static_cast<double>(l.retracted + l.rederived)),
        "ratio"},
       {"storage.view_rows",
        Ratio(static_cast<double>(l.view_rows),
              static_cast<double>(l.view_samples)),
        "rows"},
       {"storage.where_equals_ms", Median(l.where_equals), "ms"}});
  return 0;
}

}  // namespace perfbench
