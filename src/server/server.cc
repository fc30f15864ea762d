#include "server/server.h"

#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "datalog/parser.h"

namespace linrec {
namespace {

/// Parses the one ground atom clause of a FACT / INSERT / DELETE line.
Result<Atom> ParseFactLine(const std::string& text, const char* verb) {
  Result<Program> parsed = ParseProgram(text);
  if (!parsed.ok()) return parsed.status();
  if (parsed->facts.size() != 1 || !parsed->rules.empty() ||
      !parsed->queries.empty()) {
    return Status::InvalidArgument(
        StrCat(verb, " expects exactly one ground atom clause"));
  }
  return std::move(parsed->facts.front());
}

/// The deadline of one request, armed from the session's timeout_ms; none
/// when the session sets no deadline.
std::optional<CancellationToken> RequestDeadline(const Session& session) {
  if (session.timeout_ms() < 0) return std::nullopt;
  return CancellationToken::WithTimeout(
      std::chrono::milliseconds(session.timeout_ms()));
}

}  // namespace

std::unique_ptr<Session> Server::NewSession() {
  const long id = next_session_.fetch_add(1);
  return std::make_unique<Session>(StrCat("s", id), limits_, engine_options_);
}

Server::Action Server::HandleLine(Session& session, const std::string& line,
                                  std::vector<std::string>* out) {
  if (session.in_load()) {
    // Inside a LOAD block only END is a command; everything else is
    // program text (including blank lines and comments).
    if (IsEndLine(line)) {
      HandleLoadEnd(session, out);
    } else {
      session.AppendLoadLine(line);
    }
    return Action::kContinue;
  }

  Result<Request> request = ParseRequestLine(line);
  if (!request.ok()) {
    out->push_back(FormatError(request.status()));
    return Action::kContinue;
  }
  switch (request->kind) {
    case RequestKind::kEmpty:
      return Action::kContinue;
    case RequestKind::kLoad:
      session.BeginLoad();
      return Action::kContinue;
    case RequestKind::kEnd:
      out->push_back(FormatError(
          Status::InvalidArgument("END outside a LOAD block")));
      return Action::kContinue;
    case RequestKind::kFact: {
      Result<Atom> fact = ParseFactLine(request->text, "FACT");
      if (!fact.ok()) {
        out->push_back(FormatError(fact.status()));
        return Action::kContinue;
      }
      Status added = session.instance().AddFact(*fact);
      out->push_back(added.ok() ? "OK fact" : FormatError(added));
      return Action::kContinue;
    }
    case RequestKind::kInsert:
      HandleFactUpdate(session, request->text, /*insert=*/true, out);
      return Action::kContinue;
    case RequestKind::kDelete:
      HandleFactUpdate(session, request->text, /*insert=*/false, out);
      return Action::kContinue;
    case RequestKind::kQuery:
      SubmitQueryLines(session, {request->text}, out);
      return Action::kContinue;
    case RequestKind::kExplain:
      HandleExplain(session, out);
      return Action::kContinue;
    case RequestKind::kSet:
      HandleSet(session, request->text, out);
      return Action::kContinue;
    case RequestKind::kStats:
      HandleStats(session, out);
      return Action::kContinue;
    case RequestKind::kMetrics:
      HandleMetrics(out);
      return Action::kContinue;
    case RequestKind::kReset:
      session.instance().Reset();
      out->push_back("OK reset");
      return Action::kContinue;
    case RequestKind::kPing:
      out->push_back("OK pong");
      return Action::kContinue;
    case RequestKind::kQuit:
      out->push_back("OK bye");
      return Action::kCloseSession;
    case RequestKind::kShutdown:
      out->push_back("OK shutdown");
      return Action::kShutdown;
  }
  return Action::kContinue;
}

void Server::HandleLoadEnd(Session& session, std::vector<std::string>* out) {
  const std::string text = session.TakeLoadText();
  Result<Program> parsed = ParseProgram(text);
  if (!parsed.ok()) {
    out->push_back(FormatError(parsed.status()));
    return;
  }
  // The LOAD's compiled rules; null when it brings none, and the session
  // keeps its program.
  std::shared_ptr<const CompiledProgram> program;
  if (!parsed->rules.empty()) {
    const std::string digest = ProgramDigest(parsed->rules);
    Result<std::shared_ptr<const CompiledProgram>> compiled =
        registry_.GetOrCompile(digest, [&]() -> Result<CompiledProgram> {
          return CompileProgram(parsed->rules, planner_);
        });
    if (!compiled.ok()) {
      out->push_back(FormatError(compiled.status()));
      return;
    }
    program = std::move(compiled).value();
  }
  // Load checks the whole LOAD first, so a rejected one leaves the session
  // as it was: no new program, no fact of it added.
  Status loaded = session.instance().Load(std::move(program), parsed->facts);
  if (!loaded.ok()) {
    out->push_back(FormatError(loaded));
    return;
  }
  out->push_back(StrCat("OK loaded rules=", parsed->rules.size(),
                        " facts=", parsed->facts.size(),
                        " queries=", parsed->queries.size()));
  if (!parsed->queries.empty()) {
    SubmitQueries(session, parsed->queries, out);
  }
}

Status Server::Admit(std::size_t units) {
  const long n = static_cast<long>(units);
  // Overload shedding: while the global ledger sits in its pressure band,
  // new work is turned away with a retry hint instead of being admitted
  // only to die on a budget denial mid-round. The message leads with the
  // hint so the reply reads "ERR Unavailable retry_after_ms=<N> ...".
  if (memory_budget_.under_pressure()) {
    queries_shed_.fetch_add(n);
    return Status::Unavailable(
        StrCat("retry_after_ms=", limits_.retry_after_ms,
               " server under memory pressure (", memory_budget_.used(), "/",
               memory_budget_.limit(), " bytes in use)"));
  }
  // Admission: all units are admitted or rejected atomically against the
  // global pending bound.
  const long admitted = pending_.fetch_add(n) + n;
  if (admitted > static_cast<long>(limits_.max_pending)) {
    pending_.fetch_sub(n);
    queries_rejected_.fetch_add(n);
    return Status::Unavailable(
        StrCat("retry_after_ms=", limits_.retry_after_ms,
               " server at capacity (", limits_.max_pending,
               " queries in flight)"));
  }
  return Status::OK();
}

std::vector<Result<QueryResult>> Server::EvaluateGoals(
    Session& session, const std::vector<Atom>& goals) {
  if (goals.empty()) return {};
  const Status admitted = Admit(goals.size());
  if (!admitted.ok()) {
    return std::vector<Result<QueryResult>>(goals.size(),
                                            Result<QueryResult>(admitted));
  }

  // Every goal of the request is admitted at this instant, so one deadline
  // token serves them all.
  const std::optional<CancellationToken> deadline = RequestDeadline(session);

  // Per-goal memory budgets, attached whenever the session cap or the
  // global ledger is armed (unique_ptr: QueryBudget is address-pinned —
  // its destructor re-credits the parent). Wholly ungoverned sessions
  // skip this and pay nothing.
  std::vector<std::unique_ptr<QueryBudget>> budget_storage;
  std::vector<QueryBudget*> budgets(goals.size(), nullptr);
  if (session.memory_budget() > 0 || memory_budget_.limit() != 0) {
    budget_storage.reserve(goals.size());
    for (std::size_t i = 0; i < goals.size(); ++i) {
      budget_storage.push_back(std::make_unique<QueryBudget>(
          session.memory_budget(), &memory_budget_));
      budgets[i] = budget_storage.back().get();
    }
  }

  // row_limit = cap + 1: one row past the cap is enough to set
  // truncated=1, and the reply never materializes a full second copy of a
  // huge closure.
  const std::size_t cap = session.max_rows();
  const std::size_t row_limit = cap == SIZE_MAX ? SIZE_MAX : cap + 1;

  std::vector<Result<QueryResult>> outcomes = session.instance().EvalQueries(
      goals, planner_, deadline ? &*deadline : nullptr, &budgets, row_limit);
  for (const Result<QueryResult>& outcome : outcomes) {
    if (!outcome.ok()) CountFailure(outcome.status());
  }
  pending_.fetch_sub(static_cast<long>(goals.size()));
  session.CountQueries(goals.size());
  queries_served_.fetch_add(static_cast<long>(goals.size()));
  return outcomes;
}

void Server::CountFailure(const Status& status) {
  if (status.code() == StatusCode::kResourceExhausted) {
    queries_exhausted_.fetch_add(1);
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    queries_timed_out_.fetch_add(1);
  }
}

void Server::SubmitQueries(Session& session, const std::vector<Atom>& goals,
                           std::vector<std::string>* out) {
  std::vector<Result<QueryResult>> outcomes = EvaluateGoals(session, goals);
  for (std::size_t i = 0; i < goals.size(); ++i) {
    AppendOutcome(session, goals[i], outcomes[i], out);
  }
}

void Server::SubmitQueryLines(Session& session,
                              const std::vector<std::string>& lines,
                              std::vector<std::string>* out) {
  // Parse every line first; failures reply ERR in place, the rest run as
  // one batch so pipelined point queries share seeds and worker lanes.
  std::vector<Status> parse_errors(lines.size(), Status::OK());
  std::vector<Atom> goals;
  std::vector<std::size_t> goal_line;  // batch slot -> line index
  for (std::size_t i = 0; i < lines.size(); ++i) {
    Result<Program> parsed = ParseProgram(lines[i]);
    if (!parsed.ok()) {
      parse_errors[i] = parsed.status();
      continue;
    }
    if (parsed->queries.size() != 1 || !parsed->rules.empty() ||
        !parsed->facts.empty()) {
      parse_errors[i] =
          Status::InvalidArgument("expected exactly one '?-' goal");
      continue;
    }
    goal_line.push_back(i);
    goals.push_back(std::move(parsed->queries.front()));
  }
  std::vector<Result<QueryResult>> outcomes = EvaluateGoals(session, goals);
  std::size_t slot = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!parse_errors[i].ok()) {
      out->push_back(FormatError(parse_errors[i]));
    } else {
      AppendOutcome(session, goals[slot], outcomes[slot], out);
      ++slot;
    }
  }
}

void Server::AppendOutcome(Session& session, const Atom& goal,
                           const Result<QueryResult>& outcome,
                           std::vector<std::string>* out) {
  if (!outcome.ok()) {
    out->push_back(FormatError(outcome.status()));
    return;
  }
  const Relation& rows = outcome->relations.front();
  const std::size_t cap = session.max_rows();
  const bool truncated = rows.size() > cap;
  const std::size_t emit = truncated ? cap : rows.size();
  out->push_back(
      FormatResultHeader(goal.predicate, goal.arity(), emit, truncated));
  std::size_t emitted = 0;
  for (TupleView row : rows) {
    if (emitted >= emit) break;
    out->push_back(FormatRow(row));
    ++emitted;
  }
  out->push_back(".");
}

void Server::HandleFactUpdate(Session& session, const std::string& text,
                              bool insert, std::vector<std::string>* out) {
  const char* verb = insert ? "INSERT" : "DELETE";
  // Protocol-layer validation first: a malformed line replies ERR and
  // touches nothing — no fact lands, no view moves. (Groundness and arity
  // are re-checked by InsertFact/DeleteFact before their first mutation,
  // so that path is just as safe.)
  Result<Atom> fact = ParseFactLine(text, verb);
  if (!fact.ok()) {
    out->push_back(FormatError(fact.status()));
    return;
  }

  // Maintenance is resource-governed exactly like a query: shed under
  // memory pressure, admitted against the pending bound, deadline-checked,
  // charged to the session and global budgets.
  const Status admitted = Admit(1);
  if (!admitted.ok()) {
    out->push_back(FormatError(admitted));
    return;
  }

  const std::optional<CancellationToken> deadline = RequestDeadline(session);
  const CancellationToken* cancel = deadline ? &*deadline : nullptr;
  std::unique_ptr<QueryBudget> budget;
  if (session.memory_budget() > 0 || memory_budget_.limit() != 0) {
    budget = std::make_unique<QueryBudget>(session.memory_budget(),
                                           &memory_budget_);
  }

  Result<FactUpdateOutcome> outcome =
      insert ? session.instance().InsertFact(*fact, cancel, budget.get())
             : session.instance().DeleteFact(*fact, cancel, budget.get());
  pending_.fetch_sub(1);
  if (!outcome.ok()) {
    CountFailure(outcome.status());
    out->push_back(FormatError(outcome.status()));
    return;
  }
  if (insert) {
    ivm_applied_.fetch_add(static_cast<long>(outcome->views_applied));
    out->push_back(StrCat("OK insert applied=", outcome->applied ? 1 : 0,
                          " views=", outcome->views_applied,
                          " added=", outcome->tuples_added));
  } else {
    ivm_retracted_.fetch_add(static_cast<long>(outcome->views_retracted));
    ivm_rederived_.fetch_add(static_cast<long>(outcome->rederived));
    out->push_back(StrCat("OK delete removed=", outcome->removed ? 1 : 0,
                          " views=", outcome->views_retracted,
                          " retracted=", outcome->tuples_removed,
                          " rederived=", outcome->rederived));
  }
}

void Server::HandleSet(Session& session, const std::string& args,
                       std::vector<std::string>* out) {
  // ParseSetArgs (protocol layer) fully validates key, syntax and range;
  // a returned SetArgs is safe to apply unconditionally.
  Result<SetArgs> parsed = ParseSetArgs(args);
  if (!parsed.ok()) {
    out->push_back(FormatError(parsed.status()));
    return;
  }
  if (parsed->key == "timeout_ms") {
    session.set_timeout_ms(static_cast<int>(parsed->value));
  } else if (parsed->key == "max_rows") {
    session.set_max_rows(static_cast<std::size_t>(parsed->value));
  } else {  // memory_budget — ParseSetArgs admits no other key
    session.set_memory_budget(static_cast<std::size_t>(parsed->value));
  }
  out->push_back(StrCat("OK set ", parsed->key, "=", parsed->value));
}

void Server::HandleStats(Session& session, std::vector<std::string>* out) {
  out->push_back("OK stats");
  out->push_back(StrCat("programs=", registry_.size()));
  out->push_back(StrCat("program_hits=", registry_.hits()));
  out->push_back(StrCat("program_misses=", registry_.misses()));
  out->push_back(StrCat("plan_hits=", planner_.plan_cache_hits()));
  out->push_back(StrCat("plan_misses=", planner_.plan_cache_misses()));
  out->push_back(StrCat("queries_served=", queries_served_.load()));
  out->push_back(StrCat("queries_rejected=", queries_rejected_.load()));
  out->push_back(StrCat("queries_exhausted=", queries_exhausted_.load()));
  out->push_back(StrCat("queries_timed_out=", queries_timed_out_.load()));
  out->push_back(StrCat("queries_shed=", queries_shed_.load()));
  out->push_back(StrCat("ivm_applied=", ivm_applied_.load()));
  out->push_back(StrCat("ivm_retracted=", ivm_retracted_.load()));
  out->push_back(StrCat("ivm_rederived=", ivm_rederived_.load()));
  out->push_back(StrCat("pending=", pending_.load()));
  out->push_back(StrCat("mem_budget_used=", memory_budget_.used()));
  out->push_back(StrCat("mem_budget_limit=", memory_budget_.limit()));
  out->push_back(
      StrCat("mem_pressure=", memory_budget_.under_pressure() ? 1 : 0));
  out->push_back(StrCat("session_queries=", session.queries_served()));
  out->push_back(
      StrCat("session_derivations=", session.instance().derivations()));
  const ClosureStats& totals = session.instance().totals();
  out->push_back(StrCat("session_rows_scanned=", totals.rows_scanned));
  out->push_back(StrCat("session_probes_issued=", totals.probes_issued));
  out->push_back(".");
}

void Server::HandleMetrics(std::vector<std::string>* out) {
  // Prometheus text exposition of the server-wide counters (the
  // session-scoped STATS keys are deliberately absent: a scraper sees the
  // process, not one connection). Dot-terminated like every multi-line OK
  // payload; an HTTP front can strip the first and last line verbatim.
  out->push_back("OK metrics");
  const auto emit = [out](const char* name, const char* type, long value) {
    out->push_back(StrCat("# TYPE linrec_", name, " ", type));
    out->push_back(StrCat("linrec_", name, " ", value));
  };
  emit("programs", "gauge", static_cast<long>(registry_.size()));
  emit("program_hits", "counter", static_cast<long>(registry_.hits()));
  emit("program_misses", "counter", static_cast<long>(registry_.misses()));
  emit("plan_hits", "counter", static_cast<long>(planner_.plan_cache_hits()));
  emit("plan_misses", "counter",
       static_cast<long>(planner_.plan_cache_misses()));
  emit("queries_served", "counter", queries_served_.load());
  emit("queries_rejected", "counter", queries_rejected_.load());
  emit("queries_exhausted", "counter", queries_exhausted_.load());
  emit("queries_timed_out", "counter", queries_timed_out_.load());
  emit("queries_shed", "counter", queries_shed_.load());
  emit("ivm_applied", "counter", ivm_applied_.load());
  emit("ivm_retracted", "counter", ivm_retracted_.load());
  emit("ivm_rederived", "counter", ivm_rederived_.load());
  emit("pending", "gauge", pending_.load());
  emit("mem_budget_used", "gauge", static_cast<long>(memory_budget_.used()));
  emit("mem_budget_limit", "gauge",
       static_cast<long>(memory_budget_.limit()));
  emit("mem_pressure", "gauge", memory_budget_.under_pressure() ? 1 : 0);
  out->push_back(".");
}

void Server::HandleExplain(Session& session, std::vector<std::string>* out) {
  const auto& program = session.instance().program();
  if (program == nullptr) {
    out->push_back(FormatError(Status::InvalidArgument("no program loaded")));
    return;
  }
  out->push_back("OK explain");
  if (program->plan_explanations.empty()) {
    out->push_back("(no recursive predicates: nothing to plan)");
  }
  for (const std::string& explanation : program->plan_explanations) {
    std::size_t begin = 0;
    while (begin <= explanation.size()) {
      std::size_t end = explanation.find('\n', begin);
      if (end == std::string::npos) {
        if (begin < explanation.size()) {
          out->push_back(explanation.substr(begin));
        }
        break;
      }
      out->push_back(explanation.substr(begin, end - begin));
      begin = end + 1;
    }
  }
  out->push_back(".");
  return;
}

}  // namespace linrec
