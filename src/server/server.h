// linrecd's front door, transport-agnostic: feed it request lines, get
// back protocol reply lines. The binary (tools/linrecd.cc) wires this to a
// file, stdin, or a TCP socket; the tests drive it directly.
//
// Sharing model (the plan-cache-miss=1 guarantee):
//
//   Server ── Planner             one planning-only Engine, mutexed; every
//         │                       Prepare of every session goes through it
//         ├─ DigestRegistry<CompiledProgram>
//         │                       programs keyed on ProgramDigest; N
//         │                       sessions LOADing one program compile once
//         └─ Session*             per client: ProgramInstance (private
//                                 facts + engine + index-cache tier)
//
// Admission control: a bounded count of in-flight queries across all
// sessions; past the bound, submissions reply ERR Unavailable instead of
// queueing. A request's deadline becomes one CancellationToken checked at
// round boundaries and inside the join cursor, so an expired query replies
// ERR DeadlineExceeded without killing the server or its batch neighbours.
//
// Resource governance (the graceful-degradation ladder):
//
//   1. Every admitted goal gets a QueryBudget (per-query limit = the
//      session's SET memory_budget, parent = the server-wide MemoryBudget
//      ledger). A query whose relation growth would cross either bound
//      replies ERR ResourceExhausted; its neighbours and every other
//      session keep running, and the ledger is re-credited when the
//      query's relations die.
//   2. While the global ledger sits in its pressure band (or the pending
//      bound is hit), new submissions shed with
//      "ERR Unavailable retry_after_ms=<N> ..." instead of being admitted
//      only to die mid-round.
//   3. The join cursor checks the deadline every few thousand candidate
//      rows, so even a query stuck inside one enormous round stops
//      mid-round instead of at the next round boundary.

#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/memory.h"
#include "engine/registry.h"
#include "frontend/lower.h"
#include "server/limits.h"
#include "server/protocol.h"
#include "server/session.h"

namespace linrec {

class Server {
 public:
  /// What the connection driver should do after a handled line.
  enum class Action { kContinue, kCloseSession, kShutdown };

  explicit Server(ServerLimits limits = {}, EngineOptions engine_options = {})
      : limits_(limits),
        engine_options_(engine_options),
        planner_(engine_options) {
    memory_budget_.set_limit(limits.global_memory_budget);
  }

  const ServerLimits& limits() const { return limits_; }

  /// The server-wide memory ledger every governed query charges into.
  MemoryBudget& global_budget() { return memory_budget_; }

  /// Creates an independent session (the caller owns it; one per
  /// connection/REPL). Thread-safe.
  std::unique_ptr<Session> NewSession();

  /// Handles one request line for `session`, appending reply lines to
  /// `out`. Thread-safe across sessions; a single session must be driven
  /// from one thread at a time.
  Action HandleLine(Session& session, const std::string& line,
                    std::vector<std::string>* out);

  /// Evaluates a batch of pipelined query goals (the driver batches
  /// consecutive "?-" lines; HandleLine submits singletons through here).
  /// One RESULT block or ERR line per goal, in order. Counts against the
  /// pending bound as one unit per goal.
  void SubmitQueries(Session& session, const std::vector<Atom>& goals,
                     std::vector<std::string>* out);

  /// SubmitQueries over raw "?- ..." lines: lines that fail to parse reply
  /// ERR in place, the rest evaluate as one batch. Replies stay in line
  /// order.
  void SubmitQueryLines(Session& session,
                        const std::vector<std::string>& lines,
                        std::vector<std::string>* out);

  Planner& planner() { return planner_; }
  DigestRegistry<CompiledProgram>& registry() { return registry_; }
  /// Queries admitted and not yet completed, across sessions.
  std::size_t pending() const {
    return static_cast<std::size_t>(pending_.load());
  }

 private:
  void HandleLoadEnd(Session& session, std::vector<std::string>* out);
  /// Admission control shared by goals and fact updates: sheds `units`
  /// under memory pressure, and admits them against the pending bound as
  /// a whole or not at all. OK means the caller holds `units` pending
  /// slots and releases them when done; otherwise an Unavailable status
  /// that leads with the retry hint.
  Status Admit(std::size_t units);
  /// The shared evaluation core: admission control, the request's
  /// deadline token, EvalQueries. One Result per goal (Unavailable on
  /// rejection).
  std::vector<Result<QueryResult>> EvaluateGoals(Session& session,
                                                 const std::vector<Atom>& goals);
  /// Counts a failed goal or fact update: a budget denial into
  /// queries_exhausted, a blown deadline into queries_timed_out.
  void CountFailure(const Status& status);
  void HandleSet(Session& session, const std::string& args,
                 std::vector<std::string>* out);
  void HandleStats(Session& session, std::vector<std::string>* out);
  void HandleMetrics(std::vector<std::string>* out);
  void HandleExplain(Session& session, std::vector<std::string>* out);
  /// INSERT/DELETE share one resource-governed path: validation happens
  /// before any session state is touched (malformed input replies ERR
  /// InvalidArgument and changes nothing), then the update runs under the
  /// same shedding / admission / deadline / budget regime as a query.
  void HandleFactUpdate(Session& session, const std::string& text,
                        bool insert, std::vector<std::string>* out);
  /// Formats one goal's outcome (RESULT block with the session's row cap,
  /// or an ERR line).
  void AppendOutcome(Session& session, const Atom& goal,
                     const Result<QueryResult>& outcome,
                     std::vector<std::string>* out);

  ServerLimits limits_;
  EngineOptions engine_options_;
  Planner planner_;
  DigestRegistry<CompiledProgram> registry_;
  /// Global ledger across every in-flight query's relation growth.
  MemoryBudget memory_budget_;
  std::atomic<long> pending_{0};
  std::atomic<long> next_session_{0};
  std::atomic<long> queries_served_{0};
  std::atomic<long> queries_rejected_{0};
  /// Goals and fact updates that died on a budget denial
  /// (ERR ResourceExhausted).
  std::atomic<long> queries_exhausted_{0};
  /// Goals and fact updates that died on their deadline
  /// (ERR DeadlineExceeded).
  std::atomic<long> queries_timed_out_{0};
  /// Submissions turned away under memory pressure (ERR Unavailable).
  std::atomic<long> queries_shed_{0};
  // Incremental-maintenance counters across sessions: views extended by
  // INSERT, views retracted by DELETE, and suspect tuples DELETE kept
  // because an alternative derivation survived.
  std::atomic<long> ivm_applied_{0};
  std::atomic<long> ivm_retracted_{0};
  std::atomic<long> ivm_rederived_{0};
};

}  // namespace linrec
