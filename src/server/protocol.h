// linrecd wire protocol: line-delimited text, identical over every front
// (file script, stdin REPL, TCP socket).
//
// Requests, one per line (blank lines and "% comment" lines are ignored):
//
//   LOAD                  starts a program block; subsequent lines are
//     <datalog text>      buffered verbatim until
//   END                   parses the block: rules are compiled (or fetched
//                         from the shared registry by program digest),
//                         facts become session facts, "?-" goals run
//   FACT p(1, 2).         adds one ground fact to the session
//   INSERT p(1, 2).       adds one ground fact AND incrementally maintains
//                         every materialized view (Engine::Apply cascade)
//   DELETE p(1, 2).       removes one ground fact, retracting its
//                         derivations via delete-and-rederive
//   ?- p(X, 5).           evaluates one goal (consecutive goal lines are
//                         batched through Engine::ExecuteBatchEach)
//   EXPLAIN               prints the loaded program's plan explanations
//   SET timeout_ms 50     per-session limits (also SET max_rows N;
//                         "SET key=value" is accepted too)
//   STATS                 server + session counters
//   METRICS               the STATS counters in Prometheus text format
//   RESET                 drops the session's program and facts
//   PING                  liveness probe
//   QUIT                  ends the session
//   SHUTDOWN              stops the server (socket mode)
//
// Replies:
//
//   OK <detail>
//   ERR <StatusCodeName> <message>        (message newline-sanitized)
//   RESULT <pred>/<arity> rows=<n> truncated=<0|1>
//   <v_1> ... <v_arity>                   (one line per row, then)
//   .
//
// Multi-line OK payloads (EXPLAIN, STATS) are also "."-terminated.

#pragma once

#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/relation.h"

namespace linrec {

/// The classified form of one request line.
enum class RequestKind {
  kEmpty,     // blank or comment: no reply
  kLoad,      // LOAD — begins a program block
  kEnd,       // END — closes a program block
  kFact,      // FACT <atom>.
  kInsert,    // INSERT <atom>. — fact + incremental view maintenance
  kDelete,    // DELETE <atom>. — fact removal + delete-and-rederive
  kQuery,     // ?- <atom>.
  kExplain,
  kSet,       // SET <key> <value>
  kStats,
  kMetrics,   // METRICS — Prometheus text exposition of the counters
  kReset,
  kPing,
  kQuit,
  kShutdown,
};

struct Request {
  RequestKind kind = RequestKind::kEmpty;
  /// kFact/kInsert/kDelete/kQuery: the clause text (with the keyword
  /// stripped for FACT/INSERT/DELETE).
  /// kSet: "<key> <value>" normalized ('=' replaced by space).
  std::string text;
};

/// Classifies one input line. Unknown commands yield InvalidArgument (the
/// caller formats it as an ERR reply). Never returns kEnd/kLoad confusion:
/// block state lives in the session, not here.
Result<Request> ParseRequestLine(const std::string& line);

/// True exactly when ParseRequestLine classifies `line` as kEnd: after
/// leading whitespace, the first whitespace-delimited word is "END" in any
/// case. Allocates nothing, so a LOAD block pays one scan per body line.
bool IsEndLine(std::string_view line);

/// A fully validated SET request.
struct SetArgs {
  std::string key;
  long value = 0;
};

/// Parses and validates "<key> <value>" from a kSet request's text, at the
/// protocol layer — before any session state is touched. Typed
/// InvalidArgument on: missing value, non-integer value, unknown key,
/// negative max_rows / memory_budget, timeout_ms above one day. A valid
/// result is safe to apply directly (every negative timeout_ms, meaning
/// no deadline, is normalized to -1; memory_budget 0 = unlimited).
Result<SetArgs> ParseSetArgs(const std::string& args);

/// "ERR <StatusCodeName> <sanitized message>".
std::string FormatError(const Status& status);

/// "RESULT <pred>/<arity> rows=<n> truncated=<0|1>". `rows` is the emitted
/// (post-cap) count.
std::string FormatResultHeader(const std::string& predicate,
                               std::size_t arity, std::size_t rows,
                               bool truncated);

/// One result row: values space-separated.
std::string FormatRow(TupleView row);

/// Replaces newlines (which would desynchronize the line protocol) with
/// spaces.
std::string SanitizeMessage(std::string message);

}  // namespace linrec
