// End-to-end tests for the linrecd front door (src/server/): the text
// protocol, LOAD-block compilation through the shared program registry,
// pipelined query batches, per-session deadline and row-cap limits,
// admission control, replies independent of the worker count, and the
// plan-cache-miss=1 guarantee across N concurrent sessions submitting the
// same program.

#include "server/server.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "real_threads.h"
#include "server/protocol.h"

namespace linrec {
namespace {

/// The transitive closure of the chain 1→2→3→4 (6 result rows).
const char* kTcProgram =
    "edge(1, 2). edge(2, 3). edge(3, 4).\n"
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n";

/// Drives `lines` through HandleLine one at a time, collecting replies.
std::vector<std::string> Drive(Server& server, Session& session,
                               const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const std::string& line : lines) server.HandleLine(session, line, &out);
  return out;
}

/// LOADs `program` into `session`, expecting an "OK loaded" reply.
void Load(Server& server, Session& session, const std::string& program) {
  std::vector<std::string> out;
  server.HandleLine(session, "LOAD", &out);
  for (std::size_t begin = 0; begin <= program.size();) {
    std::size_t end = program.find('\n', begin);
    if (end == std::string::npos) end = program.size();
    server.HandleLine(session, program.substr(begin, end - begin), &out);
    begin = end + 1;
  }
  server.HandleLine(session, "END", &out);
  ASSERT_FALSE(out.empty());
  ASSERT_EQ(out.front().rfind("OK loaded", 0), 0u) << out.front();
}

bool IsErr(const std::string& reply, const std::string& code) {
  return reply.rfind(StrCat("ERR ", code), 0) == 0;
}

TEST(ServerTest, FactAndQueryRoundTrip) {
  Server server;
  auto session = server.NewSession();
  Load(server, *session, kTcProgram);

  std::vector<std::string> out =
      Drive(server, *session, {"?- tc(X, Y)."});
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), "RESULT tc/2 rows=6 truncated=0");
  EXPECT_EQ(out.back(), ".");
  EXPECT_EQ(out.size(), 8u);  // header + 6 rows + terminator

  // σ bind on each position, and a repeated-variable goal.
  out = Drive(server, *session, {"?- tc(1, Y)."});
  EXPECT_EQ(out.front(), "RESULT tc/2 rows=3 truncated=0");
  out = Drive(server, *session, {"?- tc(X, 4)."});
  EXPECT_EQ(out.front(), "RESULT tc/2 rows=3 truncated=0");
  out = Drive(server, *session, {"?- tc(X, X)."});
  EXPECT_EQ(out.front(), "RESULT tc/2 rows=0 truncated=0");

  // Incremental FACT invalidates prior materialization.
  out = Drive(server, *session, {"FACT edge(4, 5).", "?- tc(1, Y)."});
  EXPECT_EQ(out.front(), "OK fact");
  EXPECT_EQ(out[1], "RESULT tc/2 rows=4 truncated=0");
}

TEST(ServerTest, MalformedProgramRepliesErrorAndServerSurvives) {
  Server server;
  auto session = server.NewSession();
  std::vector<std::string> out = Drive(
      server, *session, {"LOAD", "this is not datalog(", "END"});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(IsErr(out.front(), "ParseError")) << out.front();

  // Nonlinear rules, and a predicate used at two arities anywhere in the
  // rules, are rejected at compile time, not at parse time.
  for (const char* rule : {"p(X, Y) :- p(X, Z), p(Z, Y).", "q(X) :- tc(X).",
                           "tc(X, Y) :- tc(X, Z), edge(Z, Y, W)."}) {
    out = Drive(server, *session,
                {"LOAD", "tc(X, Y) :- edge(X, Y).",
                 "tc(X, Y) :- tc(X, Z), edge(Z, Y).", rule, "END"});
    ASSERT_EQ(out.size(), 1u) << rule;
    EXPECT_TRUE(IsErr(out.front(), "InvalidArgument")) << out.front();
  }

  // The session (and server) keep serving after both failures.
  Load(server, *session, kTcProgram);
  out = Drive(server, *session, {"?- tc(1, Y)."});
  EXPECT_EQ(out.front(), "RESULT tc/2 rows=3 truncated=0");
}

TEST(ServerTest, UnknownCommandAndBadClausesReplyError) {
  Server server;
  auto session = server.NewSession();
  std::vector<std::string> out = Drive(
      server, *session,
      {"FROBNICATE", "FACT tc(X, 1).", "?- tc(1, Y", "END", "% comment", ""});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(IsErr(out[0], "InvalidArgument"));  // unknown command
  EXPECT_TRUE(IsErr(out[1], "ParseError"));       // non-ground fact
  EXPECT_TRUE(IsErr(out[2], "ParseError"));       // unterminated goal
  EXPECT_TRUE(IsErr(out[3], "InvalidArgument"));  // END outside LOAD
}

TEST(ServerTest, OutOfRangeIntegerRepliesParseErrorAndSessionSurvives) {
  // A literal past int64 is a typed parse error on every verb that parses
  // clauses; the session answers its next line.
  Server server;
  auto session = server.NewSession();
  Load(server, *session, kTcProgram);
  const std::vector<std::vector<std::string>> requests = {
      {"FACT edge(99999999999999999999, 1)."},
      {"INSERT edge(1, 9223372036854775808)."},
      {"DELETE edge(-9223372036854775809, 1)."},
      {"LOAD", "edge(1, 2).", "edge(18446744073709551616, 3).", "END"},
      {"?- tc(99999999999999999999, Y)."}};
  for (const std::vector<std::string>& request : requests) {
    std::vector<std::string> out = Drive(server, *session, request);
    ASSERT_EQ(out.size(), 1u) << request.front();
    EXPECT_TRUE(IsErr(out.front(), "ParseError")) << out.front();
    EXPECT_NE(out.front().find("integer out of range"), std::string::npos)
        << out.front();
    EXPECT_EQ(Drive(server, *session, {"PING"}),
              std::vector<std::string>{"OK pong"});
  }
  // Nothing of the rejected requests landed.
  std::vector<std::string> out = Drive(server, *session, {"?- tc(X, Y)."});
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), "RESULT tc/2 rows=6 truncated=0");
}

TEST(ServerTest, EndDetectionMatchesTheRequestParser) {
  // Inside a LOAD block a line closes the block exactly when the request
  // parser reads it as END; every other line is program text, which the
  // block's next END parses.
  struct Case {
    const char* line;
    bool closes;
    /// The reply to the line when it closes the block, else to the END
    /// after it.
    const char* reply;
  };
  const char* kOneFact = "OK loaded rules=0 facts=1 queries=0";
  const char* kNotAnAtom =
      "ERR ParseError 2:1: expected predicate name (lowercase identifier)";
  const Case cases[] = {
      {"END", true, kOneFact},
      {"end", true, kOneFact},
      {"  End  ", true, kOneFact},
      {"\tEND", true, kOneFact},
      {"END trailing", true, kOneFact},
      {"ENDX", false, kNotAnAtom},
      {"END.", false, kNotAnAtom},
      {"% END", false, kOneFact},
      {"e(1, 2).", false, "OK loaded rules=0 facts=2 queries=0"},
  };
  for (const Case& c : cases) {
    Result<Request> request = ParseRequestLine(c.line);
    EXPECT_EQ(request.ok() && request->kind == RequestKind::kEnd, c.closes)
        << c.line;
    EXPECT_EQ(IsEndLine(c.line), c.closes) << c.line;

    Server server;
    auto session = server.NewSession();
    std::vector<std::string> out =
        Drive(server, *session, {"LOAD", "e(1, 2).", c.line});
    EXPECT_EQ(session->in_load(), !c.closes) << c.line;
    if (!c.closes) {
      EXPECT_TRUE(out.empty()) << c.line;
      out = Drive(server, *session, {"END"});
    }
    EXPECT_EQ(out, std::vector<std::string>{c.reply}) << c.line;
  }
}

TEST(ServerTest, DeadlineExpiryRepliesWithoutKillingOtherQueries) {
  Server server;
  auto session = server.NewSession();
  Load(server, *session, kTcProgram);

  // timeout_ms=0 arms an already-expired token: the closure's first round
  // boundary observes it deterministically.
  std::vector<std::string> out = Drive(
      server, *session, {"SET timeout_ms 0", "?- tc(X, Y)."});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK set timeout_ms=0");
  EXPECT_TRUE(IsErr(out[1], "DeadlineExceeded")) << out[1];

  // A batch neighbour on a fresh session is untouched by the expiry.
  auto other = server.NewSession();
  Load(server, *other, kTcProgram);
  out = Drive(server, *other, {"?- tc(X, Y)."});
  EXPECT_EQ(out.front(), "RESULT tc/2 rows=6 truncated=0");

  // Disarming the deadline restores service on the same session too.
  out = Drive(server, *session, {"SET timeout_ms -1", "?- tc(X, Y)."});
  EXPECT_EQ(out[0], "OK set timeout_ms=-1");
  EXPECT_EQ(out[1], "RESULT tc/2 rows=6 truncated=0");
}

TEST(ServerTest, ResultCapTruncationIsFlagged) {
  Server server;
  auto session = server.NewSession();
  Load(server, *session, kTcProgram);
  std::vector<std::string> out = Drive(
      server, *session, {"SET max_rows 2", "?- tc(X, Y)."});
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0], "OK set max_rows=2");
  EXPECT_EQ(out[1], "RESULT tc/2 rows=2 truncated=1");
  EXPECT_EQ(out[4], ".");

  // Raising the cap restores the full result.
  out = Drive(server, *session, {"SET max_rows 100", "?- tc(X, Y)."});
  EXPECT_EQ(out[1], "RESULT tc/2 rows=6 truncated=0");
}

TEST(ServerTest, TruncatedReplyIsByteIdenticalAcrossWorkerCounts) {
  // Pipelined point goals, which run as the slots of one batch, then a
  // goal of a few thousand rows cut by max_rows: a server at
  // parallel_workers 8 must stream the 1-worker reply line for line — the
  // same rows, in the same order, truncated at the same row. Helper
  // threads are forced on, so the batch fans out even on one core.
  RealThreads threads;
  std::string program =
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), e(Z, Y).\n";
  const int nodes = 60;
  for (int i = 0; i < nodes; ++i) {
    for (int step : {7, 13, 31}) {
      program += StrCat("e(", i, ", ", (i * step + 1) % nodes, ").\n");
    }
  }
  auto reply = [&](int workers) {
    EngineOptions options;
    options.parallel_workers = workers;
    Server server(ServerLimits{}, options);
    auto session = server.NewSession();
    Load(server, *session, program);
    std::vector<std::string> out =
        Drive(server, *session, {"SET max_rows 2000"});
    server.SubmitQueryLines(
        *session, {"?- tc(0, Y).", "?- tc(7, Y).", "?- tc(31, Y)."}, &out);
    server.HandleLine(*session, "?- tc(X, Y).", &out);
    return out;
  };
  const std::vector<std::string> serial = reply(1);
  ASSERT_GT(serial.size(), 2003u);
  EXPECT_EQ(serial[0], "OK set max_rows=2000");
  EXPECT_EQ(std::count_if(serial.begin(), serial.end(),
                          [](const std::string& line) {
                            return line.rfind("RESULT tc/2 ", 0) == 0;
                          }),
            4);
  // The full goal's header, 2000 rows and "." close the reply.
  EXPECT_EQ(serial[serial.size() - 2002], "RESULT tc/2 rows=2000 truncated=1");
  EXPECT_EQ(reply(8), serial);
}

TEST(ServerTest, RowCapBoundsSelectionOnMaterializedView) {
  Server server;
  auto session = server.NewSession();
  Load(server, *session, kTcProgram);
  // The full goal materializes the view; its reply lists the view in
  // order.
  std::vector<std::string> out = Drive(server, *session, {"?- tc(X, Y)."});
  std::vector<std::string> from_one;
  for (const std::string& line : out) {
    if (line.rfind("1 ", 0) == 0) from_one.push_back(line);
  }
  ASSERT_EQ(from_one.size(), 3u);

  // A σ goal on the materialized view stops at the cap and keeps view
  // order.
  out = Drive(server, *session, {"SET max_rows 2", "?- tc(1, Y)."});
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[1], "RESULT tc/2 rows=2 truncated=1");
  EXPECT_EQ(out[2], from_one[0]);
  EXPECT_EQ(out[3], from_one[1]);
  EXPECT_EQ(out[4], ".");
}

TEST(ServerTest, FormatRowMatchesStreamFormatting) {
  const std::vector<Value> values = {std::numeric_limits<Value>::min(), -1, 0,
                                     std::numeric_limits<Value>::max()};
  for (std::size_t arity = 1; arity <= 3; ++arity) {
    // Every arity-length sequence over `values`.
    std::vector<std::size_t> pick(arity, 0);
    while (true) {
      std::vector<Value> row;
      std::ostringstream expected;
      for (std::size_t i = 0; i < arity; ++i) {
        row.push_back(values[pick[i]]);
        if (i > 0) expected << ' ';
        expected << values[pick[i]];
      }
      const Tuple tuple(row);
      EXPECT_EQ(FormatRow(TupleView(tuple.data(), arity)), expected.str());
      std::size_t i = 0;
      while (i < arity && ++pick[i] == values.size()) pick[i++] = 0;
      if (i == arity) break;
    }
  }
}

TEST(ServerTest, PipelinedQueryLinesKeepReplyOrder) {
  Server server;
  auto session = server.NewSession();
  Load(server, *session, kTcProgram);
  std::vector<std::string> out;
  server.SubmitQueryLines(
      *session,
      {"?- tc(1, Y).", "?- tc(1, Y", "?- tc(X, 4).", "?- nope(X)."},
      &out);
  // Slot 0: 3 rows; slot 1: parse error in place; slot 2: 3 rows;
  // slot 3: unknown predicate.
  ASSERT_EQ(out.size(), 12u);
  EXPECT_EQ(out[0], "RESULT tc/2 rows=3 truncated=0");
  EXPECT_EQ(out[4], ".");
  EXPECT_TRUE(IsErr(out[5], "ParseError")) << out[5];
  EXPECT_EQ(out[6], "RESULT tc/2 rows=3 truncated=0");
  EXPECT_EQ(out[10], ".");
  EXPECT_TRUE(IsErr(out[11], "NotFound")) << out[11];
}

TEST(ServerTest, AdmissionControlRejectsPastPendingBound) {
  ServerLimits limits;
  limits.max_pending = 0;
  Server server(limits);
  auto session = server.NewSession();
  Load(server, *session, kTcProgram);
  std::vector<std::string> out = Drive(server, *session, {"?- tc(X, Y)."});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(IsErr(out.front(), "Unavailable")) << out.front();
  EXPECT_EQ(server.pending(), 0u);
}

TEST(ServerTest, SessionLifecycleActions) {
  Server server;
  auto session = server.NewSession();
  std::vector<std::string> out;
  EXPECT_EQ(server.HandleLine(*session, "PING", &out),
            Server::Action::kContinue);
  EXPECT_EQ(out.back(), "OK pong");
  EXPECT_EQ(server.HandleLine(*session, "QUIT", &out),
            Server::Action::kCloseSession);
  EXPECT_EQ(out.back(), "OK bye");
  EXPECT_EQ(server.HandleLine(*session, "SHUTDOWN", &out),
            Server::Action::kShutdown);
  EXPECT_EQ(out.back(), "OK shutdown");
}

TEST(ServerTest, EmbeddedLoadQueriesAndExplain) {
  Server server;
  auto session = server.NewSession();
  std::vector<std::string> out = Drive(
      server, *session,
      {"LOAD", "edge(1, 2). edge(2, 3).", "tc(X, Y) :- edge(X, Y).",
       "tc(X, Y) :- tc(X, Z), edge(Z, Y).", "?- tc(1, Y).", "END"});
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[0], "OK loaded rules=2 facts=2 queries=1");
  EXPECT_EQ(out[1], "RESULT tc/2 rows=2 truncated=0");

  out = Drive(server, *session, {"EXPLAIN"});
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out.front(), "OK explain");
  EXPECT_EQ(out.back(), ".");
  const std::string joined = [&] {
    std::string j;
    for (const std::string& line : out) j += line + "\n";
    return j;
  }();
  EXPECT_NE(joined.find("tc"), std::string::npos);
}

TEST(ServerTest, StatsReportRegistryAndPlannerCounters) {
  Server server;
  auto session = server.NewSession();
  Load(server, *session, kTcProgram);
  Drive(server, *session, {"?- tc(X, Y)."});
  std::vector<std::string> out = Drive(server, *session, {"STATS"});
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), "OK stats");
  EXPECT_EQ(out.back(), ".");
  auto has = [&](const std::string& line) {
    return std::find(out.begin(), out.end(), line) != out.end();
  };
  EXPECT_TRUE(has("programs=1"));
  EXPECT_TRUE(has("program_misses=1"));
  EXPECT_TRUE(has("queries_served=1"));
  EXPECT_TRUE(has("session_queries=1"));
}

/// Collects the sorted row lines of a single-query reply (strips the
/// RESULT header and the "." terminator) so maintained and recomputed
/// answers compare deterministically.
std::vector<std::string> SortedRows(Server& server, Session& session,
                                    const std::string& goal) {
  std::vector<std::string> out = Drive(server, session, {goal});
  EXPECT_GE(out.size(), 2u);
  EXPECT_EQ(out.front().rfind("RESULT", 0), 0u) << out.front();
  std::vector<std::string> rows(out.begin() + 1, out.end() - 1);
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ServerTest, InsertMaintainsMaterializedViewIncrementally) {
  Server server;
  auto session = server.NewSession();
  Load(server, *session, kTcProgram);
  // First query materializes tc; INSERT must now maintain it in place
  // (unlike FACT, which drops the materialization and recomputes).
  Drive(server, *session, {"?- tc(X, Y)."});

  std::vector<std::string> out =
      Drive(server, *session, {"INSERT edge(4, 5)."});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front(), "OK insert applied=1 views=1 added=4") << out.front();

  // The maintained answer equals a from-scratch session given all facts.
  Server fresh_server;
  auto fresh = fresh_server.NewSession();
  Load(fresh_server, *fresh, StrCat(kTcProgram, "edge(4, 5).\n"));
  EXPECT_EQ(SortedRows(server, *session, "?- tc(X, Y)."),
            SortedRows(fresh_server, *fresh, "?- tc(X, Y)."));

  // Re-inserting is an idempotent no-op.
  out = Drive(server, *session, {"INSERT edge(4, 5)."});
  EXPECT_EQ(out.front(), "OK insert applied=0 views=0 added=0");

  out = Drive(server, *session, {"STATS"});
  EXPECT_NE(std::find(out.begin(), out.end(), "ivm_applied=1"), out.end());
}

TEST(ServerTest, DeleteRetractsDerivationsAndRederives) {
  Server server;
  auto session = server.NewSession();
  Load(server, *session, StrCat(kTcProgram, "edge(1, 3).\n"));
  Drive(server, *session, {"?- tc(X, Y)."});

  // Deleting edge(2,3) kills tc(2,3)/tc(2,4) but tc(1,3)/tc(1,4) survive
  // through the direct edge(1,3) — the re-derive half of DRed.
  std::vector<std::string> out =
      Drive(server, *session, {"DELETE edge(2, 3)."});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front().rfind("OK delete removed=1 views=1", 0), 0u)
      << out.front();

  Server fresh_server;
  auto fresh = fresh_server.NewSession();
  Load(fresh_server, *fresh,
       "edge(1, 2). edge(3, 4). edge(1, 3).\n"
       "tc(X, Y) :- edge(X, Y).\n"
       "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n");
  EXPECT_EQ(SortedRows(server, *session, "?- tc(X, Y)."),
            SortedRows(fresh_server, *fresh, "?- tc(X, Y)."));

  // Deleting an absent fact is an idempotent no-op.
  out = Drive(server, *session, {"DELETE edge(9, 9)."});
  EXPECT_EQ(out.front(), "OK delete removed=0 views=0 retracted=0 rederived=0");

  out = Drive(server, *session, {"STATS"});
  EXPECT_NE(std::find(out.begin(), out.end(), "ivm_retracted=1"), out.end());
}

TEST(ServerTest, InsertValidationRejectsWithoutTouchingSessionState) {
  Server server;
  auto session = server.NewSession();
  Load(server, *session, kTcProgram);
  const std::vector<std::string> before =
      SortedRows(server, *session, "?- tc(X, Y).");

  // Every malformed shape replies ERR InvalidArgument (or ParseError for
  // unparsable text) and leaves the session untouched.
  std::vector<std::string> out = Drive(
      server, *session,
      {"INSERT", "INSERT edge(X, 2).", "INSERT tc(1, 2).",
       "INSERT edge(1, 2, 3).", "INSERT edge(1, 2). edge(3, 4).",
       "INSERT ?- tc(X, Y).", "DELETE edge(X, 2).", "DELETE tc(1, 2)."});
  ASSERT_EQ(out.size(), 8u);
  for (const std::string& reply : out) {
    EXPECT_TRUE(IsErr(reply, "InvalidArgument") || IsErr(reply, "ParseError"))
        << reply;
  }

  EXPECT_EQ(SortedRows(server, *session, "?- tc(X, Y)."), before);
  out = Drive(server, *session, {"STATS"});
  EXPECT_NE(std::find(out.begin(), out.end(), "ivm_applied=0"), out.end());
  EXPECT_NE(std::find(out.begin(), out.end(), "ivm_retracted=0"), out.end());
}

TEST(ServerTest, FactAtAnotherArityThanTheProgramIsRejected) {
  // No edge fact has arrived yet, so only the loaded rules know edge's
  // arity; a wider fact must not land and break every later goal.
  Server server;
  auto session = server.NewSession();
  Load(server, *session,
       "tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- tc(X, Z), edge(Z, Y).\n");
  std::vector<std::string> out = Drive(
      server, *session, {"INSERT edge(1, 2, 3).", "FACT edge(1, 2, 3)."});
  ASSERT_EQ(out.size(), 2u);
  for (const std::string& reply : out) {
    EXPECT_TRUE(IsErr(reply, "InvalidArgument")) << reply;
  }

  out = Drive(server, *session, {"INSERT edge(1, 2).", "?- tc(X, Y)."});
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front().rfind("OK insert applied=1", 0), 0u) << out.front();
  const std::vector<std::string> answer = {"RESULT tc/2 rows=1 truncated=0",
                                           "1 2", "."};
  EXPECT_EQ(std::vector<std::string>(out.begin() + 1, out.end()), answer);
}

/// The tc rules over e/2, as LOAD block lines.
const std::vector<std::string> kTcRuleLines = {
    "tc(X, Y) :- e(X, Y).", "tc(X, Y) :- tc(X, Z), e(Z, Y)."};

/// A LOAD block of the tc rules followed by `facts`.
std::vector<std::string> TcLoadBlock(const std::vector<std::string>& facts) {
  std::vector<std::string> lines = {"LOAD"};
  lines.insert(lines.end(), kTcRuleLines.begin(), kTcRuleLines.end());
  lines.insert(lines.end(), facts.begin(), facts.end());
  lines.push_back("END");
  return lines;
}

/// A session with no program: a goal and EXPLAIN both say so.
void ExpectNoProgram(Server& server, Session& session) {
  for (const char* line : {"?- tc(X, Y).", "EXPLAIN"}) {
    EXPECT_EQ(Drive(server, session, {line}),
              std::vector<std::string>{
                  "ERR InvalidArgument no program loaded"})
        << line;
  }
}

/// After a rejected LOAD, the tc rules load alone and find no e fact: no
/// fact of the rejected LOAD landed.
void ExpectNoEdges(Server& server, Session& session) {
  EXPECT_EQ(Drive(server, session, TcLoadBlock({})),
            std::vector<std::string>{"OK loaded rules=2 facts=0 queries=0"});
  std::vector<std::string> out = Drive(server, session, {"?- tc(X, Y)."});
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), "RESULT tc/2 rows=0 truncated=0");
}

TEST(ServerTest, LoadWithADerivedFactChangesNothing) {
  Server server;
  auto session = server.NewSession();
  std::vector<std::string> out = Drive(
      server, *session, TcLoadBlock({"e(1, 2).", "tc(5, 6).", "e(2, 3)."}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front().rfind(
                "ERR InvalidArgument predicate 'tc' is derived", 0),
            0u)
      << out.front();
  ExpectNoProgram(server, *session);
  ExpectNoEdges(server, *session);
}

TEST(ServerTest, LoadWithAFactAtAnotherArityChangesNothing) {
  Server server;
  auto session = server.NewSession();
  std::vector<std::string> out =
      Drive(server, *session, TcLoadBlock({"e(1, 2).", "e(1, 2, 3)."}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front(),
            "ERR InvalidArgument fact for 'e' has arity 3, the loaded "
            "program uses 2");
  ExpectNoProgram(server, *session);
  ExpectNoEdges(server, *session);
}

TEST(ServerTest, LoadOverEarlierFactsAtAnotherArityIsRejected) {
  // The fact lands before any program; rules that read e at arity 2 must
  // not load over it and break every later goal.
  Server server;
  auto session = server.NewSession();
  std::vector<std::string> out =
      Drive(server, *session, {"FACT e(1, 2, 3)."});
  EXPECT_EQ(out, std::vector<std::string>{"OK fact"});
  out = Drive(server, *session, TcLoadBlock({}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front(),
            "ERR InvalidArgument facts for 'e' have arity 3, the loaded "
            "program uses 2");
  ExpectNoProgram(server, *session);
}

TEST(ServerTest, LoadOverEarlierFactsForADerivedPredicateIsRejected) {
  // The tc fact lands before any program. Rules that derive tc must not
  // load over it: the fact would seed their closure, and FACT tc(...)
  // after the same LOAD is rejected.
  Server server;
  auto session = server.NewSession();
  EXPECT_EQ(Drive(server, *session, {"FACT tc(9, 9)."}),
            std::vector<std::string>{"OK fact"});
  std::vector<std::string> out =
      Drive(server, *session, TcLoadBlock({"e(1, 2).", "e(9, 3)."}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front(),
            "ERR InvalidArgument predicate 'tc' is derived by the loaded "
            "program; the session holds facts for it");
  ExpectNoProgram(server, *session);

  // A tc relation DELETE has emptied holds no facts: the rules load, and
  // no e fact of the rejected LOAD landed.
  out = Drive(server, *session, {"DELETE tc(9, 9)."});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front().rfind("OK delete removed=1", 0), 0u) << out.front();
  ExpectNoEdges(server, *session);
}

TEST(ServerTest, MetricsExportPrometheusTextFormat) {
  Server server;
  auto session = server.NewSession();
  Load(server, *session, kTcProgram);
  Drive(server, *session, {"?- tc(X, Y).", "INSERT edge(4, 5)."});

  std::vector<std::string> out = Drive(server, *session, {"METRICS"});
  ASSERT_GE(out.size(), 3u);
  EXPECT_EQ(out.front(), "OK metrics");
  EXPECT_EQ(out.back(), ".");
  auto has = [&](const std::string& line) {
    return std::find(out.begin(), out.end(), line) != out.end();
  };
  EXPECT_TRUE(has("# TYPE linrec_queries_served counter"));
  EXPECT_TRUE(has("linrec_queries_served 1"));
  EXPECT_TRUE(has("# TYPE linrec_ivm_applied counter"));
  EXPECT_TRUE(has("linrec_ivm_applied 1"));
  EXPECT_TRUE(has("# TYPE linrec_pending gauge"));
  EXPECT_TRUE(has("linrec_pending 0"));
  // Every non-frame line is a comment or a "linrec_<name> <value>" sample.
  for (std::size_t i = 1; i + 1 < out.size(); ++i) {
    EXPECT_TRUE(out[i].rfind("# TYPE linrec_", 0) == 0 ||
                out[i].rfind("linrec_", 0) == 0)
        << out[i];
  }
}

/// The tentpole acceptance test: N concurrent sessions submit the same TC
/// program and query it; the program compiles exactly once (one registry
/// miss, one planner plan-cache miss for the closure), and every session
/// sees exactly the serial answer.
TEST(ServerTest, ConcurrentSessionsShareOnePlanCompilation) {
  constexpr int kSessions = 8;
  Server server;

  // The serial reference answer.
  std::vector<std::string> expected;
  {
    Server reference;
    auto session = reference.NewSession();
    Load(reference, *session, kTcProgram);
    expected = Drive(reference, *session, {"?- tc(X, Y)."});
    ASSERT_EQ(expected.front(), "RESULT tc/2 rows=6 truncated=0");
  }

  std::vector<std::vector<std::string>> replies(kSessions);
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&server, &replies, i] {
      auto session = server.NewSession();
      Load(server, *session, kTcProgram);
      replies[i] = Drive(server, *session, {"?- tc(X, Y)."});
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kSessions; ++i) {
    // Rows may arrive in any storage order; compare as sets.
    std::vector<std::string> got = replies[i];
    std::vector<std::string> want = expected;
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got.front(), want.front());  // identical RESULT header
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "session " << i;
  }

  // One compile for all eight sessions: one registry miss (the program)
  // and one planner plan-cache miss (its recursive closure).
  EXPECT_EQ(server.registry().misses(), 1u);
  EXPECT_EQ(server.registry().hits(), static_cast<std::size_t>(kSessions - 1));
  EXPECT_EQ(server.planner().plan_cache_misses(), 1u);
}

}  // namespace
}  // namespace linrec
