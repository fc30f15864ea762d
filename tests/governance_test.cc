// Resource-governance tests: memory budgets (per-query + global ledger),
// typed ResourceExhausted surfacing, cache integrity after an aborted
// fixpoint (a follow-up query must be byte-identical to an unbudgeted
// run), deadlines that stop a join mid-round, and the server-level
// ladder — SET memory_budget, overload shedding with a retry hint,
// protocol-layer SET validation, and pressure and deadline counters in
// STATS.

#include "common/memory.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "eval/apply.h"
#include "server/server.h"
#include "workload/graphs.h"

namespace linrec {
namespace {

LinearRule LR(const std::string& text) {
  auto lr = ParseLinearRule(text);
  EXPECT_TRUE(lr.ok()) << lr.status();
  return *lr;
}

Engine ChainEngine(int n) {
  Engine engine;
  engine.db().GetOrCreate("e", 2) = ChainGraph(n);
  return engine;
}

Relation SeedZero() {
  Relation q(2);
  q.Insert({0, 0});
  return q;
}

/// A chain program large enough that its tc closure cannot fit in a
/// few-KB budget (n nodes → n(n-1)/2 tc rows).
std::string ChainProgram(int n) {
  std::string text;
  for (int i = 1; i < n; ++i) {
    text += StrCat("edge(", i, ", ", i + 1, ").\n");
  }
  text +=
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n";
  return text;
}

/// Drives `lines` through HandleLine one at a time, collecting replies.
std::vector<std::string> Drive(Server& server, Session& session,
                               const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const std::string& line : lines) server.HandleLine(session, line, &out);
  return out;
}

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

TEST(MemoryBudgetTest, ChargesReleasesAndPressureBand) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.TryCharge(800));
  EXPECT_EQ(budget.used(), 800u);
  EXPECT_FALSE(budget.under_pressure());  // band starts at 875
  EXPECT_FALSE(budget.TryCharge(300));    // would cross the limit
  EXPECT_EQ(budget.used(), 800u);         // denied charge rolled back
  EXPECT_TRUE(budget.TryCharge(100));
  EXPECT_TRUE(budget.under_pressure());
  budget.Release(900);
  EXPECT_EQ(budget.used(), 0u);

  MemoryBudget unlimited;
  EXPECT_TRUE(unlimited.TryCharge(1u << 30));
  EXPECT_FALSE(unlimited.under_pressure());
}

TEST(QueryBudgetTest, DestructorReleasesExactlyWhatTheParentAccepted) {
  MemoryBudget global(100000);
  {
    QueryBudget query(/*limit_bytes=*/0, &global);
    ScopedQueryBudget scope(&query);
    ChargeBytesOrThrow(4096, FaultSite::kPoolGrowth);
    EXPECT_EQ(query.charged(), 4096u);
    EXPECT_EQ(global.used(), 4096u);
  }
  EXPECT_EQ(global.used(), 0u);  // re-credited when the query died
}

TEST(QueryBudgetTest, TinyBudgetAbortsQueryWithResourceExhausted) {
  Engine engine = ChainEngine(64);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto prepared = engine.Prepare(Query::Closure({tc}));
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  QueryBudget budget(/*limit_bytes=*/256);
  auto result =
      engine.Execute(prepared->Bind().BindSeed(SeedZero()).WithBudget(&budget));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status();
  // Denied charges roll back, so the recorded high water never exceeds the
  // limit (it may be 0 when the very first growth was the one refused).
  EXPECT_LE(budget.charged(), 256u);
}

TEST(QueryBudgetTest, AbortedFixpointLeavesEngineCachesUsable) {
  // Satellite contract: ResourceExhausted mid-fixpoint must leave the plan
  // cache, IndexCache and the prepared program usable — the follow-up
  // (unbudgeted) execution is byte-identical to a never-budgeted engine's.
  Engine engine = ChainEngine(64);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto prepared = engine.Prepare(Query::Closure({tc}));
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  const std::size_t plans_before = engine.plan_cache_size();

  QueryBudget tiny(/*limit_bytes=*/256);
  auto aborted =
      engine.Execute(prepared->Bind().BindSeed(SeedZero()).WithBudget(&tiny));
  ASSERT_FALSE(aborted.ok());
  ASSERT_EQ(aborted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.plan_cache_size(), plans_before);

  auto followup = engine.Execute(prepared->Bind().BindSeed(SeedZero()));
  ASSERT_TRUE(followup.ok()) << followup.status();

  Engine pristine = ChainEngine(64);
  auto clean = pristine.Execute(
      pristine.Prepare(Query::Closure({tc}))->Bind().BindSeed(SeedZero()));
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(followup->relation(), clean->relation());
}

TEST(QueryBudgetTest, GlobalLedgerDeniesAcrossQueries) {
  // Chain 256 from the zero seed grows ~4 KB of pool alone, so the 2 KB
  // *global* ledger is what refuses even though the query cap is unlimited.
  MemoryBudget global(2048);
  Engine engine = ChainEngine(256);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto prepared = engine.Prepare(Query::Closure({tc}));
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  {
    // Unlimited per-query cap; the *global* ledger is what refuses.
    QueryBudget budget(/*limit_bytes=*/0, &global);
    auto result = engine.Execute(
        prepared->Bind().BindSeed(SeedZero()).WithBudget(&budget));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << result.status();
    EXPECT_EQ(global.used(), budget.charged());
  }
  // The dead query re-credited everything; the next governed query gets
  // the full ledger again.
  EXPECT_EQ(global.used(), 0u);
}

TEST(CancellationTest, CancelStopsExecution) {
  Engine engine = ChainEngine(64);
  LinearRule tc = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto prepared = engine.Prepare(Query::Closure({tc}));
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  CancellationToken cancelled;
  cancelled.Cancel();
  auto result = engine.Execute(
      prepared->Bind().BindSeed(SeedZero()).WithCancellation(&cancelled));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << result.status();
}

TEST(CancellationTest, BlownDeadlineStopsTheJoinCursorMidRound) {
  // One Run of a self-join over the complete 100x100 relation: 10,000
  // outer rows, 100 candidates each, 1M candidates in all. A single Run has
  // no round boundary, so only the cursor's own check can stop it.
  Database db;
  Relation& r = db.GetOrCreate("r", 2);
  for (Value x = 0; x < 100; ++x) {
    for (Value y = 0; y < 100; ++y) r.Insert({x, y});
  }
  auto rule = ParseRule("p(X, Y) :- r(X, Z), r(Z, Y).");
  ASSERT_TRUE(rule.ok()) << rule.status();
  auto compiled = CompileRule(*rule, db, {});
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  Relation full(2);
  ClosureStats full_stats;
  ASSERT_TRUE(compiled->Run(&full, &full_stats).ok());
  ASSERT_EQ(full.size(), 10000u);
  ASSERT_GT(full_stats.rows_scanned, 1000000u);

  const CancellationToken expired =
      CancellationToken::WithTimeout(std::chrono::milliseconds(0));
  Relation partial(2);
  ClosureStats partial_stats;
  const Status stopped =
      compiled->Run(&partial, &partial_stats, nullptr, &expired);
  EXPECT_EQ(stopped.code(), StatusCode::kDeadlineExceeded) << stopped;
  EXPECT_GT(partial_stats.rows_scanned, 0u);
  EXPECT_LT(partial_stats.rows_scanned, full_stats.rows_scanned);
  EXPECT_LT(partial.size(), full.size());
}

TEST(ServerGovernanceTest, BudgetExceededRepliesTypedAndOthersUnaffected) {
  const std::string program = ChainProgram(64);

  // Reference: an ungoverned server's replies for the same program+query.
  Server reference;
  auto ref_session = reference.NewSession();
  Load(reference, *ref_session, program);
  const std::vector<std::string> clean =
      Drive(reference, *ref_session, {"?- tc(X, Y)."});
  ASSERT_EQ(clean.front().rfind("RESULT tc/2", 0), 0u) << clean.front();

  Server server;
  auto governed = server.NewSession();
  auto bystander = server.NewSession();
  Load(server, *governed, program);
  Load(server, *bystander, program);

  // The governed session caps itself; its query dies typed.
  std::vector<std::string> out =
      Drive(server, *governed, {"SET memory_budget 1024", "?- tc(X, Y)."});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "OK set memory_budget=1024");
  EXPECT_EQ(out[1].rfind("ERR ResourceExhausted", 0), 0u) << out[1];

  // The ungoverned bystander session is byte-identical to the reference,
  // and the ledger shows nothing leaked.
  EXPECT_EQ(Drive(server, *bystander, {"?- tc(X, Y)."}), clean);
  EXPECT_EQ(server.global_budget().used(), 0u);

  // Lifting the cap restores the governed session, byte for byte.
  out = Drive(server, *governed, {"SET memory_budget 0", "?- tc(X, Y)."});
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(std::vector<std::string>(out.begin() + 1, out.end()), clean);
}

TEST(ServerGovernanceTest, MemoryPressureShedsWithRetryHint) {
  ServerLimits limits;
  limits.global_memory_budget = 1 << 20;
  Server server(limits, {});
  auto session = server.NewSession();
  Load(server, *session, ChainProgram(8));

  // Occupy the ledger into its pressure band; submissions shed with the
  // machine-readable retry hint, before any evaluation work.
  ASSERT_TRUE(server.global_budget().TryCharge((1 << 20) - 1024));
  std::vector<std::string> out = Drive(server, *session, {"?- tc(X, Y)."});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rfind("ERR Unavailable retry_after_ms=100", 0), 0u)
      << out[0];

  // STATS exposes the pressure state and the shed counter.
  out = Drive(server, *session, {"STATS"});
  EXPECT_NE(std::find(out.begin(), out.end(), "mem_pressure=1"), out.end());
  EXPECT_NE(std::find(out.begin(), out.end(), "queries_shed=1"), out.end());
  EXPECT_NE(std::find(out.begin(), out.end(),
                      StrCat("mem_budget_limit=", 1 << 20)),
            out.end());

  // Pressure clears → the same query serves normally.
  server.global_budget().Release((1 << 20) - 1024);
  out = Drive(server, *session, {"?- tc(X, Y)."});
  EXPECT_EQ(out.front().rfind("RESULT tc/2", 0), 0u) << out.front();
}

TEST(ServerGovernanceTest, SetValidationRejectsBadArgsAtProtocolLayer) {
  Server server;
  auto session = server.NewSession();
  std::vector<std::string> out = Drive(
      server, *session,
      {"SET max_rows -1", "SET timeout_ms abc", "SET memory_budget -5",
       "SET bogus_knob 1", "SET max_rows", "SET memory_budget 0",
       "SET timeout_ms -1"});
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out[0].rfind("ERR InvalidArgument", 0), 0u) << out[0];
  EXPECT_NE(out[0].find("max_rows must be >= 0"), std::string::npos);
  EXPECT_EQ(out[1].rfind("ERR InvalidArgument", 0), 0u) << out[1];
  EXPECT_NE(out[1].find("not an integer"), std::string::npos);
  EXPECT_EQ(out[2].rfind("ERR InvalidArgument", 0), 0u) << out[2];
  EXPECT_NE(out[2].find("memory_budget must be >= 0"), std::string::npos);
  EXPECT_EQ(out[3].rfind("ERR InvalidArgument", 0), 0u) << out[3];
  EXPECT_NE(out[3].find("unknown setting"), std::string::npos);
  EXPECT_EQ(out[4].rfind("ERR InvalidArgument", 0), 0u) << out[4];
  // Valid settings still apply (negative timeout = no deadline).
  EXPECT_EQ(out[5], "OK set memory_budget=0");
  EXPECT_EQ(out[6], "OK set timeout_ms=-1");
}

TEST(ServerGovernanceTest, NegativeTimeoutsOfAnyWidthMeanNoDeadline) {
  // Every negative timeout_ms means "no deadline", however wide: the
  // reply names the -1 the session applies. (Narrowed into the session's
  // int, -4294967296 would become 0, already expired, and -4294967295 a
  // 1 ms deadline.)
  Server server;
  auto session = server.NewSession();
  Load(server, *session, ChainProgram(8));
  for (const char* value : {"-4294967296", "-4294967295"}) {
    std::vector<std::string> out = Drive(
        server, *session, {StrCat("SET timeout_ms ", value), "?- tc(1, Y)."});
    ASSERT_EQ(out.size(), 10u) << value;  // ack + header + 7 rows + "."
    EXPECT_EQ(out[0], "OK set timeout_ms=-1") << value;
    EXPECT_EQ(session->timeout_ms(), -1) << value;
    EXPECT_EQ(out[1], "RESULT tc/2 rows=7 truncated=0") << value;
  }
}

TEST(ServerGovernanceTest, RowLimitStreamsWithoutFullMaterialization) {
  // max_rows caps what the reply materializes (cap+1 rows at most — enough
  // to detect truncation) rather than copying the whole closure and
  // cutting afterwards; the wire contract is unchanged.
  Server server;
  auto session = server.NewSession();
  Load(server, *session, ChainProgram(32));
  std::vector<std::string> out =
      Drive(server, *session, {"SET max_rows 5", "?- tc(X, Y)."});
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[1], "RESULT tc/2 rows=5 truncated=1");
  EXPECT_EQ(out.size(), 8u);  // SET ack + header + 5 rows + "."

  // A σ point query obeys the same cap.
  out = Drive(server, *session, {"?- tc(1, Y)."});
  EXPECT_EQ(out.front(), "RESULT tc/2 rows=5 truncated=1");

  // max_rows 0: header only, flagged truncated.
  out = Drive(server, *session, {"SET max_rows 0", "?- tc(1, Y)."});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1], "RESULT tc/2 rows=0 truncated=1");
}

TEST(ServerGovernanceTest, DeadlineBlownRequestsReplyTypedAndAreCounted) {
  Server server;
  auto session = server.NewSession();
  Load(server, *session, ChainProgram(48));

  // timeout_ms=0 arms an already-expired token: the goal replies typed and
  // the server survives.
  std::vector<std::string> out =
      Drive(server, *session, {"SET timeout_ms 0", "?- tc(X, Y)."});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].rfind("ERR DeadlineExceeded", 0), 0u) << out[1];

  out = Drive(server, *session, {"SET timeout_ms -1", "?- tc(X, Y)."});
  EXPECT_EQ(out[1].rfind("RESULT tc/2", 0), 0u) << out[1];

  // Every request that replied ERR DeadlineExceeded counts once.
  out = Drive(server, *session, {"STATS"});
  EXPECT_NE(std::find(out.begin(), out.end(), "queries_timed_out=1"),
            out.end());

  // A fact update maintaining the materialized tc view counts the same way.
  out = Drive(server, *session, {"SET timeout_ms 0", "INSERT edge(48, 49)."});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].rfind("ERR DeadlineExceeded", 0), 0u) << out[1];
  out = Drive(server, *session, {"METRICS"});
  EXPECT_NE(std::find(out.begin(), out.end(), "linrec_queries_timed_out 2"),
            out.end());
}

}  // namespace
}  // namespace linrec
