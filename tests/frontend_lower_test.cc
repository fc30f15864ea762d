// Frontend lowering tests: the structural program digest, SCC
// condensation into compiled units (singleton, mutual-recursion, and
// non-recursive), per-session ProgramInstance evaluation — lazy
// materialization, fact-driven invalidation, the σ-bind fast path, goal
// filtering — and cancellation at round boundaries.

#include "frontend/lower.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/parser.h"

namespace linrec {
namespace {

std::vector<Rule> Rules(const std::string& text) {
  Result<Program> parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return parsed->rules;
}

Atom Goal(const std::string& text) {
  Result<Program> parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->queries.size(), 1u);
  return parsed->queries.front();
}

const char* kTcRules =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n";

/// Installs the TC program plus the chain 1→2→…→n over `edge`.
void SetupChain(ProgramInstance& instance, Planner& planner, int n) {
  Result<CompiledProgram> compiled = CompileProgram(Rules(kTcRules), planner);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  instance.SetProgram(
      std::make_shared<const CompiledProgram>(std::move(compiled).value()));
  for (int i = 1; i < n; ++i) {
    Atom fact;
    fact.predicate = "edge";
    fact.terms = {Term::MakeConst(i), Term::MakeConst(i + 1)};
    ASSERT_TRUE(instance.AddFact(fact).ok());
  }
}

TEST(ProgramDigestTest, InvariantUnderRulePermutation) {
  std::vector<Rule> forward = Rules(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"
      "reach(Y) :- tc(1, Y).\n");
  std::vector<Rule> shuffled = forward;
  std::rotate(shuffled.begin(), shuffled.begin() + 1, shuffled.end());
  EXPECT_EQ(ProgramDigest(forward), ProgramDigest(shuffled));

  std::vector<Rule> different = Rules(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n");  // right- vs left-linear
  EXPECT_NE(ProgramDigest(forward), ProgramDigest(different));
}

TEST(CompileProgramTest, CondensesIntoDependencyOrderedUnits) {
  Planner planner;
  // reach depends on tc; tc is recursive; edge is base (no unit).
  Result<CompiledProgram> compiled = CompileProgram(
      Rules("reach(Y) :- tc(1, Y).\n"
            "tc(X, Y) :- edge(X, Y).\n"
            "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"),
      planner);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ASSERT_EQ(compiled->units.size(), 2u);
  const std::size_t tc = compiled->unit_of.at("tc");
  const std::size_t reach = compiled->unit_of.at("reach");
  EXPECT_LT(tc, reach);  // dependency-first
  EXPECT_TRUE(compiled->units[tc].closure.has_value());
  EXPECT_FALSE(compiled->units[tc].joint);
  EXPECT_FALSE(compiled->units[reach].closure.has_value());
  EXPECT_EQ(compiled->units[tc].arities.front(), 2u);
  EXPECT_EQ(compiled->plan_explanations.size(), 1u);
}

TEST(CompileProgramTest, MutualRecursionBecomesOneJointUnit) {
  Planner planner;
  Result<CompiledProgram> compiled = CompileProgram(
      Rules("odd(X, Y) :- even(X, Z), step(Z, Y).\n"
            "even(X, Y) :- start(X, Y).\n"
            "even(X, Y) :- odd(X, Z), step(Z, Y).\n"),
      planner);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ASSERT_EQ(compiled->units.size(), 1u);
  EXPECT_TRUE(compiled->units[0].joint);
  EXPECT_EQ(compiled->units[0].members.size(), 2u);
  EXPECT_EQ(compiled->unit_of.at("odd"), compiled->unit_of.at("even"));
  EXPECT_NE(compiled->member_of.at("odd"), compiled->member_of.at("even"));
}

TEST(CompileProgramTest, RejectsNonLinearAndInconsistentArity) {
  Planner planner;
  Result<CompiledProgram> nonlinear = CompileProgram(
      Rules("p(X, Y) :- p(X, Z), p(Z, Y).\n"), planner);
  EXPECT_EQ(nonlinear.status().code(), StatusCode::kInvalidArgument);

  Result<CompiledProgram> arity = CompileProgram(
      Rules("p(X, Y) :- q(X, Y).\n"
            "p(X) :- r(X).\n"),
      planner);
  EXPECT_EQ(arity.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProgramInstanceTest, EvaluatesAndCachesThenInvalidatesOnNewFact) {
  Planner planner;
  ProgramInstance instance;
  SetupChain(instance, planner, 4);  // chain 1→2→3→4

  Result<QueryResult> out = instance.EvalQuery(Goal("?- tc(X, Y)."), planner);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->relation().size(), 6u);
  const std::size_t after_first = instance.derivations();
  EXPECT_GT(after_first, 0u);

  // Cached: re-evaluation derives nothing new.
  out = instance.EvalQuery(Goal("?- tc(X, Y)."), planner);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(instance.derivations(), after_first);

  // A new base fact grows the fixpoint on the next evaluation.
  Atom fact;
  fact.predicate = "edge";
  fact.terms = {Term::MakeConst(4), Term::MakeConst(5)};
  ASSERT_TRUE(instance.AddFact(fact).ok());
  out = instance.EvalQuery(Goal("?- tc(X, Y)."), planner);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->relation().size(), 10u);
  EXPECT_GT(instance.derivations(), after_first);
}

TEST(ProgramInstanceTest, RejectsBadFactsAndUnknownGoals) {
  Planner planner;
  ProgramInstance instance;
  SetupChain(instance, planner, 3);

  Atom derived;
  derived.predicate = "tc";
  derived.terms = {Term::MakeConst(1), Term::MakeConst(2)};
  EXPECT_EQ(instance.AddFact(derived).code(), StatusCode::kInvalidArgument);

  Atom nonground;
  nonground.predicate = "edge";
  nonground.terms = {Term::MakeVar(0), Term::MakeConst(2)};
  EXPECT_EQ(instance.AddFact(nonground).code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(instance.EvalQuery(Goal("?- nope(X, Y)."), planner).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(instance.EvalQuery(Goal("?- tc(X, Y, Z)."), planner).status().code(),
            StatusCode::kInvalidArgument);

  ProgramInstance empty;
  EXPECT_EQ(empty.EvalQuery(Goal("?- tc(X, Y)."), planner).status().code(),
            StatusCode::kInvalidArgument);  // no program loaded
}

TEST(ProgramInstanceTest, SigmaFastPathMatchesMaterializedAnswer) {
  Planner planner;

  // Fast path: point query before anything is materialized.
  ProgramInstance fresh;
  SetupChain(fresh, planner, 6);
  Result<QueryResult> fast = fresh.EvalQuery(Goal("?- tc(2, Y)."), planner);
  ASSERT_TRUE(fast.ok()) << fast.status();
  EXPECT_EQ(fast->relation().size(), 4u);  // 2→{3,4,5,6}

  // Reference: full materialization then filter.
  ProgramInstance reference;
  SetupChain(reference, planner, 6);
  Result<QueryResult> full =
      reference.EvalQuery(Goal("?- tc(X, Y)."), planner);
  ASSERT_TRUE(full.ok());
  Atom goal = Goal("?- tc(2, Y).");
  Relation filtered = MatchGoal(full->relation(), goal);
  EXPECT_EQ(fast->relation().Sorted(), filtered.Sorted());

  // The σ cone derives strictly less than the full fixpoint.
  EXPECT_LT(fresh.derivations(), reference.derivations());
}

TEST(ProgramInstanceTest, BatchedGoalsAlignWithPerGoalOutcomes) {
  Planner planner;
  ProgramInstance instance;
  SetupChain(instance, planner, 5);
  const std::vector<Atom> goals = {Goal("?- tc(1, Y)."), Goal("?- tc(3, Y)."),
                                   Goal("?- nope(X)."), Goal("?- tc(X, X).")};
  std::vector<Result<QueryResult>> out = instance.EvalQueries(goals, planner);
  ASSERT_EQ(out.size(), 4u);
  ASSERT_TRUE(out[0].ok());
  EXPECT_EQ(out[0]->relation().size(), 4u);
  ASSERT_TRUE(out[1].ok());
  EXPECT_EQ(out[1]->relation().size(), 2u);
  EXPECT_EQ(out[2].status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(out[3].ok());
  EXPECT_EQ(out[3]->relation().size(), 0u);
}

TEST(ProgramInstanceTest, CancellationStopsClosureAtRoundBoundary) {
  Planner planner;
  ProgramInstance instance;
  SetupChain(instance, planner, 8);
  const CancellationToken expired =
      CancellationToken::WithTimeout(std::chrono::milliseconds(0));
  Result<QueryResult> out =
      instance.EvalQuery(Goal("?- tc(X, Y)."), planner, &expired);
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);

  // The instance still answers once the deadline pressure is gone.
  out = instance.EvalQuery(Goal("?- tc(X, Y)."), planner);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->relation().size(), 28u);
}

TEST(MatchGoalTest, FiltersConstantsAndRepeatedVariables) {
  Relation rows(2);
  rows.Insert({1, 1});
  rows.Insert({1, 2});
  rows.Insert({2, 2});
  EXPECT_EQ(MatchGoal(rows, Goal("?- p(X, Y).")).size(), 3u);
  EXPECT_EQ(MatchGoal(rows, Goal("?- p(1, Y).")).size(), 2u);
  EXPECT_EQ(MatchGoal(rows, Goal("?- p(X, 2).")).size(), 2u);
  EXPECT_EQ(MatchGoal(rows, Goal("?- p(X, X).")).size(), 2u);
  EXPECT_EQ(MatchGoal(rows, Goal("?- p(2, 1).")).size(), 0u);
}

/// The general filter's answer to a one-constant goal: the rows carrying
/// `value` at `position`, in row order, at most `row_limit` of them.
Relation FilterInRowOrder(const Relation& rows, std::size_t position,
                          Value value, std::size_t row_limit) {
  Relation out(rows.arity());
  for (TupleView row : rows) {
    if (out.size() == row_limit) break;
    if (row[position] == value) out.Insert(row);
  }
  return out;
}

TEST(MatchGoalTest, SelectionGoalsKeepTheGeneralFilterRowsAndOrder) {
  for (std::size_t arity : {2u, 3u}) {
    Relation rows(arity);
    std::vector<Value> row(arity);
    // Grown row by row, so the scan meets every size, including the ones
    // whose last block is partial.
    for (int n = 0; n < 43; ++n) {
      row[0] = n % 3;
      row[1] = n / 2;  // with n % 3, distinct for every n
      if (arity == 3) row[2] = n % 4;
      ASSERT_TRUE(rows.InsertRow(row.data()));
      for (std::size_t position = 0; position < arity; ++position) {
        const Value value = rows.RowData(static_cast<RowId>(n))[position];
        Atom goal;
        goal.predicate = "p";
        for (std::size_t i = 0; i < arity; ++i) {
          goal.terms.push_back(i == position
                                   ? Term::MakeConst(value)
                                   : Term::MakeVar(static_cast<VarId>(i)));
        }
        const std::size_t matches =
            FilterInRowOrder(rows, position, value, SIZE_MAX).size();
        for (std::size_t limit : {std::size_t{0}, matches / 2, matches,
                                  matches + 1, std::size_t{SIZE_MAX}}) {
          const Relation got = MatchGoal(rows, goal, limit);
          const Relation want = FilterInRowOrder(rows, position, value, limit);
          ASSERT_EQ(got.size(), want.size())
              << "arity " << arity << " size " << rows.size() << " position "
              << position << " limit " << limit;
          for (RowId r = 0; r < got.size(); ++r) {
            EXPECT_EQ(got.Row(r).ToTuple(), want.Row(r).ToTuple());
          }
        }
      }
    }
  }
}

TEST(PlannerTest, SharedPlannerCountsOneMissPerStructure) {
  Planner planner;
  const std::size_t before = planner.plan_cache_misses();
  {
    Result<CompiledProgram> a = CompileProgram(Rules(kTcRules), planner);
    ASSERT_TRUE(a.ok());
  }
  const std::size_t after_first = planner.plan_cache_misses();
  EXPECT_EQ(after_first, before + 1);  // one closure structure
  {
    Result<CompiledProgram> b = CompileProgram(Rules(kTcRules), planner);
    ASSERT_TRUE(b.ok());
  }
  EXPECT_EQ(planner.plan_cache_misses(), after_first);  // hit on recompile
  EXPECT_GT(planner.plan_cache_hits(), 0u);
}

}  // namespace
}  // namespace linrec
