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

#include "common/strings.h"
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

/// Compiles the rules of `text` into `instance` and adds its facts.
void LoadProgram(ProgramInstance& instance, Planner& planner,
                 const std::string& text) {
  Result<Program> parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Result<CompiledProgram> compiled = CompileProgram(parsed->rules, planner);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  instance.SetProgram(
      std::make_shared<const CompiledProgram>(std::move(compiled).value()));
  for (const Atom& fact : parsed->facts) {
    ASSERT_TRUE(instance.AddFact(fact).ok()) << fact.predicate;
  }
}

/// The rows `goal` answers over `instance`, sorted.
std::vector<Tuple> Answer(ProgramInstance& instance, Planner& planner,
                          const std::string& goal) {
  Result<QueryResult> out = instance.EvalQuery(Goal(goal), planner);
  EXPECT_TRUE(out.ok()) << goal << ": " << out.status();
  if (!out.ok()) return {};
  return out->relation().Sorted();
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
  // The joint plan is explained once, for the whole component.
  ASSERT_EQ(compiled->plan_explanations.size(), 1u);
  const std::string& explain = compiled->plan_explanations.front();
  EXPECT_EQ(explain.rfind("even, odd:\n", 0), 0u) << explain;
  EXPECT_NE(explain.find("joint-semi-naive"), std::string::npos) << explain;
}

TEST(CompileProgramTest, RejectsNonLinearAndInconsistentArity) {
  Planner planner;
  Result<CompiledProgram> nonlinear = CompileProgram(
      Rules("p(X, Y) :- p(X, Z), p(Z, Y).\n"), planner);
  EXPECT_EQ(nonlinear.status().code(), StatusCode::kInvalidArgument);

  // Non-linear recursion through a component names every member.
  Result<CompiledProgram> component = CompileProgram(
      Rules("a(X) :- b(X).\n"
            "b(X) :- cc(X).\n"
            "cc(X) :- a(X), b(X).\n"),
      planner);
  EXPECT_EQ(component.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(component.status().message().find("{a, b, cc}"),
            std::string::npos)
      << component.status();

  // One arity per predicate across heads and bodies: the error names the
  // predicate and both arities.
  const struct {
    const char* rules;
    const char* predicate;
    const char* arities;
  } conflicts[] = {
      {"p(X, Y) :- q(X, Y).\np(X) :- r(X).\n", "'p'", "2 and 1"},
      {"tc(X, Y) :- e(X, Y).\ntc(X, Y) :- tc(X, Z), e(Z, Y).\n"
       "q(X) :- tc(X).\n",
       "'tc'", "2 and 1"},
      {"tc(X, Y) :- e(X, Y).\ntc(X, Y) :- tc(X, Z), e(Z, Y, W).\n", "'e'",
       "2 and 3"},
  };
  for (const auto& conflict : conflicts) {
    Result<CompiledProgram> arity =
        CompileProgram(Rules(conflict.rules), planner);
    EXPECT_EQ(arity.status().code(), StatusCode::kInvalidArgument)
        << conflict.rules;
    EXPECT_NE(arity.status().message().find(conflict.predicate),
              std::string::npos)
        << arity.status();
    EXPECT_NE(arity.status().message().find(conflict.arities),
              std::string::npos)
        << arity.status();
  }
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

  // A fact at an arity the program does not use is rejected before any
  // mutation, even before any fact of its predicate has arrived.
  ProgramInstance rules_only;
  SetupChain(rules_only, planner, 1);
  Atom wide;
  wide.predicate = "edge";
  wide.terms = {Term::MakeConst(1), Term::MakeConst(2), Term::MakeConst(3)};
  EXPECT_EQ(rules_only.AddFact(wide).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rules_only.InsertFact(wide).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(rules_only.DeleteFact(wide).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(Answer(rules_only, planner, "?- tc(X, Y).").empty());
}

TEST(ProgramInstanceTest, AnswersProgramsUnitByUnit) {
  // Linear mutual recursion, closed jointly: a ⊇ s ∪ b, b ⊇ a ⋈ g.
  const char* kSeededPair =
      "a(X) :- s(X).\na(X) :- b(X).\nb(X) :- a(X), g(X).\n"
      "s(1). s(2). g(1).\n";
  // Parity over a successor chain: the classic two-member component.
  const char* kParity =
      "even(X) :- zero(X).\n"
      "even(X) :- odd(Y), succ(Y,X).\n"
      "odd(X) :- even(Y), succ(Y,X).\n"
      "zero(0). succ(0,1). succ(1,2). succ(2,3). succ(3,4). succ(4,5).\n";
  const struct {
    const char* program;
    const char* goal;
    std::vector<Tuple> rows;
  } cases[] = {
      // Base rule seeds the recursion.
      {"path(X,Y) :- edge(X,Y).\n"
       "path(X,Y) :- path(X,Z), edge(Z,Y).\n"
       "edge(1,2). edge(2,3). edge(3,4).\n",
       "?- path(X, Y).",
       {{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}},
      // A base predicate is answered from the facts.
      {"path(X,Y) :- edge(X,Y).\nedge(1,2). edge(2,3).\n", "?- edge(X, Y).",
       {{1, 2}, {2, 3}}},
      // A body constant over a derived predicate, evaluated after it.
      {"tc(X,Y) :- edge(X,Y).\n"
       "tc(X,Y) :- tc(X,Z), edge(Z,Y).\n"
       "reach(X) :- tc(0,X).\n"
       "edge(0,1). edge(1,2).\n",
       "?- reach(X).",
       {{1}, {2}}},
      // Same generation: two commuting recursive rules.
      {"sg(X,Y) :- flat(X,Y).\n"
       "sg(X,Y) :- sg(X,V), down(V,Y).\n"
       "sg(X,Y) :- sg(U,Y), up(X,U).\n"
       "flat(1,1). flat(2,2). down(1,3). down(2,4). up(3,1). up(4,2).\n",
       "?- sg(X, Y).",
       {{1, 1}, {1, 3}, {2, 2}, {2, 4}, {3, 1}, {3, 3}, {4, 2}, {4, 4}}},
      // Equality atoms in base rules: X = Y filters, 1 = 2 derives nothing.
      {"loop(X,Y) :- edge(X,Y), X = Y.\n"
       "edge(1,1). edge(1,2). edge(3,3).\n",
       "?- loop(X, Y).",
       {{1, 1}, {3, 3}}},
      {"p(X) :- g(X), 1 = 2.\ng(5).\n", "?- p(X).", {}},
      // Mutual recursion without a base rule: the fixpoint is empty.
      {"a(X) :- b(X).\nb(X) :- a(X), g(X).\ng(1).\n", "?- a(X).", {}},
      {kSeededPair, "?- a(X).", {{1}, {2}}},
      {kSeededPair, "?- b(X).", {{1}}},
      {kParity, "?- even(X).", {{0}, {2}, {4}}},
      {kParity, "?- odd(X).", {{1}, {3}, {5}}},
  };
  for (const auto& c : cases) {
    Planner planner;
    ProgramInstance instance;
    LoadProgram(instance, planner, c.program);
    EXPECT_EQ(Answer(instance, planner, c.goal), c.rows) << c.program;
  }
}

TEST(ProgramInstanceTest, DeepDependencyChainAnswers) {
  // A 10,000-predicate dependency chain: the condensation is iterative
  // (common/scc.h), so its depth cannot overflow the stack.
  constexpr int kDepth = 10000;
  std::string text = "p0(X) :- e(X).\ne(1). e(2).\n";
  for (int i = 1; i < kDepth; ++i) {
    text += StrCat("p", i, "(X) :- p", i - 1, "(X).\n");
  }
  Planner planner;
  ProgramInstance instance;
  LoadProgram(instance, planner, text);
  const std::vector<Tuple> rows = {{1}, {2}};
  EXPECT_EQ(Answer(instance, planner, StrCat("?- p", kDepth - 1, "(X).")),
            rows);
}

TEST(ProgramInstanceTest, DownstreamJoinSeesViewAfterInsertAndFact) {
  // b joins the closed view a with itself. An INSERT extends a in place
  // and a FACT rebuilds it; either way b must join the current a.
  Planner planner;
  ProgramInstance instance;
  LoadProgram(instance, planner,
              "a(X,Y) :- e1(X,Y).\n"
              "a(X,Y) :- a(X,Z), e1(Z,Y).\n"
              "b(X,Y) :- a(X,Z), a(Z,Y).\n"
              "e1(1,2). e1(2,3).\n");
  const std::vector<Tuple> before = {{1, 3}};
  EXPECT_EQ(Answer(instance, planner, "?- b(X, Y)."), before);

  Result<FactUpdateOutcome> inserted =
      instance.InsertFact(Goal("?- e1(3, 4)."));
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_TRUE(inserted->applied);
  const std::vector<Tuple> after_insert = {{1, 3}, {1, 4}, {2, 4}};
  EXPECT_EQ(Answer(instance, planner, "?- b(X, Y)."), after_insert);

  ASSERT_TRUE(instance.AddFact(Goal("?- e1(4, 5).")).ok());
  const std::vector<Tuple> after_fact = {{1, 3}, {1, 4}, {1, 5},
                                         {2, 4}, {2, 5}, {3, 5}};
  EXPECT_EQ(Answer(instance, planner, "?- b(X, Y)."), after_fact);
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
