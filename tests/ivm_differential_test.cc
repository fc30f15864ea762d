// Seeded, replayable differential test of incremental view maintenance.
//
// Each case draws, from its own seed, a random input graph (a DAG or a
// graph with cycles), a random linear program (single-rule, two-rule, or
// a jointly recursive pair — heads with constants and repeated variables
// included), a seed convention and a worker count in {1, 2, 8}, then
// drives a random sequence of single-fact INSERT/DELETE operations
// through the delta engine (Engine::Apply / Engine::Retract). After every
// operation:
//   * the maintained view equals a from-scratch recompute, and
//   * the reported counts equal the set difference (Apply's `added` and
//     appended range, Retract's `removed` and `removed_count`).
// Every few operations it checks Koskinen & Bansal's commutation
// property (PAPERS.md): an INSERT and a DELETE of distinct facts commute.
// In the same spirit, every permutation of an insert batch, and the batch
// as one Apply call, yield the same view.
// A second drive runs the same kind of sequence through ProgramInstance
// — the linrecd cascade over non-recursive units, closure units reading
// derived units, and a joint component — against a fresh instance
// loaded with the same facts.
//
// A failure names its case seed; LINREC_IVM_SEED=<seed> replays only
// that case.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "datalog/parser.h"
#include "engine/engine.h"
#include "frontend/lower.h"
#include "ivm/view.h"

namespace linrec {
namespace {

constexpr std::uint32_t kFirstSeed = 1000;
constexpr int kEngineCases = 36;
constexpr int kProgramCases = 30;
constexpr int kOpsPerCase = 24;
constexpr int kBatchPermutations = 3;

/// The case seeds to run: every case, or only LINREC_IVM_SEED's.
std::vector<std::uint32_t> CaseSeeds(int cases) {
  if (const char* only = std::getenv("LINREC_IVM_SEED")) {
    return {static_cast<std::uint32_t>(std::strtoul(only, nullptr, 10))};
  }
  std::vector<std::uint32_t> seeds;
  for (int c = 0; c < cases; ++c) seeds.push_back(kFirstSeed + c);
  return seeds;
}

Relation Without(const Relation& rel, const Relation& drop) {
  Relation out(rel.arity());
  for (TupleView t : rel) {
    if (!drop.Contains(t)) out.Insert(t);
  }
  return out;
}

Relation Edge(Value a, Value b) {
  Relation r(2);
  r.Insert({a, b});
  return r;
}

/// A random edge over `nodes`: forward only in a DAG; any direction,
/// self-loops included, otherwise (a self-loop lets one derivation use a
/// deleted edge twice).
std::pair<Value, Value> RandomEdge(std::mt19937& rng, int nodes, bool dag) {
  for (;;) {
    Value a = static_cast<Value>(rng() % nodes);
    Value b = static_cast<Value>(rng() % nodes);
    if (!dag) return {a, b};
    if (a != b) return {std::min(a, b), std::max(a, b)};
  }
}

Relation RandomEdges(std::mt19937& rng, int nodes, int edges, bool dag) {
  Relation e(2);
  while (e.size() < static_cast<std::size_t>(edges)) {
    const auto [a, b] = RandomEdge(rng, nodes, dag);
    e.Insert({a, b});
  }
  return e;
}

/// Single-predicate rules over p/2 with parameters e and f. The shapes
/// cover left- and right-linear recursion, a constant in the head, a
/// repeated head variable, and two atoms over one parameter (a delete
/// then damages a derivation through either).
const char* const kLinearRules[] = {
    "p(X,Y) :- p(X,Z), e(Z,Y).",
    "p(X,Y) :- e(X,Z), p(Z,Y).",
    "p(X,3) :- p(X,Z), e(Z,3).",
    "p(X,X) :- p(X,Z), e(Z,X).",
    "p(X,Y) :- p(X,Z), f(Z,Y).",
    "p(X,Y) :- p(X,Z), e(Z,W), e(W,Y).",
};

/// The inputs and program of one engine-level case.
struct EngineCase {
  bool joint = false;
  std::vector<LinearRule> rules;
  std::vector<std::string> members;
  std::vector<JointRule> joint_rules;
  /// Seed convention: the identity on the nodes, or the edge set e itself
  /// (then every e update is also a seed update of member 0).
  bool seed_is_e = false;
  int nodes = 0;
  bool dag = false;
  int workers = 1;
  Relation e{2};
  Relation f{2};
  std::vector<Relation> Seeds() const {
    Relation first(2);
    if (seed_is_e) {
      first = e;
    } else {
      for (int i = 0; i < nodes; ++i) first.Insert({i, i});
    }
    std::vector<Relation> seeds = {first};
    if (joint) seeds.emplace_back(2);
    return seeds;
  }
};

JointRule Joint(const std::string& text, const std::vector<std::string>& m) {
  Result<Rule> rule = ParseRule(text);
  EXPECT_TRUE(rule.ok()) << rule.status();
  JointRule jr;
  jr.rule = *rule;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (rule->head().predicate == m[i]) jr.head_member = static_cast<int>(i);
    for (std::size_t a = 0; a < rule->body().size(); ++a) {
      if (rule->body()[a].predicate == m[i]) {
        jr.recursive_atom = static_cast<int>(a);
        jr.recursive_member = static_cast<int>(i);
      }
    }
  }
  return jr;
}

EngineCase DrawEngineCase(std::uint32_t seed) {
  std::mt19937 rng(seed);
  EngineCase c;
  const int workers[] = {1, 2, 8};
  c.workers = workers[seed % 3];
  c.nodes = 10 + static_cast<int>(rng() % 14);
  c.dag = rng() % 2 == 0;
  c.e = RandomEdges(rng, c.nodes, c.nodes + static_cast<int>(rng() % 20),
                    c.dag);
  c.f = RandomEdges(rng, c.nodes, c.nodes / 2, c.dag);
  c.seed_is_e = rng() % 2 == 0;
  switch ((seed / 3) % 3) {
    case 0:
      c.rules.push_back(*ParseLinearRule(kLinearRules[rng() % 6]));
      break;
    case 1: {
      const std::size_t a = rng() % 6;
      const std::size_t b = (a + 1 + rng() % 5) % 6;
      c.rules.push_back(*ParseLinearRule(kLinearRules[a]));
      c.rules.push_back(*ParseLinearRule(kLinearRules[b]));
      break;
    }
    default:
      c.joint = true;
      c.members = {"a", "b"};
      c.joint_rules = {Joint("b(X,Y) :- a(X,Z), e(Z,Y).", c.members),
                       Joint("a(X,Y) :- b(X,Z), f(Z,Y).", c.members)};
      if (rng() % 2 == 0) {
        c.joint_rules.push_back(Joint("a(X,X) :- b(X,Z), e(Z,X).", c.members));
      }
      break;
  }
  return c;
}

Database CaseDatabase(const EngineCase& c) {
  Database db;
  db.GetOrCreate("e", 2) = c.e;
  db.GetOrCreate("f", 2) = c.f;
  return db;
}

Query CaseQuery(const EngineCase& c) {
  return c.joint ? Query::JointClosure(c.members, c.joint_rules)
                 : Query::Closure(c.rules);
}

std::vector<std::string> ViewNames(const EngineCase& c) {
  return c.joint ? c.members : std::vector<std::string>{"p"};
}

/// An engine holding the case's view, materialized from its current
/// inputs.
struct Maintained {
  std::unique_ptr<Engine> engine;
  MaterializedView view;

  std::vector<Relation> Members() const {
    std::vector<Relation> out;
    for (const std::string& name : view.names()) {
      out.push_back(*engine->db().Find(name));
    }
    return out;
  }
};

Maintained MaterializeCase(const EngineCase& c) {
  Maintained m;
  EngineOptions options;
  options.parallel_workers = c.workers;
  m.engine = std::make_unique<Engine>(CaseDatabase(c), options);
  auto prepared = m.engine->Prepare(CaseQuery(c));
  EXPECT_TRUE(prepared.ok()) << prepared.status();
  BoundQuery bound = c.joint ? prepared->Bind().BindSeeds(c.Seeds())
                             : prepared->Bind().BindSeed(c.Seeds()[0]);
  auto view = m.engine->Materialize(bound, ViewNames(c));
  EXPECT_TRUE(view.ok()) << view.status();
  m.view = std::move(view).value();
  return m;
}

/// The from-scratch oracle over the case's current inputs.
std::vector<Relation> Recompute(const EngineCase& c) {
  Engine engine(CaseDatabase(c));
  auto prepared = engine.Prepare(CaseQuery(c));
  EXPECT_TRUE(prepared.ok()) << prepared.status();
  BoundQuery bound = c.joint ? prepared->Bind().BindSeeds(c.Seeds())
                             : prepared->Bind().BindSeed(c.Seeds()[0]);
  auto out = engine.Execute(bound);
  EXPECT_TRUE(out.ok()) << out.status();
  return out->relations;
}

/// One single-fact update of parameter `pred`.
struct Op {
  bool insert = true;
  std::string pred;
  Relation fact{2};
};

/// Applies `op` to `m` and to the case's inputs, checking the reported
/// counts against the set difference of the view.
void RunOp(EngineCase& c, Maintained& m, const Op& op,
           const std::string& where) {
  const std::vector<Relation> before = m.Members();
  // The parameter tuple, plus the matching seed tuple of member 0 when
  // the seed is e.
  std::vector<Relation> seeds;
  if (c.seed_is_e && op.pred == "e") {
    seeds.push_back(op.fact);
    if (c.joint) seeds.emplace_back(2);
  }
  std::map<std::string, Relation> params = {{op.pred, op.fact}};
  if (op.insert) {
    DeltaInsert d;
    d.seed_inserts = std::move(seeds);
    d.param_inserts = std::move(params);
    auto out = m.engine->Apply(m.view, d);
    ASSERT_TRUE(out.ok()) << where << ": " << out.status();
    (op.pred == "e" ? c.e : c.f).UnionWith(op.fact);
    const std::vector<Relation> after = m.Members();
    std::size_t added = 0;
    for (std::size_t k = 0; k < after.size(); ++k) {
      const auto [b, e] = out->appended[k];
      EXPECT_EQ(b, before[k].size()) << where;
      EXPECT_EQ(e, after[k].size()) << where;
      EXPECT_EQ(Without(after[k], before[k]).size(), e - b) << where;
      added += after[k].size() - before[k].size();
    }
    EXPECT_EQ(out->added, added) << where;
  } else {
    DeltaDelete d;
    d.seed_deletes = std::move(seeds);
    d.param_deletes = std::move(params);
    auto out = m.engine->Retract(m.view, d);
    ASSERT_TRUE(out.ok()) << where << ": " << out.status();
    Relation& input = op.pred == "e" ? c.e : c.f;
    input = Without(input, op.fact);
    const std::vector<Relation> after = m.Members();
    std::size_t removed = 0;
    for (std::size_t k = 0; k < after.size(); ++k) {
      const Relation gone = Without(before[k], after[k]);
      EXPECT_EQ(out->removed[k], gone) << where << " member " << k;
      EXPECT_EQ(Without(after[k], before[k]).size(), 0u) << where;
      removed += gone.size();
    }
    EXPECT_EQ(out->removed_count, removed) << where;
  }
  const std::vector<Relation> oracle = Recompute(c);
  const std::vector<Relation> now = m.Members();
  for (std::size_t k = 0; k < oracle.size(); ++k) {
    EXPECT_EQ(now[k], oracle[k]) << where << " member " << k;
  }
}

/// A random single-fact op: an absent edge to insert or a present edge to
/// delete, over e or f (an update of f is a no-op for the programs that
/// do not read it, which the checks then pin).
Op DrawOp(std::mt19937& rng, const EngineCase& c, bool insert) {
  Op op;
  op.insert = insert;
  op.pred = rng() % 3 == 0 ? "f" : "e";
  const Relation& input = op.pred == "e" ? c.e : c.f;
  if (!insert && input.empty()) op.insert = true;
  if (op.insert) {
    for (;;) {
      const auto [a, b] = RandomEdge(rng, c.nodes, c.dag);
      if (!input.Contains({a, b})) {
        op.fact = Edge(a, b);
        return op;
      }
    }
  }
  TupleView t = input.Row(static_cast<RowId>(rng() % input.size()));
  op.fact = Edge(t[0], t[1]);
  return op;
}

TEST(IvmDifferential, EngineViewsMatchRecomputeAfterEveryOp) {
  WorkerPool::OverrideThreadCapForTesting(16);
  for (std::uint32_t seed : CaseSeeds(kEngineCases)) {
    SCOPED_TRACE("case seed " + std::to_string(seed) +
                 " (replay: LINREC_IVM_SEED=" + std::to_string(seed) + ")");
    EngineCase c = DrawEngineCase(seed);
    Maintained m = MaterializeCase(c);
    std::mt19937 rng(seed ^ 0x9e3779b9u);
    for (int i = 0; i < kOpsPerCase; ++i) {
      const Op op = DrawOp(rng, c, rng() % 2 == 0);
      RunOp(c, m, op, "op " + std::to_string(i));
      if (::testing::Test::HasFailure()) break;

      if (i % 6 == 5) {
        // Commutation: INSERT a; DELETE b against DELETE b; INSERT a, for
        // an absent a and a present b, from the same state.
        const Op ins = DrawOp(rng, c, true);
        const Op del = DrawOp(rng, c, false);
        if (!del.insert) {
          EngineCase c1 = c;
          EngineCase c2 = c;
          Maintained m1 = MaterializeCase(c1);
          Maintained m2 = MaterializeCase(c2);
          RunOp(c1, m1, ins, "commute insert-first");
          RunOp(c1, m1, del, "commute insert-first");
          RunOp(c2, m2, del, "commute delete-first");
          RunOp(c2, m2, ins, "commute delete-first");
          const std::vector<Relation> v1 = m1.Members();
          const std::vector<Relation> v2 = m2.Members();
          for (std::size_t k = 0; k < v1.size(); ++k) {
            EXPECT_EQ(v1[k], v2[k]) << "INSERT and DELETE do not commute";
          }
        }
      }
    }
    if (::testing::Test::HasFailure()) break;
  }
  WorkerPool::OverrideThreadCapForTesting(0);
}

TEST(IvmDifferential, InsertBatchPermutationsAgree) {
  // From one materialized state, a batch of 3-6 absent facts is applied
  // in the drawn order, in seeded permutations (one Apply per fact), and
  // as one Apply carrying the whole batch. Every way must end at the
  // from-scratch recompute over the grown inputs; Relation's == compares
  // tuple sets, so row order may differ between the ways.
  WorkerPool::OverrideThreadCapForTesting(16);
  for (std::uint32_t seed : CaseSeeds(kEngineCases)) {
    SCOPED_TRACE("case seed " + std::to_string(seed) +
                 " (replay: LINREC_IVM_SEED=" + std::to_string(seed) + ")");
    const EngineCase start = DrawEngineCase(seed);
    std::mt19937 rng(seed ^ 0x85ebca6bu);
    EngineCase grown = start;
    std::vector<Op> batch;
    const std::size_t size = 3 + rng() % 4;
    while (batch.size() < size) {
      Op op = DrawOp(rng, grown, /*insert=*/true);
      (op.pred == "e" ? grown.e : grown.f).UnionWith(op.fact);
      batch.push_back(std::move(op));
    }
    const std::vector<Relation> oracle = Recompute(grown);

    auto expect_oracle = [&](const Maintained& m, const std::string& way) {
      const std::vector<Relation> view = m.Members();
      ASSERT_EQ(view.size(), oracle.size()) << way;
      for (std::size_t k = 0; k < oracle.size(); ++k) {
        EXPECT_EQ(view[k], oracle[k]) << way << ": member " << k;
      }
    };

    std::vector<std::vector<Op>> orders = {batch};
    for (int p = 0; p < kBatchPermutations; ++p) {
      orders.push_back(batch);
      std::shuffle(orders.back().begin(), orders.back().end(), rng);
    }
    for (std::size_t o = 0; o < orders.size(); ++o) {
      const std::string way =
          o == 0 ? "drawn order" : "permutation " + std::to_string(o);
      EngineCase c = start;
      Maintained m = MaterializeCase(c);
      for (const Op& op : orders[o]) RunOp(c, m, op, way);
      expect_oracle(m, way);
    }

    // The whole batch in one Apply: every fact as a parameter insert, and
    // the e facts as seed inserts too when the seed is e.
    EngineCase c = start;
    Maintained m = MaterializeCase(c);
    DeltaInsert d;
    Relation e_facts(2);
    for (const Op& op : batch) {
      d.param_inserts.try_emplace(op.pred, 2).first->second.UnionWith(op.fact);
      if (op.pred == "e") e_facts.UnionWith(op.fact);
    }
    if (c.seed_is_e) {
      d.seed_inserts.push_back(std::move(e_facts));
      if (c.joint) d.seed_inserts.emplace_back(2);
    }
    auto applied = m.engine->Apply(m.view, d);
    ASSERT_TRUE(applied.ok()) << "one Apply: " << applied.status();
    expect_oracle(m, "one Apply");
    if (::testing::Test::HasFailure()) break;
  }
  WorkerPool::OverrideThreadCapForTesting(0);
}

// --- The frontend cascade --------------------------------------------------

/// Rule groups a program is drawn from: one group, or one and the next.
/// Each defines its own derived predicates over the base relations e/2
/// and f/2, so any such pair is a well-formed program.
const char* const kProgramGroups[] = {
    // A closure unit (seed from a base rule).
    "tc(X,Y) :- e(X,Y).\n"
    "tc(X,Y) :- tc(X,Z), e(Z,Y).\n",
    // A non-recursive unit reading e twice, and a closure over it.
    "two(X,Y) :- e(X,Z), e(Z,Y).\n"
    "r(X,Y) :- two(X,Y).\n"
    "r(X,Y) :- r(X,Z), f(Z,Y).\n",
    // Non-recursive units over the closure: a constant and a repeated
    // variable.
    "tc(X,Y) :- e(X,Y).\n"
    "tc(X,Y) :- tc(X,Z), e(Z,Y).\n"
    "from0(Y) :- tc(0,Y).\n"
    "loop(X) :- tc(X,X).\n",
    // A joint component.
    "a(X,Y) :- e(X,Y).\n"
    "a(X,Y) :- b(X,Z), e(Z,Y).\n"
    "b(X,Y) :- a(X,Z), f(Z,Y).\n",
    // A closure step reading e twice: one derivation can use a deleted
    // edge through both atoms (W = Y).
    "s(X,Y) :- f(X,Y).\n"
    "s(X,Y) :- s(X,Z), e(Z,W), e(Z,Y).\n",
};

Atom Fact(const std::string& pred, Value a, Value b) {
  Atom fact;
  fact.predicate = pred;
  fact.terms = {Term::MakeConst(a), Term::MakeConst(b)};
  return fact;
}

/// Every derived relation of `instance`, materialized by a full goal.
std::map<std::string, Relation> Derived(ProgramInstance& instance,
                                        Planner& planner) {
  std::map<std::string, Relation> out;
  for (const auto& [pred, unit] : instance.program()->unit_of) {
    const CompiledUnit& u = instance.program()->units[unit];
    const std::size_t arity =
        u.arities[instance.program()->member_of.at(pred)];
    Atom goal;
    goal.predicate = pred;
    for (std::size_t i = 0; i < arity; ++i) {
      goal.terms.push_back(Term::MakeVar(static_cast<VarId>(i)));
    }
    auto result = instance.EvalQuery(goal, planner);
    EXPECT_TRUE(result.ok()) << pred << ": " << result.status();
    if (result.ok()) out.emplace(pred, result->relations.front());
  }
  return out;
}

TEST(IvmDifferential, ProgramCascadeMatchesFreshInstanceAfterEveryOp) {
  WorkerPool::OverrideThreadCapForTesting(16);
  for (std::uint32_t seed : CaseSeeds(kProgramCases)) {
    SCOPED_TRACE("case seed " + std::to_string(seed) +
                 " (replay: LINREC_IVM_SEED=" + std::to_string(seed) + ")");
    std::mt19937 rng(seed);
    const int workers[] = {1, 2, 8};
    EngineOptions options;
    options.parallel_workers = workers[seed % 3];
    std::string text = kProgramGroups[(seed / 3) % 5];
    if (rng() % 2 == 0) text += kProgramGroups[(seed / 3 + 1) % 5];
    Result<Program> parsed = ParseProgram(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    Planner planner;
    Result<CompiledProgram> compiled = CompileProgram(parsed->rules, planner);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    auto program =
        std::make_shared<const CompiledProgram>(std::move(compiled).value());

    const int nodes = 8 + static_cast<int>(rng() % 10);
    const bool dag = rng() % 2 == 0;
    std::map<std::string, Relation> facts = {
        {"e", RandomEdges(rng, nodes, nodes + static_cast<int>(rng() % 10),
                          dag)},
        {"f", RandomEdges(rng, nodes, nodes / 2, dag)}};

    ProgramInstance maintained(options);
    maintained.SetProgram(program);
    for (const auto& [pred, rel] : facts) {
      for (TupleView t : rel) {
        ASSERT_TRUE(maintained.AddFact(Fact(pred, t[0], t[1])).ok());
      }
    }
    Derived(maintained, planner);  // materialize every unit

    for (int i = 0; i < kOpsPerCase; ++i) {
      const std::string where = "op " + std::to_string(i);
      const std::string pred = rng() % 3 == 0 ? "f" : "e";
      Relation& input = facts.at(pred);
      const bool insert = input.empty() || rng() % 2 == 0;
      Value a = 0;
      Value b = 0;
      if (insert) {
        do {
          std::tie(a, b) = RandomEdge(rng, nodes, dag);
        } while (input.Contains({a, b}));
      } else {
        TupleView t = input.Row(static_cast<RowId>(rng() % input.size()));
        a = t[0];
        b = t[1];
      }
      auto outcome = insert ? maintained.InsertFact(Fact(pred, a, b))
                            : maintained.DeleteFact(Fact(pred, a, b));
      ASSERT_TRUE(outcome.ok()) << where << ": " << outcome.status();
      EXPECT_TRUE(insert ? outcome->applied : outcome->removed) << where;
      if (insert) {
        input.Insert({a, b});
      } else {
        input = Without(input, Edge(a, b));
      }

      ProgramInstance fresh(options);
      fresh.SetProgram(program);
      for (const auto& [p, rel] : facts) {
        for (TupleView t : rel) {
          ASSERT_TRUE(fresh.AddFact(Fact(p, t[0], t[1])).ok());
        }
      }
      const std::map<std::string, Relation> expected =
          Derived(fresh, planner);
      for (const auto& [p, rel] : expected) {
        const Relation* now = maintained.engine().db().Find(p);
        ASSERT_NE(now, nullptr) << where << " " << p;
        EXPECT_EQ(*now, rel)
            << where << ": " << (insert ? "INSERT " : "DELETE ") << pred
            << "(" << a << "," << b << ") left " << p << " wrong";
      }
      if (::testing::Test::HasFailure()) break;
    }
    if (::testing::Test::HasFailure()) break;
  }
  WorkerPool::OverrideThreadCapForTesting(0);
}

}  // namespace
}  // namespace linrec
