// Joint multi-relation fixpoint: correctness against hand-computed
// closures and the naive reference, engine results independent of the
// worker count, alone and in a batch (with real threads forced, so
// single-core CI still runs the worker pool), and validation of malformed
// joint rules.

#include "eval/joint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datalog/parser.h"
#include "engine/engine.h"
#include "real_threads.h"
#include "workload/rulegen.h"

namespace linrec {
namespace {

TEST(JointFixpointTest, EvenOddChainClosure) {
  auto w = MakeEvenOddChain(10);
  ASSERT_TRUE(w.ok()) << w.status();
  ClosureStats stats;
  auto closed = JointSemiNaiveClosure(w->members, w->rules, w->db, w->seeds, &stats);
  ASSERT_TRUE(closed.ok()) << closed.status();
  ASSERT_EQ(closed->size(), 2u);
  const Relation& even = (*closed)[0];
  const Relation& odd = (*closed)[1];
  EXPECT_EQ(even.size(), 5u);
  EXPECT_EQ(odd.size(), 5u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(even.Contains({i}), i % 2 == 0) << i;
    EXPECT_EQ(odd.Contains({i}), i % 2 == 1) << i;
  }
  // The Δs alternate between the members: one round per chain node.
  EXPECT_GE(stats.iterations, 9u);
  EXPECT_EQ(stats.result_size, 10u);
}

TEST(JointFixpointTest, SemiNaiveMatchesNaiveReference) {
  auto even_odd = MakeEvenOddChain(16);
  ASSERT_TRUE(even_odd.ok());
  auto alternating = MakeAlternatingReachability(40, 90, /*seed=*/7);
  ASSERT_TRUE(alternating.ok());
  auto dense = MakeAlternatingReachability(60, 200, /*seed=*/3);
  ASSERT_TRUE(dense.ok());
  for (const JointWorkload* w : {&*even_odd, &*alternating, &*dense}) {
    auto semi = JointSemiNaiveClosure(w->members, w->rules, w->db, w->seeds);
    auto naive = JointNaiveClosure(w->members, w->rules, w->db, w->seeds);
    ASSERT_TRUE(semi.ok()) << semi.status();
    ASSERT_TRUE(naive.ok()) << naive.status();
    ASSERT_EQ(semi->size(), naive->size());
    for (std::size_t m = 0; m < semi->size(); ++m) {
      EXPECT_EQ((*semi)[m], (*naive)[m]) << "member " << m;
    }
    // Naive re-derives freely; the sets must still agree exactly.
    EXPECT_FALSE((*semi)[0].empty());
  }
}

TEST(JointFixpointTest, EngineRowsIndependentOfWorkerCount) {
  // Sized so rounds carry thousands of Δ rows: the closure over a dense
  // 2-colored graph. The worker count sizes only batch slots, so at every
  // count each member holds the same rows in the same order (what a reply
  // streams), from the same derivations — executed alone or as a slot of
  // a batch. Helper threads are forced on, so the batch fans out even on
  // one core.
  RealThreads threads;
  auto w = MakeAlternatingReachability(120, 480, /*seed=*/21);
  ASSERT_TRUE(w.ok()) << w.status();
  std::vector<std::vector<Tuple>> reference;
  std::size_t reference_derivations = 0;
  auto expect_reference = [&](const QueryResult& out, int workers) {
    std::vector<std::vector<Tuple>> rows;
    for (const Relation& member : out.relations) {
      rows.emplace_back();
      for (TupleView t : member) rows.back().push_back(t.ToTuple());
    }
    if (reference.empty()) {
      ASSERT_GT(rows[0].size() + rows[1].size(), 1000u);
      reference = std::move(rows);
      reference_derivations = out.stats.derivations;
      return;
    }
    EXPECT_EQ(rows, reference) << "workers=" << workers;
    EXPECT_EQ(out.stats.derivations, reference_derivations)
        << "workers=" << workers;
  };
  for (int workers : {1, 2, 8}) {
    EngineOptions options;
    options.parallel_workers = workers;
    Engine engine(w->db, options);
    auto prepared =
        engine.Prepare(Query::JointClosure(w->members, w->rules));
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    const BoundQuery bound = prepared->Bind().BindSeeds(w->seeds);
    auto out = engine.Execute(bound);
    ASSERT_TRUE(out.ok()) << out.status();
    expect_reference(*out, workers);
    auto batch = engine.ExecuteBatch({bound, bound, bound});
    ASSERT_TRUE(batch.ok()) << batch.status();
    for (const QueryResult& slot : *batch) expect_reference(slot, workers);
  }
}

TEST(JointFixpointTest, MemberWithNoConsumingRuleTerminates) {
  // Member 1's Δ feeds nothing: the loop must still reach fixpoint.
  auto w = MakeEvenOddChain(6);
  ASSERT_TRUE(w.ok());
  std::vector<JointRule> only_even_rule{w->rules[0]};  // even :- odd, succ
  auto closed = JointSemiNaiveClosure(w->members, only_even_rule, w->db, w->seeds);
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_EQ((*closed)[0].size(), 1u);  // seed only: odd never grows
  EXPECT_TRUE((*closed)[1].empty());
}

TEST(JointFixpointTest, EmptySeedsYieldEmptyClosure) {
  auto w = MakeEvenOddChain(6);
  ASSERT_TRUE(w.ok());
  std::vector<Relation> empty_seeds;
  empty_seeds.emplace_back(1);
  empty_seeds.emplace_back(1);
  auto closed = JointSemiNaiveClosure(w->members, w->rules, w->db, empty_seeds);
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_TRUE((*closed)[0].empty());
  EXPECT_TRUE((*closed)[1].empty());
}

TEST(JointFixpointTest, ValidationRejectsMalformedRules) {
  auto w = MakeEvenOddChain(6);
  ASSERT_TRUE(w.ok());

  {
    std::vector<JointRule> bad = w->rules;
    bad[0].head_member = 5;
    auto out = JointSemiNaiveClosure(w->members, bad, w->db, w->seeds);
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  }
  {
    std::vector<JointRule> bad = w->rules;
    bad[0].recursive_member = -1;
    EXPECT_FALSE(JointSemiNaiveClosure(w->members, bad, w->db, w->seeds).ok());
  }
  {
    std::vector<JointRule> bad = w->rules;
    bad[0].recursive_atom = 7;
    EXPECT_FALSE(JointSemiNaiveClosure(w->members, bad, w->db, w->seeds).ok());
  }
  {
    // Seed arity mismatch against the rule heads.
    std::vector<Relation> bad_seeds;
    bad_seeds.emplace_back(2);
    bad_seeds.emplace_back(1);
    EXPECT_FALSE(JointSemiNaiveClosure(w->members, w->rules, w->db, bad_seeds).ok());
  }
  {
    // Seed count must match member count.
    EXPECT_FALSE(JointSemiNaiveClosure(w->members, w->rules, w->db, {}).ok());
  }
  {
    // No members at all.
    EXPECT_FALSE(JointSemiNaiveClosure({}, w->rules, w->db, w->seeds).ok());
  }
  {
    // A second member atom in a body: the closure boundary itself must
    // reject it (the extra atom would resolve against db as an empty
    // relation and silently compute a wrong fixpoint).
    auto bad_rule = ParseRule("even(X) :- odd(Y), even(Y), succ(Y,X).");
    ASSERT_TRUE(bad_rule.ok());
    std::vector<JointRule> rules = w->rules;
    rules.push_back(JointRule{*bad_rule, 0, 0, 1});
    auto out = JointSemiNaiveClosure(w->members, rules, w->db, w->seeds);
    ASSERT_FALSE(out.ok());
    EXPECT_NE(out.status().message().find("exactly one member atom"),
              std::string::npos)
        << out.status().message();
  }
  {
    // Inconsistent member naming across rules (member 1 called both
    // "odd" and "other") is a caller error, not a silent misread.
    auto odd_rule = ParseRule("other(X) :- even(Y), succ(Y,X).");
    ASSERT_TRUE(odd_rule.ok());
    std::vector<JointRule> rules = w->rules;
    rules[1].rule = *odd_rule;  // head_member still 1, named "odd" by rules[0]
    EXPECT_FALSE(JointSemiNaiveClosure(w->members, rules, w->db, w->seeds).ok());
  }
}

TEST(JointFixpointTest, AlternatingReachabilityRejectsImpossibleEdgeCount) {
  // 2 nodes admit only 2 distinct non-self edges; asking for 3 must fail
  // up front instead of spinning in the dedup'd insert loop.
  auto w = MakeAlternatingReachability(2, 3, /*seed=*/1);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument);
}

TEST(JointFixpointTest, DuplicateAccountingWithPreloadedStats) {
  // Closure and Extend both count duplicates per call, from a snapshot
  // of the caller's record taken on entry.
  auto w = MakeAlternatingReachability(30, 80, /*seed=*/5);
  ASSERT_TRUE(w.ok()) << w.status();
  ClosureStats fresh;
  auto closed =
      JointSemiNaiveClosure(w->members, w->rules, w->db, w->seeds, &fresh);
  ASSERT_TRUE(closed.ok()) << closed.status();
  ASSERT_GT(fresh.duplicates, 0u);
  ClosureStats loaded;
  loaded.derivations = 1000;
  loaded.duplicates = 7;
  ASSERT_TRUE(
      JointSemiNaiveClosure(w->members, w->rules, w->db, w->seeds, &loaded)
          .ok());
  EXPECT_EQ(loaded.derivations, 1000 + fresh.derivations);
  EXPECT_EQ(loaded.duplicates, 7 + fresh.duplicates);

  // Extend from empty members with the seeds appended: the same work as
  // the closure, so the same duplicates on top of the preload.
  std::vector<Relation> rels = w->seeds;
  ClosureStats extend;
  extend.derivations = 1000;
  extend.duplicates = 7;
  ASSERT_TRUE(JointSemiNaiveExtend(w->members, w->rules, w->db,
                                   {&rels[0], &rels[1]},
                                   std::vector<RowId>(rels.size(), 0),
                                   &extend)
                  .ok());
  EXPECT_EQ(rels[0], (*closed)[0]);
  EXPECT_EQ(rels[1], (*closed)[1]);
  EXPECT_EQ(extend.duplicates, 7 + fresh.duplicates);
}

TEST(JointFixpointTest, StatsCountDerivationsAndRounds) {
  auto w = MakeEvenOddChain(12);
  ASSERT_TRUE(w.ok());
  ClosureStats stats;
  auto closed = JointSemiNaiveClosure(w->members, w->rules, w->db, w->seeds, &stats);
  ASSERT_TRUE(closed.ok());
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_GT(stats.derivations, 0u);
  EXPECT_EQ(stats.result_size, 12u);
  EXPECT_GT(stats.millis, 0.0);
}

}  // namespace
}  // namespace linrec
