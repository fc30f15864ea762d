// Recursively redundant predicates (Section 6.2): the engine detects them
// with the Theorem 6.3 analyzer, factors A^L = B C^L (Lemmas 6.3-6.5), and
// elides the redundant predicate from the unbounded tail (Theorem 4.2) —
// all during Prepare(); the caller only states the query.
//
// Scenario: Example 6.1's market program with an expensive endorsement
// check:
//   buys(X,Y) :- knows(X,Z), buys(Z,Y), endorses(W,Y).

#include <iostream>

#include "datalog/parser.h"
#include "datalog/printer.h"
#include "engine/engine.h"
#include "workload/databases.h"

using namespace linrec;

int main() {
  auto rule = ParseLinearRule(
      "buys(X,Y) :- knows(X,Z), buys(Z,Y), endorses(W,Y).");
  if (!rule.ok()) return 1;
  std::cout << "rule: " << ToString(*rule) << "\n\n";

  // 1. The engine's cached analysis: which nonrecursive predicates are
  // recursively redundant?
  EndorsedBuysWorkload w = MakeEndorsedBuys(/*people=*/300, /*items=*/75,
                                            /*fanout=*/32,
                                            /*initial_buys=*/75, /*seed=*/7);
  Engine engine(std::move(w.db));
  auto info = engine.Analyze(*rule);
  if (!info.ok()) {
    std::cerr << "analysis failed: " << info.status() << "\n";
    return 1;
  }
  if ((*info)->redundancy.has_value()) {
    const RedundancyReport& report = *(*info)->redundancy;
    std::cout << "redundant predicates:";
    for (const std::string& pred : report.redundant_predicates) {
      std::cout << " " << pred;
    }
    std::cout << "\n";
    for (const RedundancyEntry& entry : report.entries) {
      std::cout << "  bridge " << entry.bridge_index << ": {";
      for (std::size_t i = 0; i < entry.predicates.size(); ++i) {
        std::cout << (i ? "," : "") << entry.predicates[i];
      }
      std::cout << "} uniformly bounded: "
                << (entry.uniformly_bounded ? "yes" : "no");
      if (entry.uniformly_bounded) {
        std::cout << " (C^" << entry.bound.n << " <= C^" << entry.bound.k
                  << ")";
      }
      std::cout << "\n";
    }
  }

  // 2. Prepare: the factorization happens inside the engine; Explain()
  // names the elided predicate and the theorems that license the elision.
  auto aware_q = engine.Prepare(Query::Closure({*rule}));
  if (!aware_q.ok()) {
    std::cerr << "planning failed: " << aware_q.status() << "\n";
    return 1;
  }
  std::cout << "\n" << aware_q->plan().Explain() << "\n";

  // 3. Evaluate both ways on a deep workload with heavy endorsement
  // fanout; each QueryResult carries its own stats.
  auto direct_q = engine.Prepare(
      Query::Closure({*rule}).Force(Strategy::kSemiNaive));
  if (!direct_q.ok()) {
    std::cerr << "planning failed: " << direct_q.status() << "\n";
    return 1;
  }
  auto aware = engine.Execute(aware_q->Bind().BindSeed(w.q));
  auto direct = engine.Execute(direct_q->Bind().BindSeed(w.q));
  if (!direct.ok() || !aware.ok()) {
    std::cerr << "evaluation failed\n";
    return 1;
  }

  const bool agree = direct->relation() == aware->relation();
  std::cout << "\nclosure over " << w.q.size() << " initial purchases:\n";
  std::cout << "  result size      : " << direct->relation().size()
            << " (strategies agree: " << (agree ? "yes" : "NO!") << ")\n";
  std::cout << "  direct           : " << direct->stats.derivations
            << " derivations, " << direct->stats.millis << " ms\n";
  std::cout << "  redundancy-aware : " << aware->stats.derivations
            << " derivations, " << aware->stats.millis << " ms\n";
  std::cout << "\nThe redundant predicate is applied a bounded number of "
               "times instead of once per iteration.\n";
  return agree ? 0 : 1;
}
