// linrec-analyze: command-line rule analyzer.
//
// Reads a Datalog program from a file (or stdin with "-"), and for every
// recursive predicate reports: per-rule variable classification, pairwise
// commutativity (with the clause that justified each position),
// separability, recursively redundant predicates, and the execution plan
// the linrec::Engine would compile for the rule sum (with its commuting
// groups and theorem-level justification).
//
// Usage:
//   analyze program.dl
//   echo 'p(X,Y) :- p(X,Z), e(Z,Y).' | analyze -

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dot.h"
#include "analysis/rule_analysis.h"
#include "commutativity/oracle.h"
#include "datalog/parser.h"
#include "datalog/printer.h"
#include "engine/engine.h"
#include "redundancy/analyze.h"
#include "separability/separable.h"

using namespace linrec;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: " << argv[0] << " <program.dl | ->\n";
    return 2;
  }
  std::string text;
  if (std::string(argv[1]) == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  auto program = ParseProgram(text);
  if (!program.ok()) {
    std::cerr << "parse error: " << program.status() << "\n";
    return 1;
  }
  std::cout << program->rules.size() << " rule(s), "
            << program->facts.size() << " fact(s)\n\n";

  // Group linear recursive rules by head predicate. A rule whose body never
  // names its head predicate is a base rule: it seeds the closure rather
  // than being one of its operators.
  std::map<std::string, std::vector<LinearRule>> by_predicate;
  for (const Rule& rule : program->rules) {
    auto lr = LinearRule::Make(rule);
    if (lr.ok()) {
      by_predicate[rule.head().predicate].push_back(*lr);
    } else if (std::none_of(rule.body().begin(), rule.body().end(),
                            [&](const Atom& atom) {
                              return atom.predicate == rule.head().predicate;
                            })) {
      std::cout << "base rule (seeds the closure): " << ToString(rule)
                << "\n";
    } else {
      std::cout << "skipping non-linear rule: " << ToString(rule) << "\n";
    }
  }

  for (const auto& [pred, rules] : by_predicate) {
    std::cout << "== recursive predicate " << pred << "/"
              << rules[0].arity() << " (" << rules.size() << " rule(s)) ==\n";
    for (std::size_t i = 0; i < rules.size(); ++i) {
      std::cout << "\nrule " << i << ": " << ToString(rules[i]) << "\n";
      auto analysis = RuleAnalysis::Compute(rules[i]);
      if (!analysis.ok()) {
        std::cout << "  (analysis unavailable: " << analysis.status()
                  << ")\n";
        continue;
      }
      for (VarId v = 0; v < rules[i].rule().var_count(); ++v) {
        std::cout << "  " << rules[i].rule().var_name(v) << ": "
                  << analysis->classes().Of(v).Describe() << "\n";
      }
      auto redundancy = AnalyzeRedundancy(rules[i]);
      if (redundancy.ok() && !redundancy->redundant_predicates.empty()) {
        std::cout << "  recursively redundant:";
        for (const std::string& p : redundancy->redundant_predicates) {
          std::cout << " " << p;
        }
        std::cout << "\n";
      }
    }

    if (rules.size() >= 2) {
      std::cout << "\npairwise commutativity:\n";
      for (std::size_t i = 0; i < rules.size(); ++i) {
        for (std::size_t j = i + 1; j < rules.size(); ++j) {
          auto report = CheckCommutativity(rules[i], rules[j]);
          std::cout << "  rule " << i << " vs rule " << j << ": ";
          if (!report.ok()) {
            std::cout << report.status() << "\n";
            continue;
          }
          std::cout << (report->commute ? "commute" : "do NOT commute")
                    << (report->definitional_used ? " (via definition)"
                                                  : " (syntactic)")
                    << "\n";
          auto separable = CheckSeparable(rules[i], rules[j]);
          if (separable.ok() && separable->separable &&
              separable->cond_var_sets_disjoint) {
            std::cout << "    also separable (Naughton, disjoint form)\n";
          }
        }
      }
    }

    // What would the engine do with this rule sum? Prepare compiles the
    // structure alone — no seed needed; strategy selection is purely
    // symbolic.
    Engine engine;
    auto prepared = engine.Prepare(Query::Closure(rules));
    if (prepared.ok()) {
      std::cout << "\nengine plan:\n" << prepared->plan().Explain();
    } else {
      std::cout << "\nengine plan unavailable: " << prepared.status()
                << "\n";
    }
    std::cout << "\n";
  }
  return 0;
}
