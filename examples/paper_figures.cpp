// Regenerates the paper's nine figures: for each figure rule, prints the
// α-graph analysis (variable classes, bridges) as text plus Graphviz DOT,
// and the derived artifacts the paper discusses (narrow/wide rules,
// composites, factorizations).
//
// Usage:
//   paper_figures            # text report for all figures
//   paper_figures --dot      # DOT only (pipe into graphviz)

#include <iostream>
#include <string>

#include "analysis/dot.h"
#include "analysis/narrow_wide.h"
#include "analysis/rule_analysis.h"
#include "commutativity/oracle.h"
#include "cq/compose.h"
#include "datalog/parser.h"
#include "datalog/printer.h"
#include "redundancy/analyze.h"
#include "redundancy/factorize.h"

using namespace linrec;

namespace {

bool g_dot_only = false;

void Show(const std::string& title, const std::string& rule_text) {
  auto rule = ParseLinearRule(rule_text);
  if (!rule.ok()) {
    std::cerr << title << ": parse error " << rule.status() << "\n";
    return;
  }
  auto analysis = RuleAnalysis::Compute(*rule);
  if (!analysis.ok()) {
    std::cerr << title << ": " << analysis.status() << "\n";
    return;
  }
  if (g_dot_only) {
    std::cout << "// " << title << "\n" << ToDot(*analysis) << "\n";
    return;
  }
  std::cout << "==== " << title << " ====\n"
            << AsciiReport(*analysis) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--dot") g_dot_only = true;
  }

  // Figure 1 (Example 5.1): a rule built so that its α-graph has the classes
  // the example names — z free 1-persistent; w, y link 1-persistent; u, v
  // free 2-persistent; x general.
  Show("Figure 1: classification example (Example 5.1)",
       "p(U,V,W,X,Y,Z) :- p(V,U,W,Y,Y,Z), q(W,X), rr(X,Y).");

  // Figure 2 — augmented bridges; also print the narrow and wide rules.
  {
    const char* text =
        "p(U,W,X,Y,Z) :- p(U,U,U,Y,Y), q(U,X,Y), rr(W), s(X), t(Z).";
    Show("Figure 2: augmented bridges", text);
    auto rule = ParseLinearRule(text);
    auto analysis = RuleAnalysis::Compute(*rule);
    if (analysis.ok() && !g_dot_only) {
      for (const Bridge& b : analysis->commutativity_bridges()) {
        if (b.atom_indices.empty()) continue;
        auto narrow = MakeNarrowRule(*analysis, b);
        auto wide = MakeWideRule(*analysis, b);
        if (narrow.ok() && wide.ok()) {
          std::cout << "  narrow: " << ToString(*narrow) << "\n";
          std::cout << "  wide  : " << ToString(*wide) << "\n";
        }
      }
      std::cout << "\n";
    }
  }

  // Figures 3-5: the commuting pairs of Examples 5.2-5.4.
  Show("Figure 3a: transitive closure, down form (Example 5.2)",
       "p(X,Y) :- p(X,V), down(V,Y).");
  Show("Figure 3b: transitive closure, up form (Example 5.2)",
       "p(X,Y) :- p(U,Y), up(X,U).");
  Show("Figure 4a: Example 5.3 r1", "p(X,Y,Z) :- p(U,Y,Z), q(X,Y).");
  Show("Figure 4b: Example 5.3 r2", "p(X,Y,Z) :- p(X,Y,U), rr(Z,Y).");
  Show("Figure 5a: Example 5.4 r1 (condition fails, rules commute)",
       "p(X,Y) :- p(Y,W), q(X).");
  Show("Figure 5b: Example 5.4 r2", "p(X,Y) :- p(U,V), q(X), q(Y).");

  if (!g_dot_only) {
    auto r1 = ParseLinearRule("p(X,Y) :- p(X,V), down(V,Y).");
    auto r2 = ParseLinearRule("p(X,Y) :- p(U,Y), up(X,U).");
    auto composite = Compose(*r1, *r2);
    auto verdict = CheckCommutativity(*r1, *r2);
    std::cout << "Example 5.2 composite (the same-generation rule): "
              << ToString(*composite) << "\n"
              << "commute: " << (verdict->commute ? "yes" : "no") << "\n\n";
  }

  // Figure 6 (Example 6.1).
  Show("Figure 6: knows/buys/cheap (Example 6.1)",
       "buys(X,Y) :- knows(X,Z), buys(Z,Y), cheap(Y).");
  if (!g_dot_only) {
    auto rule = ParseLinearRule(
        "buys(X,Y) :- knows(X,Z), buys(Z,Y), cheap(Y).");
    auto report = AnalyzeRedundancy(*rule);
    std::cout << "redundant predicates:";
    for (const std::string& p : report->redundant_predicates) {
      std::cout << " " << p;
    }
    std::cout << "\n\n";
  }

  // Figures 7-8 (Example 6.2) and Figure 9 (Example 6.3).
  Show("Figure 7: Example 6.2 rule",
       "p(W,X,Y,Z) :- p(X,W,X,U), q(X,U), rr(X,Y), s(U,Z).");
  if (!g_dot_only) {
    auto rule = ParseLinearRule(
        "p(W,X,Y,Z) :- p(X,W,X,U), q(X,U), rr(X,Y), s(U,Z).");
    auto f = FactorFirstRedundant(*rule);
    if (f.ok()) {
      std::cout << "Example 6.2 factorization (L=" << f->L << "):\n"
                << "  A^2: " << ToString(f->AL) << "\n"
                << "  B  : " << ToString(f->B) << "\n"
                << "  C^2: " << ToString(f->CL) << "\n"
                << "  B and C^2 commute: " << (f->commuting ? "yes" : "no")
                << "\n\n";
      auto b_analysis = RuleAnalysis::Compute(f->B);
      auto c_analysis = RuleAnalysis::Compute(f->CL);
      if (b_analysis.ok() && c_analysis.ok()) {
        std::cout << "==== Figure 8a: B ====\n" << AsciiReport(*b_analysis)
                  << "\n==== Figure 8b: C^2 ====\n"
                  << AsciiReport(*c_analysis) << "\n";
      }
    }
  }
  Show("Figure 9: Example 6.3 rule (swap condition without commutativity)",
       "p(W,X,Y,Z) :- p(X,W,X,U), q(Y,U), rr(X,Y), s(U,Z).");
  if (!g_dot_only) {
    auto rule = ParseLinearRule(
        "p(W,X,Y,Z) :- p(X,W,X,U), q(Y,U), rr(X,Y), s(U,Z).");
    auto f = FactorFirstRedundant(*rule);
    if (f.ok()) {
      std::cout << "Example 6.3: BC^2 = C^2B? "
                << (f->commuting ? "yes" : "no")
                << "   C^2(BC^2) = C^2(C^2B)? "
                << (f->swap_verified ? "yes" : "no") << "\n";
    }
  }
  return 0;
}
