#include "analysis/narrow_wide.h"

#include <gtest/gtest.h>

#include "cq/compose.h"
#include "cq/homomorphism.h"
#include "datalog/parser.h"
#include "datalog/printer.h"

namespace linrec {
namespace {

LinearRule LR(const std::string& text) {
  auto lr = ParseLinearRule(text);
  EXPECT_TRUE(lr.ok()) << lr.status();
  return *lr;
}

// Figure 2 rule. Q is read as the ternary Q(u,x,y), the way the paper's own
// narrow rule for the {Q, S} bridge writes it: P(u,x,y) :- P(u,u,y),
// Q(u,x,y), S(x).
const char* kFigure2 =
    "p(U,W,X,Y,Z) :- p(U,U,U,Y,Y), q(U,X,Y), rr(W), s(X), t(Z).";

struct NamedBridges {
  RuleAnalysis analysis;
  int rr = -1, qs = -1, t = -1;
};

NamedBridges Figure2Bridges() {
  auto analysis = RuleAnalysis::Compute(LR(kFigure2));
  EXPECT_TRUE(analysis.ok());
  NamedBridges out{std::move(*analysis)};
  const Rule& r = out.analysis.rule().rule();
  const auto& bridges = out.analysis.commutativity_bridges();
  for (std::size_t i = 0; i < bridges.size(); ++i) {
    for (int ai : bridges[i].atom_indices) {
      const std::string& pred = r.body()[static_cast<std::size_t>(ai)].predicate;
      if (pred == "rr") out.rr = static_cast<int>(i);
      if (pred == "q") out.qs = static_cast<int>(i);
      if (pred == "t") out.t = static_cast<int>(i);
    }
  }
  return out;
}

TEST(NarrowRuleTest, Figure2NarrowRules) {
  NamedBridges nb = Figure2Bridges();
  ASSERT_GE(nb.rr, 0);
  ASSERT_GE(nb.qs, 0);
  ASSERT_GE(nb.t, 0);

  // Paper: P(u,w) :- P(u,u), R(w).
  auto narrow_rr = MakeNarrowRule(
      nb.analysis, nb.analysis.commutativity_bridges()[static_cast<std::size_t>(nb.rr)]);
  ASSERT_TRUE(narrow_rr.ok()) << narrow_rr.status();
  auto expected_rr = ParseLinearRule("p#0_1(U,W) :- p#0_1(U,U), rr(W).");
  ASSERT_TRUE(expected_rr.ok());
  EXPECT_TRUE(AreEquivalent(narrow_rr->rule(), expected_rr->rule()))
      << ToString(*narrow_rr);

  // Paper: P(u,x,y) :- P(u,u,y), Q(u,x,y), S(x).
  auto narrow_qs = MakeNarrowRule(
      nb.analysis, nb.analysis.commutativity_bridges()[static_cast<std::size_t>(nb.qs)]);
  ASSERT_TRUE(narrow_qs.ok());
  auto expected_qs =
      ParseLinearRule("p#0_2_3(U,X,Y) :- p#0_2_3(U,U,Y), q(U,X,Y), s(X).");
  ASSERT_TRUE(expected_qs.ok());
  EXPECT_TRUE(AreEquivalent(narrow_qs->rule(), expected_qs->rule()))
      << ToString(*narrow_qs);

  // Paper: P(y,z) :- P(y,y), T(z).
  auto narrow_t = MakeNarrowRule(
      nb.analysis, nb.analysis.commutativity_bridges()[static_cast<std::size_t>(nb.t)]);
  ASSERT_TRUE(narrow_t.ok());
  auto expected_t = ParseLinearRule("p#3_4(Y,Z) :- p#3_4(Y,Y), t(Z).");
  ASSERT_TRUE(expected_t.ok());
  EXPECT_TRUE(AreEquivalent(narrow_t->rule(), expected_t->rule()))
      << ToString(*narrow_t);
}

TEST(WideRuleTest, Figure2WideRules) {
  NamedBridges nb = Figure2Bridges();
  // Paper: P(u,w,x,y,z) :- P(u,u,x,y,z)?? — no: wide keeps bridge positions'
  // antecedent entries and makes the rest free 1-persistent:
  // rr-bridge: P(u,w,x,y,z) :- P(u,u,x,y,z), R(w).
  auto wide_rr = MakeWideRule(
      nb.analysis, nb.analysis.commutativity_bridges()[static_cast<std::size_t>(nb.rr)]);
  ASSERT_TRUE(wide_rr.ok());
  auto expected_rr =
      ParseLinearRule("p(U,W,X,Y,Z) :- p(U,U,X,Y,Z), rr(W).");
  ASSERT_TRUE(expected_rr.ok());
  EXPECT_TRUE(AreEquivalent(wide_rr->rule(), expected_rr->rule()))
      << ToString(*wide_rr);

  // t-bridge: P(u,w,x,y,z) :- P(u,w,x,y,y), T(z).
  auto wide_t = MakeWideRule(
      nb.analysis, nb.analysis.commutativity_bridges()[static_cast<std::size_t>(nb.t)]);
  ASSERT_TRUE(wide_t.ok());
  auto expected_t = ParseLinearRule("p(U,W,X,Y,Z) :- p(U,W,X,Y,Y), t(Z).");
  ASSERT_TRUE(expected_t.ok());
  EXPECT_TRUE(AreEquivalent(wide_t->rule(), expected_t->rule()))
      << ToString(*wide_t);
}

TEST(ComplementTest, ProductRecoversOperator) {
  // Lemma 6.5 on Figure 7's rule: A = B·C for the rr-bridge.
  LinearRule a_rule =
      LR("p(W,X,Y,Z) :- p(X,W,X,U), q(X,U), rr(X,Y), s(U,Z).");
  auto analysis = RuleAnalysis::Compute(a_rule);
  ASSERT_TRUE(analysis.ok());
  int rr_bridge = -1;
  for (std::size_t i = 0; i < analysis->redundancy_bridges().size(); ++i) {
    for (int ai : analysis->redundancy_bridges()[i].atom_indices) {
      if (a_rule.rule().body()[static_cast<std::size_t>(ai)].predicate ==
          "rr") {
        rr_bridge = static_cast<int>(i);
      }
    }
  }
  ASSERT_GE(rr_bridge, 0);
  const Bridge& bridge =
      analysis->redundancy_bridges()[static_cast<std::size_t>(rr_bridge)];

  auto c = MakeWideRule(*analysis, bridge);
  ASSERT_TRUE(c.ok());
  // Paper (Example 6.2): C: P(w,x,y,z) :- P(x,w,x,z), R(x,y).
  auto expected_c = ParseLinearRule("p(W,X,Y,Z) :- p(X,W,X,Z), rr(X,Y).");
  ASSERT_TRUE(expected_c.ok());
  EXPECT_TRUE(AreEquivalent(c->rule(), expected_c->rule())) << ToString(*c);

  auto b = MakeComplementRule(*analysis, {&bridge});
  ASSERT_TRUE(b.ok());
  auto product = Compose(*b, *c);
  ASSERT_TRUE(product.ok());
  EXPECT_TRUE(AreEquivalent(product->rule(), a_rule.rule()))
      << "B = " << ToString(*b) << "\nBC = " << ToString(*product);
}

TEST(NarrowRuleTest, PositionEncodingDistinguishesProjections) {
  LinearRule r = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto analysis = RuleAnalysis::Compute(r);
  ASSERT_TRUE(analysis.ok());
  const auto& bridges = analysis->commutativity_bridges();
  ASSERT_EQ(bridges.size(), 2u);
  auto n0 = MakeNarrowRule(*analysis, bridges[0]);
  auto n1 = MakeNarrowRule(*analysis, bridges[1]);
  ASSERT_TRUE(n0.ok());
  ASSERT_TRUE(n1.ok());
  // Different projected positions → different head predicates.
  EXPECT_NE(n0->head().predicate, n1->head().predicate);
}

}  // namespace
}  // namespace linrec
