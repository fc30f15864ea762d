#include "analysis/bridges.h"

#include <gtest/gtest.h>

#include "analysis/rule_analysis.h"
#include "datalog/parser.h"

namespace linrec {
namespace {

LinearRule LR(const std::string& text) {
  auto lr = ParseLinearRule(text);
  EXPECT_TRUE(lr.ok()) << lr.status();
  return *lr;
}

VarId Var(const LinearRule& lr, const std::string& name) {
  for (VarId v = 0; v < lr.rule().var_count(); ++v) {
    if (lr.rule().var_name(v) == name) return v;
  }
  ADD_FAILURE() << "no variable " << name;
  return -1;
}

TEST(BridgesTest, TransitiveClosureHasOneBridgePerGeneralSide) {
  LinearRule r = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto a = RuleAnalysis::Compute(r);
  ASSERT_TRUE(a.ok());
  // No link 1-persistent vars, so V' is empty: bridges are the connected
  // components. X has its dynamic self-arc; Z,Y form the e-component.
  const auto& bridges = a->commutativity_bridges();
  ASSERT_EQ(bridges.size(), 2u);
}

TEST(BridgesTest, Figure2ThreeBridges) {
  // Figure 2 of the paper, with Q read as the ternary Q(u,x,y) the way the
  // paper's narrow rule P(u,x,y) :- P(u,u,y), Q(u,x,y), S(x) writes it:
  // P(u,w,x,y,z) :- P(u,u,u,y,y), Q(u,x,y), R(w), S(x), T(z).
  LinearRule r =
      LR("p(U,W,X,Y,Z) :- p(U,U,U,Y,Y), q(U,X,Y), rr(W), s(X), t(Z).");
  auto a = RuleAnalysis::Compute(r);
  ASSERT_TRUE(a.ok());
  // U and Y are link 1-persistent; bridges split at them.
  EXPECT_TRUE(a->classes().Of(Var(r, "U")).IsLink1Persistent());
  EXPECT_TRUE(a->classes().Of(Var(r, "Y")).IsLink1Persistent());

  const auto& bridges = a->commutativity_bridges();
  ASSERT_EQ(bridges.size(), 3u);

  // Identify the three bridges by their predicate content.
  int rr_bridge = -1, qs_bridge = -1, t_bridge = -1;
  for (std::size_t i = 0; i < bridges.size(); ++i) {
    bool has_rr = false, has_q = false, has_t = false;
    for (int ai : bridges[i].atom_indices) {
      const std::string& pred =
          r.rule().body()[static_cast<std::size_t>(ai)].predicate;
      has_rr |= pred == "rr";
      has_q |= pred == "q";
      has_t |= pred == "t";
    }
    if (has_rr) rr_bridge = static_cast<int>(i);
    if (has_q) qs_bridge = static_cast<int>(i);
    if (has_t) t_bridge = static_cast<int>(i);
  }
  ASSERT_GE(rr_bridge, 0);
  ASSERT_GE(qs_bridge, 0);
  ASSERT_GE(t_bridge, 0);
  EXPECT_NE(rr_bridge, qs_bridge);
  EXPECT_NE(qs_bridge, t_bridge);

  // The q-bridge also contains s (shared node X) and attaches U and Y.
  const Bridge& qs = bridges[static_cast<std::size_t>(qs_bridge)];
  EXPECT_EQ(qs.atom_indices.size(), 2u);
  EXPECT_TRUE(qs.ContainsVar(Var(r, "U")));
  EXPECT_TRUE(qs.ContainsVar(Var(r, "Y")));
  EXPECT_TRUE(qs.ContainsVar(Var(r, "X")));
}

TEST(BridgesTest, AttachedExpandsThroughGPrimeComponents) {
  // Redundancy bridges of Figure 7's rule: the R-bridge attaches the whole
  // G_I component {W,X,Y}.
  LinearRule r = LR("p(W,X,Y,Z) :- p(X,W,X,U), q(X,U), rr(X,Y), s(U,Z).");
  auto a = RuleAnalysis::Compute(r);
  ASSERT_TRUE(a.ok());
  const auto& bridges = a->redundancy_bridges();
  int rr_bridge = -1;
  for (std::size_t i = 0; i < bridges.size(); ++i) {
    for (int ai : bridges[i].atom_indices) {
      if (r.rule().body()[static_cast<std::size_t>(ai)].predicate == "rr") {
        rr_bridge = static_cast<int>(i);
      }
    }
  }
  ASSERT_GE(rr_bridge, 0);
  const Bridge& b = bridges[static_cast<std::size_t>(rr_bridge)];
  EXPECT_TRUE(b.ContainsVar(Var(r, "W")));
  EXPECT_TRUE(b.ContainsVar(Var(r, "X")));
  EXPECT_TRUE(b.ContainsVar(Var(r, "Y")));
  EXPECT_FALSE(b.ContainsVar(Var(r, "Z")));
}

TEST(BridgesTest, LiteralCoarseningKeepsAtomsWhole) {
  // q(A,V,B) with V link 1-persistent: the two q-arcs must stay together.
  LinearRule r = LR("p(V,A,B) :- p(V,V,V), q(A,V,B), g(V).");
  auto a = RuleAnalysis::Compute(r);
  ASSERT_TRUE(a.ok());
  int q_atom = -1;
  for (int ai : r.NonRecursiveAtomIndices()) {
    if (r.rule().body()[static_cast<std::size_t>(ai)].predicate == "q") {
      q_atom = ai;
    }
  }
  int owners = 0;
  for (const Bridge& b : a->commutativity_bridges()) {
    if (std::count(b.atom_indices.begin(), b.atom_indices.end(), q_atom) >
        0) {
      ++owners;
    }
  }
  EXPECT_EQ(owners, 1);
}

TEST(BridgesTest, BridgeOfLookup) {
  LinearRule r = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto a = RuleAnalysis::Compute(r);
  ASSERT_TRUE(a.ok());
  int bx = a->CommutativityBridgeOf(Var(r, "X"));
  int by = a->CommutativityBridgeOf(Var(r, "Y"));
  ASSERT_GE(bx, 0);
  ASSERT_GE(by, 0);
  EXPECT_NE(bx, by);
  EXPECT_EQ(a->CommutativityBridgeOf(Var(r, "Z")), by);
}

TEST(BridgesTest, EPrimeArcsBelongToNoBridge) {
  LinearRule r = LR("p(V,X) :- p(V,V), g(V), e(X,V).");
  auto a = RuleAnalysis::Compute(r);
  ASSERT_TRUE(a.ok());
  // V is link 1-persistent; its self dynamic arc is E'.
  for (const Bridge& b : a->commutativity_bridges()) {
    for (int arc_id : b.arcs) {
      const AlphaArc& arc = a->graph().arcs()[static_cast<std::size_t>(arc_id)];
      bool is_self_dynamic_at_link = arc.is_dynamic() && arc.u == arc.v &&
                                     arc.u == Var(r, "V");
      EXPECT_FALSE(is_self_dynamic_at_link);
    }
  }
}

}  // namespace
}  // namespace linrec
