// End-to-end reproduction of the paper's worked examples and figures, and
// of its closure identities: Lassez–Maher and Dong (§3.2) and the
// n-operator, multi-selection form of Theorem 4.1 (§4.1). Each test states
// the paper's claim and verifies it through the public API.

#include <gtest/gtest.h>

#include "algebra/closure.h"
#include "analysis/rule_analysis.h"
#include "commutativity/definitional.h"
#include "commutativity/oracle.h"
#include "cq/compose.h"
#include "cq/homomorphism.h"
#include "datalog/parser.h"
#include "eval/fixpoint.h"
#include "redundancy/analyze.h"
#include "redundancy/factorize.h"
#include "separability/algorithm.h"
#include "separability/separable.h"
#include "workload/graphs.h"

namespace linrec {
namespace {

LinearRule LR(const std::string& text) {
  auto lr = ParseLinearRule(text);
  EXPECT_TRUE(lr.ok()) << lr.status();
  return *lr;
}

const VarClass& ClassOf(const RuleAnalysis& a, const std::string& name) {
  const Rule& r = a.rule().rule();
  for (VarId v = 0; v < r.var_count(); ++v) {
    if (r.var_name(v) == name) return a.classes().Of(v);
  }
  ADD_FAILURE() << "no variable " << name;
  static VarClass dummy;
  return dummy;
}

// ---------------------------------------------------------------------------
// Figure 1 / Example 5.1: variable classification.
TEST(PaperFigures, F1_Example51_Classification) {
  auto a = RuleAnalysis::Compute(
      LR("p(U,V,W,X,Y,Z) :- p(V,U,W,Y,Y,Z), q(W,X), rr(X,Y)."));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(ClassOf(*a, "Z").Describe(), "free 1-persistent");
  EXPECT_EQ(ClassOf(*a, "W").Describe(), "link 1-persistent");
  EXPECT_EQ(ClassOf(*a, "Y").Describe(), "link 1-persistent");
  EXPECT_EQ(ClassOf(*a, "U").Describe(), "free 2-persistent");
  EXPECT_EQ(ClassOf(*a, "V").Describe(), "free 2-persistent");
  EXPECT_TRUE(ClassOf(*a, "X").IsGeneral());
}

// ---------------------------------------------------------------------------
// Figure 2: three augmented bridges with the paper's narrow and wide rules
// (verified in detail in narrow_wide_test; here: the partition).
TEST(PaperFigures, F2_AugmentedBridges) {
  auto a = RuleAnalysis::Compute(
      LR("p(U,W,X,Y,Z) :- p(U,U,U,Y,Y), q(U,X,Y), rr(W), s(X), t(Z)."));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->commutativity_bridges().size(), 3u);
}

// ---------------------------------------------------------------------------
// Figure 3 / Example 5.2: the two linear forms of transitive closure
// commute; their composite is the same-generation rule.
TEST(PaperFigures, F3_Example52_TransitiveClosureForms) {
  LinearRule r1 = LR("p(X,Y) :- p(X,V), down(V,Y).");
  LinearRule r2 = LR("p(X,Y) :- p(U,Y), up(X,U).");
  auto report = CheckCommutativity(r1, r2);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->commute);
  EXPECT_TRUE(report->syntactic_holds);

  auto c12 = Compose(r1, r2);
  auto c21 = Compose(r2, r1);
  ASSERT_TRUE(c12.ok());
  ASSERT_TRUE(c21.ok());
  auto sg = ParseLinearRule("p(X,Y) :- p(U,V), up(X,U), down(V,Y).");
  ASSERT_TRUE(sg.ok());
  EXPECT_TRUE(AreEquivalent(c12->rule(), sg->rule()));
  EXPECT_TRUE(AreEquivalent(c21->rule(), sg->rule()));
}

// ---------------------------------------------------------------------------
// Figure 4 / Example 5.3: the 3-ary pair commutes; both composites equal the
// paper's rule.
TEST(PaperFigures, F4_Example53_TernaryPair) {
  LinearRule r1 = LR("p(X,Y,Z) :- p(U,Y,Z), q(X,Y).");
  LinearRule r2 = LR("p(X,Y,Z) :- p(X,Y,U), rr(Z,Y).");
  auto report = CheckCommutativity(r1, r2);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->commute);
  EXPECT_TRUE(report->syntactic_holds);

  auto c12 = Compose(r1, r2);
  ASSERT_TRUE(c12.ok());
  auto expected = ParseLinearRule("p(X,Y,Z) :- p(U,Y,V), q(X,Y), rr(Z,Y).");
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(AreEquivalent(c12->rule(), expected->rule()));
}

// ---------------------------------------------------------------------------
// Figure 5 / Example 5.4: commuting pair for which the syntactic condition
// fails — sufficiency is strict outside the restricted class.
TEST(PaperFigures, F5_Example54_ConditionNotNecessary) {
  LinearRule r1 = LR("p(X,Y) :- p(Y,W), q(X).");
  LinearRule r2 = LR("p(X,Y) :- p(U,V), q(X), q(Y).");
  auto syntactic = CheckSyntacticCondition(r1, r2);
  ASSERT_TRUE(syntactic.ok());
  EXPECT_FALSE(syntactic->condition_holds);
  auto exact = DefinitionalCommute(r1, r2);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(*exact);

  // Both composites isomorphic to p(X,Y) :- p(U,W'), q(Y), q(W), q(X)
  // (paper text, modulo renaming).
  auto c12 = Compose(r1, r2);
  ASSERT_TRUE(c12.ok());
  auto expected =
      ParseLinearRule("p(X,Y) :- p(A,B), q(Y), q(W), q(X).");
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(AreEquivalent(c12->rule(), expected->rule()));
}

// ---------------------------------------------------------------------------
// Figure 6 / Example 6.1: cheap is recursively redundant.
TEST(PaperFigures, F6_Example61_CheapRedundant) {
  LinearRule r = LR("buys(X,Y) :- knows(X,Z), buys(Z,Y), cheap(Y).");
  auto a = RuleAnalysis::Compute(r);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(ClassOf(*a, "Y").IsLink1Persistent());
  EXPECT_TRUE(ClassOf(*a, "X").IsGeneral());

  auto report = AnalyzeRedundancy(r);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->redundant_predicates.size(), 1u);
  EXPECT_EQ(report->redundant_predicates[0], "cheap");
}

// ---------------------------------------------------------------------------
// Figures 7-8 / Example 6.2: factorization A² = BC², B and C² commute.
TEST(PaperFigures, F7_F8_Example62_Factorization) {
  LinearRule a = LR("p(W,X,Y,Z) :- p(X,W,X,U), q(X,U), rr(X,Y), s(U,Z).");
  auto analysis = RuleAnalysis::Compute(a);
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(ClassOf(*analysis, "W").Describe(), "link 2-persistent");
  EXPECT_EQ(ClassOf(*analysis, "X").Describe(), "link 2-persistent");
  EXPECT_EQ(ClassOf(*analysis, "Y").ray_depth, 1);

  auto f = FactorFirstRedundant(a);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->L, 2);
  EXPECT_TRUE(f->product_verified);
  EXPECT_TRUE(f->swap_verified);

  // Paper's A²: P(w,x,y,z) :- P(w,x,w,u'), Q(w,u'), R(w,x), S(u',u),
  //                           Q(x,u), R(x,y), S(u,z).
  auto expected_a2 = ParseLinearRule(
      "p(W,X,Y,Z) :- p(W,X,W,U1), q(W,U1), rr(W,X), s(U1,U), q(X,U), "
      "rr(X,Y), s(U,Z).");
  ASSERT_TRUE(expected_a2.ok());
  EXPECT_TRUE(AreEquivalent(f->AL.rule(), expected_a2->rule()));

  // Figure 8: B and C² commute (checked syntactically — both restricted).
  auto commute = Commute(f->B, f->CL);
  ASSERT_TRUE(commute.ok());
  EXPECT_TRUE(*commute);
}

// ---------------------------------------------------------------------------
// Figure 9 / Example 6.3: BC² ≠ C²B but C²(BC²) = C²(C²B).
TEST(PaperFigures, F9_Example63_SwapOnly) {
  LinearRule a = LR("p(W,X,Y,Z) :- p(X,W,X,U), q(Y,U), rr(X,Y), s(U,Z).");
  auto f = FactorFirstRedundant(a);
  ASSERT_TRUE(f.ok());
  auto bc = Compose(f->B, f->CL);
  auto cb = Compose(f->CL, f->B);
  ASSERT_TRUE(bc.ok());
  ASSERT_TRUE(cb.ok());
  EXPECT_FALSE(AreEquivalent(bc->rule(), cb->rule()));
  EXPECT_TRUE(f->swap_verified);
}

// ---------------------------------------------------------------------------
// Theorem 6.2: separable ⇒ commutative, strictly.
TEST(PaperTheorems, T62_SeparableStrictlyInsideCommutative) {
  LinearRule sep1 = LR("p(X,Y) :- p(X,V), down(V,Y).");
  LinearRule sep2 = LR("p(X,Y) :- p(U,Y), up(X,U).");
  auto sep = CheckSeparable(sep1, sep2);
  ASSERT_TRUE(sep.ok());
  EXPECT_TRUE(sep->separable);
  auto commute = Commute(sep1, sep2);
  ASSERT_TRUE(commute.ok());
  EXPECT_TRUE(*commute);

  // Example 5.3: commutative but not separable.
  LinearRule c1 = LR("p(X,Y,Z) :- p(U,Y,Z), q(X,Y).");
  LinearRule c2 = LR("p(X,Y,Z) :- p(X,Y,U), rr(Z,Y).");
  auto not_sep = CheckSeparable(c1, c2);
  ASSERT_TRUE(not_sep.ok());
  EXPECT_FALSE(not_sep->separable);
  auto commute2 = Commute(c1, c2);
  ASSERT_TRUE(commute2.ok());
  EXPECT_TRUE(*commute2);
}

// ---------------------------------------------------------------------------
// Section 3.2: the decomposition identities of Lassez–Maher and Dong,
// with every closure evaluated semi-naively on a concrete instance.

/// The closures the identities compare, on one instance (db, q).
struct Stars {
  Relation b_star_c_star;   // B*C* q: C* applied first
  Relation c_star_b_star;   // C*B* q: B* applied first
  Relation sum_star;        // (B+C)* q
  Relation union_of_stars;  // B* q ∪ C* q
};

Stars ComputeStars(const LinearRule& b, const LinearRule& c,
                   const Database& db, const Relation& q) {
  auto star = [&](const std::vector<LinearRule>& rules, const Relation& from) {
    Result<Relation> closed = SemiNaiveClosure(rules, db, from);
    EXPECT_TRUE(closed.ok()) << closed.status();
    return closed.ok() ? std::move(closed).value() : Relation(from.arity());
  };
  Relation b_star = star({b}, q);
  Relation c_star = star({c}, q);
  Relation union_of_stars = b_star;
  union_of_stars.UnionWith(c_star);
  return Stars{star({b}, c_star), star({c}, b_star), star({b, c}, q),
               std::move(union_of_stars)};
}

// Lassez–Maher (i): B*C* = C*B* = B* + C* ⇒ (B+C)* = B* + C*.
TEST(PaperTheorems, S32_LassezMaherI) {
  // Successor steps over two disjoint chains: B moves along b (nodes 0–4),
  // C along c (nodes 10–14), so neither can feed the other and the
  // premise holds on this instance.
  LinearRule b = LR("p(X) :- p(Y), b(Y,X).");
  LinearRule c = LR("p(X) :- p(Y), c(Y,X).");
  Database db;
  Relation& b_edges = db.GetOrCreate("b", 2);
  Relation& c_edges = db.GetOrCreate("c", 2);
  for (int i = 0; i < 4; ++i) {
    b_edges.Insert({i, i + 1});
    c_edges.Insert({10 + i, 11 + i});
  }
  Relation q(1);
  q.Insert({0});
  q.Insert({10});
  Stars s = ComputeStars(b, c, db, q);
  ASSERT_EQ(s.b_star_c_star, s.c_star_b_star);
  ASSERT_EQ(s.b_star_c_star, s.union_of_stars);  // the premise
  EXPECT_EQ(s.sum_star, s.union_of_stars);       // the conclusion
  EXPECT_EQ(s.sum_star.size(), 10u);
}

// Lassez–Maher (ii): BC = CB = B + C as operators ⇒ (B+C)* = B* + C*.
TEST(PaperTheorems, S32_LassezMaherII) {
  // Two spellings of one idempotent guard: g(Z) folds onto g(X), so B ≡ C
  // and BC ≡ CB ≡ B ≡ B + C as conjunctive queries.
  LinearRule b = LR("p(X) :- p(X), g(X).");
  LinearRule c = LR("p(X) :- p(X), g(X), g(Z).");
  Result<LinearRule> bc = Compose(b, c);
  Result<LinearRule> cb = Compose(c, b);
  ASSERT_TRUE(bc.ok()) << bc.status();
  ASSERT_TRUE(cb.ok()) << cb.status();
  ASSERT_TRUE(AreEquivalent(bc->rule(), cb->rule()));
  ASSERT_TRUE(UnionsEquivalent({bc->rule()}, {b.rule(), c.rule()}));

  Database db;
  Relation& g = db.GetOrCreate("g", 1);
  for (int i = 0; i < 5; ++i) g.Insert({i});
  Relation q(1);
  q.Insert({0});
  q.Insert({7});  // outside g
  Stars s = ComputeStars(b, c, db, q);
  EXPECT_EQ(s.sum_star, s.union_of_stars);
}

// Dong: B*C* = C*B* ⇔ (B+C)* = B*C* = C*B*.
TEST(PaperTheorems, S32_DongBiconditional) {
  // Commuting pair (Example 5.2, Theorem 5.1): both sides hold.
  {
    LinearRule b = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
    LinearRule c = LR("p(X,Y) :- p(Z,Y), f(X,Z).");
    Result<bool> commute = Commute(b, c);
    ASSERT_TRUE(commute.ok());
    ASSERT_TRUE(*commute);
    Database db;
    db.GetOrCreate("e", 2) = RandomGraph(12, 20, 9);
    db.GetOrCreate("f", 2) = RandomGraph(12, 20, 10);
    Relation q(2);
    for (int i = 0; i < 12; i += 3) q.Insert({i, i});
    Stars s = ComputeStars(b, c, db, q);
    EXPECT_EQ(s.b_star_c_star, s.c_star_b_star);
    EXPECT_EQ(s.sum_star, s.b_star_c_star);
    EXPECT_GT(s.sum_star.size(), s.union_of_stars.size());
  }
  // Non-commuting pair: an rr step after a q step is reachable only by
  // C*B*, so both sides fail together.
  {
    LinearRule b = LR("p(X,Y) :- p(X,Z), q(Z,Y).");
    LinearRule c = LR("p(X,Y) :- p(X,Z), rr(Z,Y).");
    Database db;
    db.GetOrCreate("q", 2).Insert({0, 1});
    db.GetOrCreate("rr", 2).Insert({1, 2});
    Relation q(2);
    q.Insert({0, 0});
    Stars s = ComputeStars(b, c, db, q);
    EXPECT_NE(s.b_star_c_star, s.c_star_b_star);
    EXPECT_NE(s.sum_star, s.b_star_c_star);
  }
}

// ---------------------------------------------------------------------------
// Section 4.1: the n-operator, multi-selection form of Theorem 4.1,
//   σ0 σ1 ... σn (A1 + ... + An)* = (σ1 A1*)(σ2 A2*)...(σn An*) σ0,
// for mutually commuting A_i, each σ_i commuting with every A_j (j ≠ i)
// and σ0 with all of them.
TEST(PaperTheorems, S41_MultiSelectionSeparability) {
  // Each operator rewrites its own column (A1: x, A2: y, A3: z); w passes
  // through all three.
  const std::vector<LinearRule> ops = {
      LR("p(W,X,Y,Z) :- p(W,U,Y,Z), a(U,X)."),
      LR("p(W,X,Y,Z) :- p(W,X,V,Z), b(V,Y)."),
      LR("p(W,X,Y,Z) :- p(W,X,Y,T), c(T,Z)."),
  };
  const Selection sigma0{0, 0};
  const std::vector<Selection> sigmas = {{1, 4}, {2, 5}, {3, 3}};
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (std::size_t j = 0; j < ops.size(); ++j) {
      if (i < j) {
        Result<bool> commute = Commute(ops[i], ops[j]);
        ASSERT_TRUE(commute.ok());
        ASSERT_TRUE(*commute) << i << " " << j;
      }
      if (i != j) {
        Result<bool> passes = SelectionCommutesWith(ops[j], sigmas[i]);
        ASSERT_TRUE(passes.ok());
        ASSERT_TRUE(*passes) << "σ" << i + 1 << " vs A" << j + 1;
      }
    }
    Result<bool> passes = SelectionCommutesWith(ops[i], sigma0);
    ASSERT_TRUE(passes.ok());
    ASSERT_TRUE(*passes) << "σ0 vs A" << i + 1;
  }

  Database db;
  db.GetOrCreate("a", 2) = ChainGraph(8);
  db.GetOrCreate("b", 2) = ChainGraph(8);
  db.GetOrCreate("c", 2) = ChainGraph(8);
  Relation q(4);
  q.Insert({0, 0, 0, 0});
  q.Insert({0, 1, 2, 3});
  q.Insert({1, 0, 0, 0});

  // Left side: close the sum, then apply every selection.
  Result<Relation> closed = SemiNaiveClosure(ops, db, q);
  ASSERT_TRUE(closed.ok()) << closed.status();
  Relation left = ApplySelection(*closed, sigma0);
  for (const Selection& sigma : sigmas) left = ApplySelection(left, sigma);

  // Right side, rightmost factor first: σ0, then An* and σn, ..., A1*, σ1.
  Relation right = ApplySelection(q, sigma0);
  for (std::size_t i = ops.size(); i-- > 0;) {
    Result<Relation> step = SemiNaiveClosure({ops[i]}, db, right);
    ASSERT_TRUE(step.ok()) << step.status();
    right = ApplySelection(*step, sigmas[i]);
  }
  EXPECT_EQ(right, left);
  const std::vector<Tuple> answer = {{0, 4, 5, 3}};
  EXPECT_EQ(right.Sorted(), answer);
}

}  // namespace
}  // namespace linrec
