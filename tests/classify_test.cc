#include "analysis/classify.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"

namespace linrec {
namespace {

LinearRule LR(const std::string& text) {
  auto lr = ParseLinearRule(text);
  EXPECT_TRUE(lr.ok()) << lr.status();
  return *lr;
}

const VarClass& ClassOf(const Classification& c, const LinearRule& lr,
                        const std::string& name) {
  const Rule& r = lr.rule();
  for (VarId v = 0; v < r.var_count(); ++v) {
    if (r.var_name(v) == name) return c.Of(v);
  }
  ADD_FAILURE() << "no variable " << name;
  static VarClass dummy;
  return dummy;
}

TEST(ClassifyTest, TransitiveClosureRightLinear) {
  LinearRule r = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto c = Classification::Compute(r);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(ClassOf(*c, r, "X").IsFree1Persistent());
  EXPECT_TRUE(ClassOf(*c, r, "Y").IsGeneral());
  EXPECT_FALSE(ClassOf(*c, r, "Z").distinguished);
}

TEST(ClassifyTest, LinkPersistentByNonrecursiveOccurrence) {
  LinearRule r = LR("p(X,Y) :- p(X,Z), e(Z,Y), g(X).");
  auto c = Classification::Compute(r);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(ClassOf(*c, r, "X").IsLink1Persistent());
}

TEST(ClassifyTest, LinkPersistentByRepeatedRecursiveOccurrence) {
  // y appears twice in the recursive atom: link 1-persistent.
  LinearRule r = LR("p(X,Y) :- p(Y,Y), q(X).");
  auto c = Classification::Compute(r);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(ClassOf(*c, r, "Y").IsLink1Persistent());
  EXPECT_TRUE(ClassOf(*c, r, "X").IsGeneral());
  // X's h-image is Y (distinguished): X is 1-ray.
  EXPECT_EQ(ClassOf(*c, r, "X").ray_depth, 1);
}

TEST(ClassifyTest, FreeTwoPersistentSwap) {
  LinearRule r = LR("p(U,V,W) :- p(V,U,W), g(W).");
  auto c = Classification::Compute(r);
  ASSERT_TRUE(c.ok());
  const VarClass& u = ClassOf(*c, r, "U");
  EXPECT_TRUE(u.IsFreePersistent());
  EXPECT_EQ(u.period, 2);
  const VarClass& v = ClassOf(*c, r, "V");
  EXPECT_TRUE(v.IsFreePersistent());
  EXPECT_EQ(v.period, 2);
  EXPECT_TRUE(ClassOf(*c, r, "W").IsLink1Persistent());
}

TEST(ClassifyTest, LinkTwoPersistent) {
  // w,x swap and x also appears in R: both link 2-persistent.
  LinearRule r = LR("p(W,X) :- p(X,W), rr(X).");
  auto c = Classification::Compute(r);
  ASSERT_TRUE(c.ok());
  const VarClass& w = ClassOf(*c, r, "W");
  EXPECT_TRUE(w.IsLinkPersistent());
  EXPECT_EQ(w.period, 2);
}

TEST(ClassifyTest, HFunction) {
  LinearRule r = LR("p(X,Y) :- p(Y,Z), e(Z,X).");
  auto c = Classification::Compute(r);
  ASSERT_TRUE(c.ok());
  // h(X) = Y, h(Y) = Z (nondistinguished).
  const Rule& rule = r.rule();
  VarId x = -1, y = -1, z = -1;
  for (VarId v = 0; v < rule.var_count(); ++v) {
    if (rule.var_name(v) == "X") x = v;
    if (rule.var_name(v) == "Y") y = v;
    if (rule.var_name(v) == "Z") z = v;
  }
  EXPECT_EQ(c->H(x), y);
  EXPECT_EQ(c->H(y), z);
  EXPECT_FALSE(c->H(z).has_value());
}

TEST(ClassifyTest, PersistentCycleThroughNondistinguishedBreaks) {
  // h(X) = Z nondistinguished: X general even though Z maps back.
  LinearRule r = LR("p(X,Y) :- p(Z,X), e(Z,Y).");
  auto c = Classification::Compute(r);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(ClassOf(*c, r, "X").IsGeneral());
  EXPECT_TRUE(ClassOf(*c, r, "Y").IsGeneral());
}

TEST(ClassifyTest, RayDepthTwo) {
  // Dynamic arcs: V->V (link), V->X1 and X1... build: h(X1)=V, h(X2)=X1.
  LinearRule r = LR("p(V,X1,X2) :- p(V,V,X1), q(V).");
  auto c = Classification::Compute(r);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(ClassOf(*c, r, "V").IsLink1Persistent());
  EXPECT_EQ(ClassOf(*c, r, "X1").ray_depth, 1);
  EXPECT_EQ(ClassOf(*c, r, "X2").ray_depth, 2);
}

TEST(ClassifyTest, Example51Figure1) {
  // Example 5.1 / Figure 1: a rule built so that its α-graph has the
  // classes the example names — z free 1-persistent; w, y link
  // 1-persistent; u, v free 2-persistent; x general.
  LinearRule r = LR("p(U,V,W,X,Y,Z) :- p(V,U,W,Y,Y,Z), q(W,X), rr(X,Y).");
  auto c = Classification::Compute(r);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(ClassOf(*c, r, "Z").IsFree1Persistent());
  EXPECT_TRUE(ClassOf(*c, r, "W").IsLink1Persistent());
  EXPECT_TRUE(ClassOf(*c, r, "Y").IsLink1Persistent());
  const VarClass& u = ClassOf(*c, r, "U");
  EXPECT_TRUE(u.IsFreePersistent());
  EXPECT_EQ(u.period, 2);
  const VarClass& v = ClassOf(*c, r, "V");
  EXPECT_TRUE(v.IsFreePersistent());
  EXPECT_EQ(v.period, 2);
  EXPECT_TRUE(ClassOf(*c, r, "X").IsGeneral());
}

TEST(ClassifyTest, ISetUnionOfLinkPersistentAndRays) {
  LinearRule r = LR("p(V,X1,X2) :- p(V,V,X1), q(V).");
  auto c = Classification::Compute(r);
  ASSERT_TRUE(c.ok());
  // I = {V, X1, X2}: link-1p plus both rays.
  EXPECT_EQ(c->i_set().size(), 3u);
}

TEST(ClassifyTest, DescribeStrings) {
  LinearRule r = LR("p(X,Y) :- p(X,Z), e(Z,Y).");
  auto c = Classification::Compute(r);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(ClassOf(*c, r, "X").Describe(), "free 1-persistent");
  EXPECT_EQ(ClassOf(*c, r, "Y").Describe(), "general");
  EXPECT_EQ(ClassOf(*c, r, "Z").Describe(), "nondistinguished");
}

}  // namespace
}  // namespace linrec
