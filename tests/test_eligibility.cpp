// Tests for eligibility profiles E_Σ(t).
#include <gtest/gtest.h>

#include <vector>

#include "dag/digraph.h"
#include "theory/eligibility.h"
#include "util/check.h"

namespace {

using namespace prio::dag;
using prio::theory::eligibilityProfile;
using prio::theory::eligibleCount;

TEST(EligibilityProfile, EmptyGraphEmptyOrder) {
  Digraph g;
  const auto p = eligibilityProfile(g, std::vector<NodeId>{});
  EXPECT_EQ(p, (std::vector<std::size_t>{0}));
}

TEST(EligibilityProfile, Chain) {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c");
  g.addEdge(a, b);
  g.addEdge(b, c);
  const auto p = eligibilityProfile(g, std::vector<NodeId>{a, b, c});
  // Exactly one job eligible at each step until the end.
  EXPECT_EQ(p, (std::vector<std::size_t>{1, 1, 1, 0}));
}

TEST(EligibilityProfile, ForkOut) {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c");
  g.addEdge(a, b);
  g.addEdge(a, c);
  const auto p = eligibilityProfile(g, std::vector<NodeId>{a, b, c});
  EXPECT_EQ(p, (std::vector<std::size_t>{1, 2, 1, 0}));
}

TEST(EligibilityProfile, JoinOrderMatters) {
  // Independent pair {a, b} joined into c: executing both parents first
  // yields the same totals in this tiny case, but the intermediate counts
  // depend on order in Fig. 3's five-job dag.
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c"),
               d = g.addNode("d"), e = g.addNode("e");
  g.addEdge(a, b);
  g.addEdge(c, d);
  g.addEdge(c, e);
  // PRIO order c,a,b,d,e vs FIFO-ish order a,c,b,d,e.
  const auto prio_p =
      eligibilityProfile(g, std::vector<NodeId>{c, a, b, d, e});
  const auto fifo_p =
      eligibilityProfile(g, std::vector<NodeId>{a, c, b, d, e});
  EXPECT_EQ(prio_p, (std::vector<std::size_t>{2, 3, 3, 2, 1, 0}));
  EXPECT_EQ(fifo_p, (std::vector<std::size_t>{2, 2, 3, 2, 1, 0}));
}

TEST(EligibilityProfile, PrefixOrderSupported) {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b");
  g.addEdge(a, b);
  const auto p = eligibilityProfile(g, std::vector<NodeId>{a});
  EXPECT_EQ(p, (std::vector<std::size_t>{1, 1}));
}

TEST(EligibilityProfile, RejectsPrecedenceViolation) {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b");
  g.addEdge(a, b);
  EXPECT_THROW((void)eligibilityProfile(g, std::vector<NodeId>{b, a}),
               prio::util::Error);
}

TEST(EligibilityProfile, RejectsRepeatsAndUnknownJobs) {
  Digraph g;
  const NodeId a = g.addNode("a");
  g.addNode("b");
  EXPECT_THROW((void)eligibilityProfile(g, std::vector<NodeId>{a, a}),
               prio::util::Error);
  EXPECT_THROW((void)eligibilityProfile(g, std::vector<NodeId>{7}),
               prio::util::Error);
  EXPECT_THROW(
      (void)eligibilityProfile(g, std::vector<NodeId>{0, 1, 0}),
      prio::util::Error);
}

TEST(EligibleCount, MatchesManualEnumeration) {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c"),
               d = g.addNode("d");
  g.addEdge(a, c);
  g.addEdge(b, c);
  g.addEdge(c, d);
  EXPECT_EQ(eligibleCount(g, std::vector<NodeId>{}), 2u);        // a, b
  EXPECT_EQ(eligibleCount(g, std::vector<NodeId>{a}), 1u);       // b
  EXPECT_EQ(eligibleCount(g, std::vector<NodeId>{a, b}), 1u);    // c
  EXPECT_EQ(eligibleCount(g, std::vector<NodeId>{a, b, c}), 1u); // d
  EXPECT_EQ(eligibleCount(g, std::vector<NodeId>{a, b, c, d}), 0u);
}

TEST(EligibilityProfile, TelescopingIdentity) {
  // Executing a job removes it from the eligible set and adds exactly
  // the children whose last missing parent it was:
  //   E(t+1) = E(t) - 1 + (#children completed by step t's job).
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c"),
               d = g.addNode("d"), e = g.addNode("e"), f = g.addNode("f");
  g.addEdge(a, c);
  g.addEdge(b, c);
  g.addEdge(b, d);
  g.addEdge(c, e);
  g.addEdge(c, f);
  g.addEdge(d, f);
  const std::vector<NodeId> order{b, a, d, c, e, f};
  const auto p = eligibilityProfile(g, order);

  std::vector<std::size_t> done_parents(g.numNodes(), 0);
  for (std::size_t t = 0; t < order.size(); ++t) {
    std::size_t unlocked = 0;
    for (const NodeId child : g.children(order[t])) {
      if (++done_parents[child] == g.inDegree(child)) ++unlocked;
    }
    EXPECT_EQ(p[t + 1], p[t] - 1 + unlocked) << "step " << t;
  }
}

TEST(EligibilityProfile, LastEntryZeroWhenComplete) {
  Digraph g;
  for (int i = 0; i < 4; ++i) {
    g.addNode(std::string("n").append(std::to_string(i)));
  }
  const std::vector<NodeId> order{0, 1, 2, 3};
  const auto p = eligibilityProfile(g, order);
  EXPECT_EQ(p.front(), 4u);  // all sources
  EXPECT_EQ(p.back(), 0u);
}

}  // namespace
