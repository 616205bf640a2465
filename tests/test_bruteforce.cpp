// Tests for the brute-force IC-optimality ground truth.
#include <gtest/gtest.h>

#include <vector>

#include "dag/digraph.h"
#include "theory/bruteforce.h"
#include "theory/eligibility.h"
#include "util/check.h"

namespace {

using namespace prio::dag;
using namespace prio::theory;

TEST(CountIdeals, ChainHasLinearlyManyIdeals) {
  Digraph g;
  NodeId prev = g.addNode("n0");
  for (int i = 1; i < 6; ++i) {
    const NodeId next = g.addNode(std::string("n").append(std::to_string(i)));
    g.addEdge(prev, next);
    prev = next;
  }
  // Ideals of a 6-chain: prefixes only -> 7.
  EXPECT_EQ(countIdeals(g), 7u);
}

TEST(CountIdeals, AntichainHasExponentiallyManyIdeals) {
  Digraph g;
  for (int i = 0; i < 10; ++i) {
    g.addNode(std::string("n").append(std::to_string(i)));
  }
  EXPECT_EQ(countIdeals(g), 1024u);  // 2^10
}

TEST(CountIdeals, GuardThrowsOnBlowup) {
  Digraph g;
  for (int i = 0; i < 30; ++i) {
    g.addNode(std::string("n").append(std::to_string(i)));
  }
  EXPECT_THROW((void)countIdeals(g, /*max_states=*/1000),
               prio::util::Error);
}

TEST(MaxEligibilityProfile, Antichain) {
  Digraph g;
  for (int i = 0; i < 4; ++i) {
    g.addNode(std::string("n").append(std::to_string(i)));
  }
  const auto best = maxEligibilityProfile(g);
  EXPECT_EQ(best, (std::vector<std::size_t>{4, 3, 2, 1, 0}));
}

TEST(MaxEligibilityProfile, ForkOut) {
  Digraph g;
  const NodeId a = g.addNode("a");
  for (int i = 0; i < 3; ++i) {
    g.addEdge(a, g.addNode(std::string("t").append(std::to_string(i))));
  }
  const auto best = maxEligibilityProfile(g);
  EXPECT_EQ(best, (std::vector<std::size_t>{1, 3, 2, 1, 0}));
}

TEST(MaxEligibilityProfile, JoinIn) {
  Digraph g;
  const NodeId t = g.addNode("t");
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c");
  g.addEdge(a, t);
  g.addEdge(b, t);
  g.addEdge(c, t);
  const auto best = maxEligibilityProfile(g);
  // 3 sources; executing them leaves 2, 1, then the sink becomes eligible.
  EXPECT_EQ(best, (std::vector<std::size_t>{3, 2, 1, 1, 0}));
}

TEST(MaxEligibilityProfile, Fig3Example) {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c"),
               d = g.addNode("d"), e = g.addNode("e");
  g.addEdge(a, b);
  g.addEdge(c, d);
  g.addEdge(c, e);
  const auto best = maxEligibilityProfile(g);
  EXPECT_EQ(best, (std::vector<std::size_t>{2, 3, 3, 2, 1, 0}));
}

TEST(IsICOptimal, AcceptsAndRejects) {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c"),
               d = g.addNode("d"), e = g.addNode("e");
  g.addEdge(a, b);
  g.addEdge(c, d);
  g.addEdge(c, e);
  EXPECT_TRUE(isICOptimal(g, std::vector<NodeId>{c, a, b, d, e}));
  EXPECT_TRUE(isICOptimal(g, std::vector<NodeId>{c, a, d, b, e}));
  // Executing a first loses one eligible job at step 1.
  EXPECT_FALSE(isICOptimal(g, std::vector<NodeId>{a, c, b, d, e}));
  // Incomplete orders are never IC-optimal schedules.
  EXPECT_FALSE(isICOptimal(g, std::vector<NodeId>{c, a}));
}

TEST(MaxEligibilityProfile, RequiresAtMost64Nodes) {
  Digraph g;
  for (int i = 0; i < 65; ++i) {
    g.addNode(std::string("n").append(std::to_string(i)));
  }
  EXPECT_THROW((void)maxEligibilityProfile(g), prio::util::Error);
}

TEST(FindICOptimalSchedule, FindsSchedulesForOptimizableDags) {
  // Fig. 3's dag and a chain both admit IC-optimal schedules.
  {
    Digraph g;
    const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c"),
                 d = g.addNode("d"), e = g.addNode("e");
    g.addEdge(a, b);
    g.addEdge(c, d);
    g.addEdge(c, e);
    const auto order = findICOptimalSchedule(g);
    ASSERT_TRUE(order.has_value());
    EXPECT_TRUE(isICOptimal(g, *order));
    EXPECT_EQ(order->front(), c);  // only c-first attains E(1) = 3
  }
  {
    Digraph g;
    NodeId prev = g.addNode("n0");
    for (int i = 1; i < 8; ++i) {
      const NodeId next = g.addNode(std::string("n").append(std::to_string(i)));
      g.addEdge(prev, next);
      prev = next;
    }
    const auto order = findICOptimalSchedule(g);
    ASSERT_TRUE(order.has_value());
    EXPECT_TRUE(isICOptimal(g, *order));
  }
}

TEST(FindICOptimalSchedule, DetectsDagsWithNoICOptimalSchedule) {
  // The paper (§2.1): "there do exist even some simple dags whose
  // structures preclude any IC-optimal schedule." A 6-job witness:
  // a 2-chain (a -> b) next to a complete bipartite coupling
  // {c, d} -> {e, f}. E_max(1) = 3 requires executing a first, but
  // E_max(2) = 3 requires the executed pair to be {c, d} — incompatible.
  Digraph g;
  const NodeId a = g.addNode("a");
  g.addEdge(a, g.addNode("b"));
  const NodeId c = g.addNode("c"), d = g.addNode("d");
  const NodeId e = g.addNode("e"), f = g.addNode("f");
  g.addEdge(c, e);
  g.addEdge(c, f);
  g.addEdge(d, e);
  g.addEdge(d, f);
  EXPECT_EQ(findICOptimalSchedule(g), std::nullopt);
  // Sanity: the brute-force maxima really are individually achievable.
  const auto best = maxEligibilityProfile(g);
  EXPECT_EQ(best[1], 3u);
  EXPECT_EQ(best[2], 3u);
}

TEST(IcQuality, OneForOptimalLessForSuboptimal) {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c"),
               d = g.addNode("d"), e = g.addNode("e");
  g.addEdge(a, b);
  g.addEdge(c, d);
  g.addEdge(c, e);
  // Optimal order: quality exactly 1.
  EXPECT_DOUBLE_EQ(icQuality(g, std::vector<NodeId>{c, a, b, d, e}), 1.0);
  // Suboptimal order: at t=1 it has E=2 of a possible 3.
  EXPECT_DOUBLE_EQ(icQuality(g, std::vector<NodeId>{a, c, b, d, e}),
                   2.0 / 3.0);
}

TEST(IcQuality, ValidatesInputs) {
  Digraph g;
  g.addNode("a");
  g.addNode("b");
  EXPECT_THROW((void)icQuality(g, std::vector<NodeId>{0}),
               prio::util::Error);
}

TEST(FindICOptimalSchedule, AgreesWithIsICOptimal) {
  // Whenever the finder returns a schedule, the checker accepts it; on
  // the Fig. 2 families this exercises both directions.
  for (int d = 2; d <= 5; ++d) {
    Digraph g;
    const NodeId hub = g.addNode("hub");
    for (int i = 0; i < d; ++i) {
      g.addEdge(hub, g.addNode(std::string("t").append(std::to_string(i))));
    }
    const auto order = findICOptimalSchedule(g);
    ASSERT_TRUE(order.has_value());
    EXPECT_TRUE(isICOptimal(g, *order));
  }
}

TEST(MaxEligibilityProfile, DominatesEveryValidSchedule) {
  // Property: any topological order's profile is pointwise <= the maximum.
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c"),
               d = g.addNode("d"), e = g.addNode("e"), f = g.addNode("f");
  g.addEdge(a, c);
  g.addEdge(b, c);
  g.addEdge(c, d);
  g.addEdge(c, e);
  g.addEdge(d, f);
  g.addEdge(e, f);
  const auto best = maxEligibilityProfile(g);
  const std::vector<std::vector<NodeId>> orders{
      {a, b, c, d, e, f}, {b, a, c, e, d, f}, {a, b, c, e, d, f}};
  for (const auto& order : orders) {
    const auto p = eligibilityProfile(g, order);
    ASSERT_EQ(p.size(), best.size());
    for (std::size_t t = 0; t < p.size(); ++t) EXPECT_LE(p[t], best[t]);
  }
}

}  // namespace
