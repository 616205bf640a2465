// Tests for shortcut-arc removal (§3.1 step 1).
#include <gtest/gtest.h>

#include <vector>

#include "dag/algorithms.h"
#include "dag/digraph.h"
#include "stats/rng.h"
#include "util/check.h"
#include "workloads/random.h"

namespace {

using namespace prio::dag;
using prio::stats::Rng;

TEST(TransitiveReduction, RemovesTriangleShortcut) {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c");
  g.addEdge(a, b);
  g.addEdge(b, c);
  g.addEdge(a, c);  // shortcut
  for (auto method : {ReductionMethod::kBitset, ReductionMethod::kEdgeDfs}) {
    const Digraph r = transitiveReduction(g, method);
    EXPECT_EQ(r.numEdges(), 2u);
    EXPECT_TRUE(r.hasEdge(a, b));
    EXPECT_TRUE(r.hasEdge(b, c));
    EXPECT_FALSE(r.hasEdge(a, c));
  }
}

TEST(TransitiveReduction, KeepsDiamond) {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c"),
               d = g.addNode("d");
  g.addEdge(a, b);
  g.addEdge(a, c);
  g.addEdge(b, d);
  g.addEdge(c, d);
  const Digraph r = transitiveReduction(g);
  EXPECT_EQ(r.numEdges(), 4u);  // no shortcuts in a diamond
}

TEST(TransitiveReduction, DiamondWithChord) {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c"),
               d = g.addNode("d");
  g.addEdge(a, b);
  g.addEdge(a, c);
  g.addEdge(b, d);
  g.addEdge(c, d);
  g.addEdge(a, d);  // shortcut across the diamond
  const Digraph r = transitiveReduction(g);
  EXPECT_EQ(r.numEdges(), 4u);
  EXPECT_FALSE(r.hasEdge(a, d));
}

TEST(TransitiveReduction, LongChainShortcuts) {
  // Chain 0->1->...->5 plus every skip arc: all skips must vanish.
  Digraph g;
  for (int i = 0; i < 6; ++i) {
    g.addNode(std::string("n").append(std::to_string(i)));
  }
  for (NodeId i = 0; i < 6; ++i) {
    for (NodeId j = i + 1; j < 6; ++j) g.addEdge(i, j);
  }
  const Digraph r = transitiveReduction(g);
  EXPECT_EQ(r.numEdges(), 5u);
  for (NodeId i = 0; i + 1 < 6; ++i) EXPECT_TRUE(r.hasEdge(i, i + 1));
}

TEST(TransitiveReduction, RejectsCycles) {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b");
  g.addEdge(a, b);
  g.addEdge(b, a);
  EXPECT_THROW((void)transitiveReduction(g), prio::util::Error);
}

TEST(TransitiveReduction, PreservesSourcesAndSinks) {
  Rng rng(5);
  const auto g = prio::workloads::randomDag(40, 0.25, rng);
  const Digraph r = transitiveReduction(g);
  EXPECT_EQ(r.sources(), g.sources());
  EXPECT_EQ(r.sinks(), g.sinks());
}

TEST(TransitiveReduction, Idempotent) {
  Rng rng(6);
  const auto g = prio::workloads::randomDag(30, 0.3, rng);
  const Digraph once = transitiveReduction(g);
  const Digraph twice = transitiveReduction(once);
  EXPECT_EQ(once.numEdges(), twice.numEdges());
}

// Property sweep: both methods agree, reachability is preserved, and no
// remaining arc is a shortcut.
class ReductionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReductionProperty, MethodsAgreeAndReachabilityPreserved) {
  Rng rng(GetParam());
  const auto g = prio::workloads::randomDag(25, 0.25, rng);
  const Digraph bitset = transitiveReduction(g, ReductionMethod::kBitset);
  const Digraph dfs = transitiveReduction(g, ReductionMethod::kEdgeDfs);

  // Same edge set (the transitive reduction of a dag is unique).
  ASSERT_EQ(bitset.numEdges(), dfs.numEdges());
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : bitset.children(u)) EXPECT_TRUE(dfs.hasEdge(u, v));
  }

  // Reachability unchanged.
  const auto before = descendantMatrix(g);
  const auto after = descendantMatrix(bitset);
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    EXPECT_EQ(before.rowPopcount(u), after.rowPopcount(u));
  }

  // No surviving arc is a shortcut: removing it must break reachability.
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : bitset.children(u)) {
      bool via_other_child = false;
      for (NodeId w : bitset.children(u)) {
        if (w != v && after.test(w, v)) via_other_child = true;
      }
      EXPECT_FALSE(via_other_child)
          << "arc " << g.name(u) << "->" << g.name(v) << " is a shortcut";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
