// Tests for shortcut-arc removal (§3.1 step 1), with a per-arc DFS as the
// independent oracle: arc u -> v survives iff v is unreachable from u's
// other children.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dag/algorithms.h"
#include "dag/digraph.h"
#include "stats/rng.h"
#include "util/check.h"
#include "workloads/pegasus.h"
#include "workloads/random.h"
#include "workloads/scientific.h"

namespace {

using namespace prio::dag;
using prio::stats::Rng;

// True iff `target` is reachable from any node of `starts` (paths of
// length >= 0).
bool reachableFromAny(const Digraph& g, const std::vector<NodeId>& starts,
                      NodeId target, std::vector<char>& visited,
                      std::vector<NodeId>& stack) {
  stack.assign(starts.begin(), starts.end());
  std::fill(visited.begin(), visited.end(), 0);
  for (NodeId s : starts) visited[s] = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    if (u == target) return true;
    for (NodeId w : g.children(u)) {
      if (!visited[w]) {
        visited[w] = 1;
        stack.push_back(w);
      }
    }
  }
  return false;
}

// The oracle: one DFS per arc, O(E * (V + E)) time, O(V) memory.
Digraph dfsReduction(const Digraph& g) {
  Digraph out;
  out.reserveNodes(g.numNodes());
  for (NodeId u = 0; u < g.numNodes(); ++u) out.addNode(g.name(u));
  std::vector<char> visited(g.numNodes(), 0);
  std::vector<NodeId> stack;
  std::vector<NodeId> other_children;
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : g.children(u)) {
      other_children.clear();
      for (NodeId w : g.children(u)) {
        if (w != v) other_children.push_back(w);
      }
      if (!reachableFromAny(g, other_children, v, visited, stack)) {
        out.addEdge(u, v);
      }
    }
  }
  return out;
}

// Edge-for-edge equality with the oracle (same nodes, names and arcs).
void expectMatchesOracle(const Digraph& g, const std::string& what) {
  SCOPED_TRACE(what);
  const Digraph fast = transitiveReduction(g);
  const Digraph oracle = dfsReduction(g);
  ASSERT_EQ(fast.numNodes(), oracle.numNodes());
  ASSERT_EQ(fast.numEdges(), oracle.numEdges());
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    EXPECT_EQ(fast.name(u), oracle.name(u));
    std::vector<NodeId> a(fast.children(u).begin(), fast.children(u).end());
    std::vector<NodeId> b(oracle.children(u).begin(),
                          oracle.children(u).end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "children of " << g.name(u);
  }
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

// A copy of g with node ids shuffled and arcs inserted in random order,
// so arcs no longer ascend in id, the reduction runs on a non-identity
// topological order, and children are not listed in topological order.
Digraph shuffledIds(const Digraph& g, Rng& rng) {
  std::vector<NodeId> perm(g.numNodes());
  std::iota(perm.begin(), perm.end(), NodeId{0});
  shuffle(perm, rng);
  std::vector<NodeId> inverse(perm.size());
  for (NodeId i = 0; i < perm.size(); ++i) inverse[perm[i]] = i;
  std::vector<std::pair<NodeId, NodeId>> arcs;
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    for (NodeId v : g.children(u)) arcs.emplace_back(inverse[u], inverse[v]);
  }
  shuffle(arcs, rng);
  Digraph out;
  for (NodeId i = 0; i < perm.size(); ++i) out.addNode(g.name(perm[i]));
  for (const auto& [u, v] : arcs) out.addEdge(u, v);
  return out;
}

TEST(TransitiveReduction, RemovesTriangleShortcut) {
  Digraph g;
  const NodeId a = g.addNode("a"), b = g.addNode("b"), c = g.addNode("c");
  g.addEdge(a, b);
  g.addEdge(b, c);
  g.addEdge(a, c);  // shortcut
  for (const Digraph& r : {transitiveReduction(g), dfsReduction(g)}) {
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

// Property sweep: the reduction agrees with the DFS oracle, reachability
// is preserved, and no remaining arc is a shortcut.
class ReductionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReductionProperty, MethodsAgreeAndReachabilityPreserved) {
  Rng rng(GetParam());
  const auto g = prio::workloads::randomDag(25, 0.25, rng);
  const Digraph reduced = transitiveReduction(g);
  expectMatchesOracle(g, "randomDag(25, 0.25)");

  const auto reachSet = [](const Digraph& h, NodeId u) {
    const auto d = descendants(h, u);
    return std::set<NodeId>(d.begin(), d.end());
  };
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    // Reachability unchanged.
    EXPECT_EQ(reachSet(g, u), reachSet(reduced, u));
    // No surviving arc is a shortcut: removing it must break reachability.
    for (NodeId v : reduced.children(u)) {
      bool via_other_child = false;
      for (NodeId w : reduced.children(u)) {
        if (w != v && reachSet(reduced, w).count(v)) via_other_child = true;
      }
      EXPECT_FALSE(via_other_child)
          << "arc " << g.name(u) << "->" << g.name(v) << " is a shortcut";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// Differential population: the join-column reduction equals the oracle
// edge for edge over every generator family, sparse to dense, with ids in
// generator order and shuffled.
TEST(ReductionOracle, RandomDagDensities) {
  struct Setting {
    std::size_t n;
    double p;
  };
  Rng rng(101);
  for (const Setting s : {Setting{1500, 0.002}, Setting{500, 0.01},
                          Setting{200, 0.05}, Setting{120, 0.2}}) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto g = prio::workloads::randomDag(s.n, s.p, rng);
      const std::string what = std::string("randomDag(")
                                   .append(std::to_string(s.n))
                                   .append(", ")
                                   .append(std::to_string(s.p))
                                   .append(")");
      expectMatchesOracle(g, what);
      expectMatchesOracle(shuffledIds(g, rng), what + " shuffled");
    }
  }
}

TEST(ReductionOracle, LayeredIncludingDense) {
  struct Setting {
    std::size_t layers, width;
    double p;
  };
  Rng rng(102);
  for (const Setting s : {Setting{20, 10, 0.1}, Setting{10, 20, 0.5},
                          Setting{6, 30, 0.9}, Setting{40, 4, 1.0}}) {
    for (int trial = 0; trial < 2; ++trial) {
      const auto g = prio::workloads::layeredRandom(s.layers, s.width, s.p,
                                                    rng);
      expectMatchesOracle(g, "layeredRandom");
      expectMatchesOracle(shuffledIds(g, rng), "layeredRandom shuffled");
    }
  }
}

TEST(ReductionOracle, ComposableAndPegasus) {
  Rng rng(103);
  for (int trial = 0; trial < 10; ++trial) {
    expectMatchesOracle(
        prio::workloads::randomComposable(5 + 10 * trial, rng),
        "randomComposable");
  }
  expectMatchesOracle(prio::workloads::makeCybershake(), "cybershake");
  expectMatchesOracle(prio::workloads::makeCybershake({3, 40}),
                      "cybershake(3, 40)");
  expectMatchesOracle(prio::workloads::makeEpigenomics(), "epigenomics");
  expectMatchesOracle(prio::workloads::makeEpigenomics({6, 5}),
                      "epigenomics(6, 5)");
}

TEST(ReductionOracle, SmallPaperDags) {
  Rng rng(104);
  const Digraph dags[] = {
      prio::workloads::makeAirsn({10, 4}),
      prio::workloads::makeInspiral({8, 4}),
      prio::workloads::makeMontage({4, 10, 5}),
      prio::workloads::makeSdss({20, 6, 3, 20}),
  };
  for (const Digraph& g : dags) {
    expectMatchesOracle(g, "paper dag");
    expectMatchesOracle(shuffledIds(g, rng), "paper dag shuffled");
  }
}

TEST(ReductionOracle, EdgeCases) {
  expectMatchesOracle(Digraph{}, "empty");

  Digraph one;
  one.addNode("solo");
  expectMatchesOracle(one, "one node");

  Digraph chain;
  for (int i = 0; i < 70; ++i) {
    chain.addNode(std::string("c").append(std::to_string(i)));
  }
  for (NodeId i = 0; i + 1 < 70; ++i) chain.addEdge(i, i + 1);
  expectMatchesOracle(chain, "chain");

  // An out-tree has no join, so the reachability matrix has no column.
  Digraph tree;
  tree.addNode("root");
  for (NodeId i = 1; i < 100; ++i) {
    tree.addNode(std::string("t").append(std::to_string(i)));
    tree.addEdge((i - 1) / 3, i);
  }
  EXPECT_EQ(transitiveReduction(tree).numEdges(), tree.numEdges());
  expectMatchesOracle(tree, "out-tree");
}

}  // namespace
