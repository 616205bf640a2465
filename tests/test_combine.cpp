// Tests for the Combine phase: greedy selection, strategy equivalence,
// profile classes.
#include <gtest/gtest.h>

#include <vector>

#include "core/combine.h"
#include "core/decompose.h"
#include "core/schedule.h"
#include "dag/algorithms.h"
#include "stats/rng.h"
#include "theory/blocks.h"
#include "workloads/random.h"
#include "workloads/scientific.h"

namespace {

using namespace prio::core;
using namespace prio::dag;
using prio::stats::Rng;

struct Pipeline {
  Decomposition decomposition;
  std::vector<ComponentSchedule> schedules;
};

Pipeline decomposeAndSchedule(const Digraph& g) {
  Pipeline p;
  p.decomposition = decompose(transitiveReduction(g));
  p.schedules = scheduleComponents(p.decomposition);
  return p;
}

TEST(Combine, PopsEveryComponentExactlyOnce) {
  Rng rng(3);
  const auto g = prio::workloads::randomComposable(30, rng);
  const auto p = decomposeAndSchedule(g);
  const auto r = combineGreedy(p.decomposition, p.schedules);
  ASSERT_EQ(r.pop_order.size(), p.decomposition.components.size());
  std::vector<char> seen(r.pop_order.size(), 0);
  for (std::size_t i : r.pop_order) {
    ASSERT_LT(i, seen.size());
    EXPECT_FALSE(seen[i]);
    seen[i] = 1;
  }
}

TEST(Combine, PopOrderRespectsSuperdag) {
  Rng rng(4);
  for (int trial = 0; trial < 8; ++trial) {
    const auto g = prio::workloads::randomComposable(40, rng);
    const auto p = decomposeAndSchedule(g);
    const auto r = combineGreedy(p.decomposition, p.schedules);
    std::vector<NodeId> as_nodes(r.pop_order.begin(), r.pop_order.end());
    EXPECT_TRUE(isTopologicalOrder(p.decomposition.superdag, as_nodes));
  }
}

TEST(Combine, StrategiesProduceIdenticalPopOrders) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = prio::workloads::randomComposable(35, rng);
    const auto p = decomposeAndSchedule(g);
    const auto btree = combineGreedy(p.decomposition, p.schedules,
                                     CombineStrategy::kBTreeClasses);
    const auto naive = combineGreedy(p.decomposition, p.schedules,
                                     CombineStrategy::kNaiveQuadratic);
    EXPECT_EQ(btree.pop_order, naive.pop_order) << "trial " << trial;
    EXPECT_EQ(btree.all_pops_perfect, naive.all_pops_perfect);
  }
}

TEST(Combine, StrategiesAgreeOnScientificDag) {
  const auto g = prio::workloads::makeAirsn({20, 4});
  const auto p = decomposeAndSchedule(g);
  const auto btree = combineGreedy(p.decomposition, p.schedules,
                                   CombineStrategy::kBTreeClasses);
  const auto naive = combineGreedy(p.decomposition, p.schedules,
                                   CombineStrategy::kNaiveQuadratic);
  EXPECT_EQ(btree.pop_order, naive.pop_order);
}

TEST(Combine, StrategiesAgreeOnFullScaleInspiralAndMontage) {
  // Full paper-size dags: Inspiral's 333 components include the giant
  // generic one; Montage has few but huge components.
  for (const auto& g :
       {prio::workloads::makeInspiral({}), prio::workloads::makeMontage({})}) {
    const auto p = decomposeAndSchedule(g);
    const auto btree = combineGreedy(p.decomposition, p.schedules,
                                     CombineStrategy::kBTreeClasses);
    const auto naive = combineGreedy(p.decomposition, p.schedules,
                                     CombineStrategy::kNaiveQuadratic);
    EXPECT_EQ(btree.pop_order, naive.pop_order);
  }
}

TEST(Combine, ProfileClassesGroupIdenticalProfiles) {
  // A chain decomposes into identical W(1,1) components: one class.
  Digraph g;
  NodeId prev = g.addNode("n0");
  for (int i = 1; i < 6; ++i) {
    const NodeId next = g.addNode(std::string("n").append(std::to_string(i)));
    g.addEdge(prev, next);
    prev = next;
  }
  const auto p = decomposeAndSchedule(g);
  const auto r = combineGreedy(p.decomposition, p.schedules);
  EXPECT_EQ(r.class_profiles.size(), 1u);
  for (std::size_t cls : r.profile_class) EXPECT_EQ(cls, 0u);
}

TEST(Combine, ExpansiveSourcePoppedBeforeReductiveWhenFree) {
  // Two independent blocks: a fan-out W(1,3) and a fan-in M(1,3). The
  // greedy combine must execute the expansive block first (its source
  // maximizes the minimum priority).
  Digraph g;
  const NodeId w = g.addNode("w");
  for (int i = 0; i < 3; ++i) {
    g.addEdge(w, g.addNode("wt" + std::to_string(i)));
  }
  const NodeId mt = g.addNode("mt");
  std::vector<NodeId> msrc;
  for (int i = 0; i < 3; ++i) {
    msrc.push_back(g.addNode("ms" + std::to_string(i)));
    g.addEdge(msrc.back(), mt);
  }
  const auto p = decomposeAndSchedule(g);
  ASSERT_EQ(p.decomposition.components.size(), 2u);
  const auto r = combineGreedy(p.decomposition, p.schedules);
  // Identify which component holds the fan-out source.
  const std::size_t w_comp = p.decomposition.owner[w];
  EXPECT_EQ(r.pop_order.front(), w_comp);
  EXPECT_TRUE(r.all_pops_perfect);
}

TEST(Combine, IncomparableReadyBlocksAreImperfectButDeterministic) {
  // N(4) and Clique(3) side by side: neither has ⊵-priority over the
  // other (r = 6/7 both ways), so whichever the greedy pops first loses
  // a little — all_pops_perfect must be false, the pop order must be
  // deterministic, and both strategies must still agree.
  Digraph g;
  // N(4): u0..u3 -> v0..v3 zigzag.
  std::vector<NodeId> u, v;
  for (int i = 0; i < 4; ++i) {
    u.push_back(g.addNode(std::string("u").append(std::to_string(i))));
  }
  for (int i = 0; i < 4; ++i) {
    v.push_back(g.addNode(std::string("v").append(std::to_string(i))));
  }
  for (int i = 0; i < 4; ++i) {
    g.addEdge(u[i], v[i]);
    if (i + 1 < 4) g.addEdge(u[i + 1], v[i]);
  }
  // Clique(3): three sources, one sink per pair.
  std::vector<NodeId> q;
  for (int i = 0; i < 3; ++i) {
    q.push_back(g.addNode(std::string("q").append(std::to_string(i))));
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 3; ++j) {
      std::string name = "t";
      name.append(std::to_string(i)).append(std::to_string(j));
      const NodeId t = g.addNode(std::move(name));
      g.addEdge(q[i], t);
      g.addEdge(q[j], t);
    }
  }
  const auto p = decomposeAndSchedule(g);
  ASSERT_EQ(p.decomposition.components.size(), 2u);
  const auto btree = combineGreedy(p.decomposition, p.schedules,
                                   CombineStrategy::kBTreeClasses);
  const auto naive = combineGreedy(p.decomposition, p.schedules,
                                   CombineStrategy::kNaiveQuadratic);
  EXPECT_FALSE(btree.all_pops_perfect);
  EXPECT_EQ(btree.pop_order, naive.pop_order);
  // Determinism across repeated runs.
  const auto again = combineGreedy(p.decomposition, p.schedules,
                                   CombineStrategy::kBTreeClasses);
  EXPECT_EQ(btree.pop_order, again.pop_order);
}

TEST(Combine, SingleComponentIsPerfect) {
  const auto g = prio::theory::makeW(3, 2);
  const auto p = decomposeAndSchedule(g);
  const auto r = combineGreedy(p.decomposition, p.schedules);
  EXPECT_EQ(r.pop_order, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(r.all_pops_perfect);
}

TEST(Combine, RejectsMismatchedInputs) {
  const auto g = prio::theory::makeW(2, 2);
  auto p = decomposeAndSchedule(g);
  p.schedules.clear();
  EXPECT_THROW((void)combineGreedy(p.decomposition, p.schedules),
               prio::util::Error);
}

}  // namespace
