// How often does the theoretical algorithm succeed (§3: it "may fail"
// even when an IC-optimal schedule exists)? This census runs the
// heuristic over random dag families and reports, per family: how many
// instances were certified IC-optimal, how many provably admit an
// IC-optimal schedule at all (exact DP, small instances only), and the
// heuristic's worst measured IC quality.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/prio.h"
#include "stats/rng.h"
#include "theory/bruteforce.h"
#include "workloads/random.h"

namespace {

using prio::dag::Digraph;
using prio::dag::NodeId;

// Random out-tree: node i >= 1 gets a uniformly random parent among
// 0..i-1. (Every out-tree is a composition of fan-out blocks.)
Digraph randomOutTree(std::size_t n, prio::stats::Rng& rng) {
  Digraph g;
  for (std::size_t i = 0; i < n; ++i) {
    g.addNode(std::string("n").append(std::to_string(i)));
  }
  for (NodeId i = 1; i < n; ++i) {
    g.addEdge(static_cast<NodeId>(rng.below(i)), i);
  }
  return g;
}

struct Census {
  std::size_t total = 0;
  std::size_t certified = 0;
  std::size_t optimizable = 0;
  double worst_quality = 1.0;
};

template <class MakeDag>
Census run(std::size_t trials, MakeDag&& make) {
  Census c;
  for (std::size_t t = 0; t < trials; ++t) {
    const Digraph g = make(t);
    ++c.total;
    const auto r = prio::core::prioritize(prio::core::PrioRequest(g));
    if (r.certified_ic_optimal) ++c.certified;
    if (g.numNodes() <= 18) {
      if (prio::theory::findICOptimalSchedule(g)) ++c.optimizable;
      c.worst_quality = std::min(
          c.worst_quality, prio::theory::icQuality(g, r.schedule));
    }
  }
  return c;
}

void report(const char* name, const Census& c, bool exact) {
  std::printf("%-22s: %3zu/%3zu certified", name, c.certified, c.total);
  if (exact) {
    std::printf(" | %3zu/%3zu admit an IC-optimal schedule | worst "
                "quality %.3f",
                c.optimizable, c.total, c.worst_quality);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  prio::stats::Rng rng(2006);
  std::printf("=== certification census: when does the theoretical "
              "algorithm succeed? ===\n");

  report("out-trees (n=12)",
         run(200, [&](std::size_t) { return randomOutTree(12, rng); }),
         true);
  report("out-trees (n=60)",
         run(100, [&](std::size_t) { return randomOutTree(60, rng); }),
         false);
  report("composable (steps=5)",
         run(200,
             [&](std::size_t) {
               return prio::workloads::randomComposable(5, rng);
             }),
         false);
  report("composable (steps=30)",
         run(100,
             [&](std::size_t) {
               return prio::workloads::randomComposable(30, rng);
             }),
         false);
  report("erdos (n=14, p=.15)",
         run(200,
             [&](std::size_t) {
               return prio::workloads::randomDag(14, 0.15, rng);
             }),
         true);
  report("layered (4x4, p=.3)",
         run(200,
             [&](std::size_t) {
               return prio::workloads::layeredRandom(4, 4, 0.3, rng);
             }),
         true);
  std::printf("\nthe certificate is sufficient, never necessary: gaps "
              "between the two columns are dags the theory declines but "
              "the heuristic still schedules well (see worst quality).\n");
  return 0;
}
