// Ablation for the step-3 fallback schedule (an extension beyond the
// paper): on bipartite components with no known IC-optimal schedule, the
// paper orders sources by out-degree; we additionally implement a
// marginal-gain greedy. This bench compares the two on perturbed
// bipartite blocks by (a) eligibility area (sum of E(t) over all steps —
// higher is better) and (b) scheduling time.
#include <cstdio>
#include <vector>

#include "stats/rng.h"
#include "theory/blocks.h"
#include "theory/eligibility.h"
#include "util/timing.h"

namespace {

using prio::dag::Digraph;
using prio::dag::NodeId;

// A random connected bipartite dag: `sources` sources, `sinks` sinks,
// each sink with 1-4 random parents.
Digraph randomBipartite(std::size_t sources, std::size_t sinks,
                        prio::stats::Rng& rng) {
  Digraph g;
  for (std::size_t i = 0; i < sources; ++i) {
    g.addNode(std::string("s").append(std::to_string(i)));
  }
  for (std::size_t j = 0; j < sinks; ++j) {
    const NodeId t = g.addNode(std::string("t").append(std::to_string(j)));
    const std::size_t parents = 1 + rng.below(4);
    for (std::size_t k = 0; k < parents; ++k) {
      g.addEdge(static_cast<NodeId>(rng.below(sources)), t);
    }
  }
  return g;
}

long long area(const Digraph& g, const std::vector<NodeId>& order) {
  const auto profile = prio::theory::eligibilityProfile(g, order);
  long long sum = 0;
  for (const auto e : profile) sum += static_cast<long long>(e);
  return sum;
}

}  // namespace

int main() {
  prio::stats::Rng rng(2006);
  std::printf("=== step-3 fallback ablation: outdegree order (paper) vs "
              "marginal-gain greedy (extension) ===\n");
  std::printf("%10s %8s | %12s %12s %8s | %10s %10s\n", "sources", "sinks",
              "AUC outdeg", "AUC greedy", "greedy+", "t_outdeg",
              "t_greedy");

  long long wins = 0, ties = 0, losses = 0;
  for (const auto& [sources, sinks] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {20, 40}, {50, 100}, {100, 300}, {200, 800}}) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto g = randomBipartite(sources, sinks, rng);

      prio::util::Stopwatch w1;
      const auto outdeg = prio::theory::outdegreeSchedule(g);
      const double t1 = w1.elapsedSeconds();

      prio::util::Stopwatch w2;
      const auto greedy = prio::theory::greedyBipartiteSchedule(g);
      const double t2 = w2.elapsedSeconds();

      const long long a1 = area(g, outdeg);
      const long long a2 = area(g, greedy);
      if (a2 > a1) {
        ++wins;
      } else if (a2 == a1) {
        ++ties;
      } else {
        ++losses;
      }
      std::printf("%10zu %8zu | %12lld %12lld %7.2f%% | %9.5fs %9.5fs\n",
                  sources, sinks, a1, a2,
                  100.0 * (static_cast<double>(a2 - a1) /
                           static_cast<double>(a1)),
                  t1, t2);
    }
  }
  std::printf("greedy eligibility-area record vs outdegree: %lld wins, "
              "%lld ties, %lld losses\n",
              wins, ties, losses);
  return 0;
}
