// Exhaustive verification over ALL dags on up to 6 nodes (every subset
// of the upward edge set i -> j, i < j): the heuristic always produces a
// valid schedule, its IC-optimality certificate is never wrong, and the
// exact finder's verdict is consistent with the brute-force profile.
// 2^10 five-node dags and 2^15 six-node dags — small enough to check
// every single one.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/prio.h"
#include "dag/algorithms.h"
#include "theory/bruteforce.h"
#include "theory/eligibility.h"

namespace {

using namespace prio;
using dag::Digraph;
using dag::NodeId;

Digraph dagFromMask(std::size_t n, std::uint32_t mask) {
  Digraph g;
  for (std::size_t i = 0; i < n; ++i) {
    g.addNode(std::string("n").append(std::to_string(i)));
  }
  std::size_t bit = 0;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j, ++bit) {
      if ((mask >> bit) & 1u) g.addEdge(i, j);
    }
  }
  return g;
}

struct ExhaustiveCounts {
  std::size_t total = 0;
  std::size_t certified = 0;
  std::size_t no_ic_optimal = 0;
  double worst_quality = 1.0;  ///< heuristic's worst icQuality seen
  double quality_sum = 0.0;
};

ExhaustiveCounts sweep(std::size_t n) {
  const std::size_t edge_slots = n * (n - 1) / 2;
  ExhaustiveCounts counts;
  for (std::uint32_t mask = 0; mask < (1u << edge_slots); ++mask) {
    const Digraph g = dagFromMask(n, mask);
    ++counts.total;

    const auto r = core::prioritize(core::PrioRequest(g));
    EXPECT_TRUE(dag::isTopologicalOrder(g, r.schedule)) << "mask " << mask;
    const double quality = theory::icQuality(g, r.schedule);
    counts.worst_quality = std::min(counts.worst_quality, quality);
    counts.quality_sum += quality;

    const auto exact = theory::findICOptimalSchedule(g);
    if (!exact.has_value()) {
      ++counts.no_ic_optimal;
      EXPECT_FALSE(r.certified_ic_optimal)
          << "certified a dag with no IC-optimal schedule, mask " << mask;
    } else {
      // The exact schedule must attain the brute-force maximum.
      EXPECT_EQ(theory::eligibilityProfile(g, *exact),
                theory::maxEligibilityProfile(g))
          << "mask " << mask;
    }
    if (r.certified_ic_optimal) {
      ++counts.certified;
      EXPECT_TRUE(theory::isICOptimal(g, r.schedule))
          << "false certificate, mask " << mask;
    }
  }
  return counts;
}

TEST(ExhaustiveSmallDags, AllFourNodeDags) {
  const auto c = sweep(4);
  EXPECT_EQ(c.total, 64u);
  // Every dag on four nodes admits an IC-optimal schedule, and the
  // heuristic certifies 56 of the 64.
  EXPECT_EQ(c.no_ic_optimal, 0u);
  EXPECT_EQ(c.certified, 56u);
}

TEST(ExhaustiveSmallDags, AllFiveNodeDags) {
  const auto c = sweep(5);
  EXPECT_EQ(c.total, 1024u);
  // Still no dag without an IC-optimal schedule at five nodes.
  EXPECT_EQ(c.no_ic_optimal, 0u);
  EXPECT_EQ(c.certified, 688u);
}

TEST(ExhaustiveSmallDags, AllSixNodeDags) {
  const auto c = sweep(6);
  EXPECT_EQ(c.total, 32768u);
  // Six nodes is the smallest size (over this labeled upward-edge
  // class) where the theory's negative result bites: exactly 15 labeled
  // dags admit no IC-optimal schedule (the chain + K(2,2) witness among
  // them). The heuristic certifies 14,399 of the rest — and never one
  // of the 15.
  EXPECT_EQ(c.no_ic_optimal, 15u);
  EXPECT_EQ(c.certified, 14399u);
  // Quantitative quality of the heuristic over ALL six-node dags: even
  // where it is not certified, the schedule never drops below HALF the
  // per-step optimum (worst case exactly 1/2), and the mean IC quality
  // across all 32,768 dags is ~0.988.
  EXPECT_DOUBLE_EQ(c.worst_quality, 0.5);
  EXPECT_GE(c.quality_sum / static_cast<double>(c.total), 0.988);
}

}  // namespace
