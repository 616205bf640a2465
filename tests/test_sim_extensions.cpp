// Tests for the extended grid model (throttling, failures, heterogeneity,
// rollover) — including exact degeneration to the paper's base model.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/prio.h"
#include "sim/extensions.h"
#include "stats/rng.h"
#include "util/check.h"
#include "workloads/scientific.h"

namespace {

using namespace prio::dag;
using namespace prio::sim;
using prio::stats::Rng;

Digraph chainDag(std::size_t n) {
  Digraph g;
  NodeId prev = g.addNode("n0");
  for (std::size_t i = 1; i < n; ++i) {
    const NodeId next = g.addNode(std::string("n").append(std::to_string(i)));
    g.addEdge(prev, next);
    prev = next;
  }
  return g;
}

TEST(Extensions, DefaultsDegenerateToBaseModelFifo) {
  const auto g = prio::workloads::makeAirsn({12, 4});
  ExtendedGridModel model;
  model.base.mean_batch_size = 8.0;
  Rng a(5), b(5);
  const auto base = simulateFifo(g, model.base, a);
  const auto ext = simulateExtended(g, Regimen::kFifo, {}, model, b);
  EXPECT_DOUBLE_EQ(base.makespan, ext.base.makespan);
  EXPECT_EQ(base.batches_counted, ext.base.batches_counted);
  EXPECT_EQ(base.batches_stalled, ext.base.batches_stalled);
  EXPECT_EQ(base.requests_counted, ext.base.requests_counted);
  EXPECT_EQ(ext.failures, 0u);
  EXPECT_EQ(ext.attempts, g.numNodes());
}

TEST(Extensions, DefaultsDegenerateToBaseModelOblivious) {
  const auto g = prio::workloads::makeAirsn({12, 4});
  const auto order = prio::core::prioritize(prio::core::PrioRequest(g)).schedule;
  ExtendedGridModel model;
  model.base.mean_batch_size = 8.0;
  Rng a(6), b(6);
  const auto base = simulateOblivious(g, order, model.base, a);
  const auto ext = simulateExtended(g, Regimen::kOblivious, order, model, b);
  EXPECT_DOUBLE_EQ(base.makespan, ext.base.makespan);
  EXPECT_EQ(base.requests_counted, ext.base.requests_counted);
}

TEST(Extensions, ThrottleWindowOneMakesObliviousFifo) {
  // With -maxjobs 1, only the oldest eligible job is ever visible, so
  // priorities cannot reorder anything: oblivious == FIFO.
  const auto g = prio::workloads::makeAirsn({12, 4});
  const auto order = prio::core::prioritize(prio::core::PrioRequest(g)).schedule;
  ExtendedGridModel model;
  model.base.mean_batch_size = 8.0;
  model.throttle_window = 1;
  Rng a(7), b(7);
  const auto obl = simulateExtended(g, Regimen::kOblivious, order, model, a);
  const auto fifo = simulateExtended(g, Regimen::kFifo, {}, model, b);
  EXPECT_DOUBLE_EQ(obl.base.makespan, fifo.base.makespan);
}

TEST(Extensions, WideThrottleEqualsUnthrottled) {
  const auto g = prio::workloads::makeAirsn({12, 4});
  const auto order = prio::core::prioritize(prio::core::PrioRequest(g)).schedule;
  ExtendedGridModel unthrottled, wide;
  wide.throttle_window = g.numNodes();  // window covers everything
  Rng a(8), b(8);
  const auto r1 =
      simulateExtended(g, Regimen::kOblivious, order, unthrottled, a);
  const auto r2 = simulateExtended(g, Regimen::kOblivious, order, wide, b);
  EXPECT_DOUBLE_EQ(r1.base.makespan, r2.base.makespan);
}

TEST(Extensions, FailuresAreRetriedUntilDone) {
  const auto g = chainDag(10);
  ExtendedGridModel model;
  model.failure_probability = 0.4;
  Rng rng(9);
  const auto r = simulateExtended(g, Regimen::kFifo, {}, model, rng);
  EXPECT_EQ(r.attempts, g.numNodes() + r.failures);
  EXPECT_GT(r.failures, 0u);  // with p=0.4 over 10+ attempts, certain-ish
  EXPECT_GT(r.base.makespan, 0.0);
}

TEST(Extensions, FailureRateMatchesProbability) {
  prio::dag::Digraph g;
  for (int i = 0; i < 200; ++i) {
    g.addNode(std::string("n").append(std::to_string(i)));
  }
  ExtendedGridModel model;
  model.base.mean_batch_size = 16.0;
  model.failure_probability = 0.25;
  Rng rng(10);
  std::uint64_t attempts = 0, failures = 0;
  for (int rep = 0; rep < 20; ++rep) {
    const auto r = simulateExtended(g, Regimen::kFifo, {}, model, rng);
    attempts += r.attempts;
    failures += r.failures;
  }
  EXPECT_NEAR(static_cast<double>(failures) / static_cast<double>(attempts),
              0.25, 0.02);
}

TEST(Extensions, FailuresIncreaseMakespan) {
  const auto g = prio::workloads::makeAirsn({10, 3});
  ExtendedGridModel clean, flaky;
  flaky.failure_probability = 0.3;
  double clean_total = 0.0, flaky_total = 0.0;
  Rng rng(11);
  for (int rep = 0; rep < 15; ++rep) {
    Rng r1 = rng.fork();
    Rng r2 = rng.fork();
    clean_total +=
        simulateExtended(g, Regimen::kFifo, {}, clean, r1).base.makespan;
    flaky_total +=
        simulateExtended(g, Regimen::kFifo, {}, flaky, r2).base.makespan;
  }
  EXPECT_GT(flaky_total, clean_total);
}

TEST(Extensions, HeterogeneousRuntimesPreserveMeanRoughly) {
  prio::dag::Digraph g;
  for (int i = 0; i < 400; ++i) {
    g.addNode(std::string("n").append(std::to_string(i)));
  }
  ExtendedGridModel model;
  model.base.mean_batch_size = 1e9;  // one wave
  model.base.mean_batch_interarrival = 1e6;
  model.runtime_heterogeneity_cv = 1.0;
  Rng rng(12);
  // Makespan of one wave = max job time; with cv=1 lognormals it far
  // exceeds the homogeneous ~1.3.
  const auto r = simulateExtended(g, Regimen::kFifo, {}, model, rng);
  EXPECT_GT(r.base.makespan, 2.0);
}

TEST(Extensions, WorkerSpeedVariationChangesRuntimes) {
  const auto g = chainDag(50);
  ExtendedGridModel uniform, varied;
  varied.worker_speed_cv = 0.8;
  Rng a(13), b(13);
  const auto r1 = simulateExtended(g, Regimen::kFifo, {}, uniform, a);
  const auto r2 = simulateExtended(g, Regimen::kFifo, {}, varied, b);
  EXPECT_NE(r1.base.makespan, r2.base.makespan);
}

TEST(Extensions, RolloverNeverWastesRequests) {
  // With rollover, every arrived request eventually serves a job (on a
  // dag with more jobs than requests-per-batch), so utilization is
  // bounded below by the no-rollover run's.
  const auto g = prio::workloads::makeAirsn({20, 4});
  ExtendedGridModel keep, drop;
  keep.rollover_requests = true;
  keep.base.mean_batch_size = 4.0;
  drop.base.mean_batch_size = 4.0;
  Rng a(14), b(14);
  const auto kept = simulateExtended(g, Regimen::kFifo, {}, keep, a);
  const auto dropped = simulateExtended(g, Regimen::kFifo, {}, drop, b);
  EXPECT_GE(kept.base.utilization, dropped.base.utilization);
  EXPECT_LE(kept.base.makespan, dropped.base.makespan * 1.5);
}

TEST(Extensions, EvictionsAreRetriedAndWasteWork) {
  const auto g = chainDag(20);
  ExtendedGridModel model;
  model.eviction_probability = 0.3;
  Rng rng(21);
  const auto r = simulateExtended(g, Regimen::kFifo, {}, model, rng);
  // Every attempt is a success, a failure, or an eviction; every job
  // eventually succeeds exactly once.
  EXPECT_EQ(r.attempts, g.numNodes() + r.failures + r.evictions);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_GT(r.evictions, 0u);
  EXPECT_GT(r.wasted_time, 0.0);
  EXPECT_GT(r.base.makespan, 0.0);
}

TEST(Extensions, EvictionWastesLessThanFullFailure) {
  // An evicted attempt loses only its elapsed fraction, so per incident
  // it wastes strictly less than a failure of the same duration would.
  prio::dag::Digraph g;
  for (int i = 0; i < 300; ++i) {
    g.addNode(std::string("n").append(std::to_string(i)));
  }
  ExtendedGridModel evict, fail;
  evict.eviction_probability = 0.25;
  fail.failure_probability = 0.25;
  Rng a(22), b(22);
  const auto re = simulateExtended(g, Regimen::kFifo, {}, evict, a);
  const auto rf = simulateExtended(g, Regimen::kFifo, {}, fail, b);
  ASSERT_GT(re.evictions, 0u);
  ASSERT_GT(rf.failures, 0u);
  const double per_eviction =
      re.wasted_time / static_cast<double>(re.evictions);
  const double per_failure =
      rf.wasted_time / static_cast<double>(rf.failures);
  EXPECT_LT(per_eviction, per_failure);
}

TEST(Extensions, EvictionRunsAreSeedDeterministic) {
  // PRIO vs FIFO under evictions, replayed with the same seeds, must be
  // bit-identical — the property the fault-injection harness and the
  // robustness bench depend on.
  const auto g = prio::workloads::makeAirsn({12, 4});
  const auto order = prio::core::prioritize(prio::core::PrioRequest(g)).schedule;
  ExtendedGridModel model;
  model.base.mean_batch_size = 8.0;
  model.eviction_probability = 0.2;
  model.failure_probability = 0.1;
  for (const Regimen regimen : {Regimen::kFifo, Regimen::kOblivious}) {
    Rng a(23), b(23);
    const std::span<const NodeId> ord =
        regimen == Regimen::kOblivious ? std::span<const NodeId>(order)
                                       : std::span<const NodeId>{};
    const auto r1 = simulateExtended(g, regimen, ord, model, a);
    const auto r2 = simulateExtended(g, regimen, ord, model, b);
    EXPECT_EQ(r1.base.makespan, r2.base.makespan);
    EXPECT_EQ(r1.attempts, r2.attempts);
    EXPECT_EQ(r1.failures, r2.failures);
    EXPECT_EQ(r1.evictions, r2.evictions);
    EXPECT_EQ(r1.wasted_time, r2.wasted_time);
  }
}

TEST(Extensions, RejectsBadParameters) {
  const auto g = chainDag(2);
  Rng rng(15);
  ExtendedGridModel model;
  model.failure_probability = 1.0;  // would never terminate
  EXPECT_THROW((void)simulateExtended(g, Regimen::kFifo, {}, model, rng),
               prio::util::Error);
  model.failure_probability = -0.1;
  EXPECT_THROW((void)simulateExtended(g, Regimen::kFifo, {}, model, rng),
               prio::util::Error);
}

TEST(Extensions, ThrottledPrioLosesItsEdge) {
  // The §3.2 claim: with -maxjobs style throttling, Condor "could assign
  // low-priority jobs to workers, unaware that high-priority jobs are
  // eligible" — PRIO degrades toward FIFO as the window shrinks.
  const auto g = prio::workloads::makeAirsn({});
  const auto order = prio::core::prioritize(prio::core::PrioRequest(g)).schedule;
  ExtendedGridModel model;
  model.base.mean_batch_interarrival = 1.0;
  model.base.mean_batch_size = 16.0;

  auto mean_makespan = [&](std::size_t window, std::uint64_t seed) {
    model.throttle_window = window;
    Rng rng(seed);
    double total = 0.0;
    const int reps = 15;
    for (int i = 0; i < reps; ++i) {
      Rng r = rng.fork();
      total += simulateExtended(g, Regimen::kOblivious, order, model, r)
                   .base.makespan;
    }
    return total / reps;
  };

  const double unthrottled = mean_makespan(0, 77);
  const double throttled = mean_makespan(4, 77);
  EXPECT_GT(throttled, unthrottled * 1.02);
}

}  // namespace
