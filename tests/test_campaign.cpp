// Tests for the §4.2 campaign driver.
#include <gtest/gtest.h>

#include "core/prio.h"
#include "sim/campaign.h"
#include "util/check.h"
#include "workloads/scientific.h"

namespace {

using namespace prio::sim;

TEST(Campaign, ProducesPSamples) {
  const auto g = prio::workloads::makeAirsn({8, 3});
  GridModel m;
  CampaignConfig cfg;
  cfg.p = 7;
  cfg.q = 2;
  const auto s = runCampaign(g, Regimen::kFifo, {}, m, cfg);
  EXPECT_EQ(s.time.size(), 7u);
  EXPECT_EQ(s.stall.size(), 7u);
  EXPECT_EQ(s.util.size(), 7u);
}

TEST(Campaign, DeterministicInSeed) {
  const auto g = prio::workloads::makeAirsn({8, 3});
  GridModel m;
  CampaignConfig cfg;
  cfg.p = 4;
  cfg.q = 2;
  cfg.seed = 99;
  const auto a = runCampaign(g, Regimen::kFifo, {}, m, cfg);
  const auto b = runCampaign(g, Regimen::kFifo, {}, m, cfg);
  EXPECT_EQ(a.time.samples(), b.time.samples());
  cfg.seed = 100;
  const auto c = runCampaign(g, Regimen::kFifo, {}, m, cfg);
  EXPECT_NE(a.time.samples(), c.time.samples());
}

TEST(Campaign, RejectsZeroPQ) {
  const auto g = prio::workloads::makeAirsn({8, 3});
  GridModel m;
  CampaignConfig cfg;
  cfg.p = 0;
  EXPECT_THROW((void)runCampaign(g, Regimen::kFifo, {}, m, cfg),
               prio::util::Error);
}

TEST(Campaign, SelfComparisonIsNearUnity) {
  // FIFO vs FIFO with independent streams: ratios concentrate around 1.
  const auto g = prio::workloads::makeAirsn({10, 3});
  GridModel m;
  m.mean_batch_size = 8.0;
  CampaignConfig cfg;
  cfg.p = 12;
  cfg.q = 8;
  const auto cmp =
      compareSchedulers(g, Regimen::kFifo, {}, Regimen::kFifo, {}, m, cfg);
  ASSERT_TRUE(cmp.time_ratio.defined);
  EXPECT_NEAR(cmp.time_ratio.median, 1.0, 0.15);
  EXPECT_LE(cmp.time_ratio.ci_low, 1.0);
  EXPECT_GE(cmp.time_ratio.ci_high, 1.0);
}

TEST(Campaign, PrioVsFifoHeadlineScenario) {
  // AIRSN(250), mu_BIT = 1, mu_BS = 2^4: the paper reports an expected
  // execution time ratio confidently below ~0.87.
  const auto g = prio::workloads::makeAirsn({});
  const auto r = prio::core::prioritize(prio::core::PrioRequest(g));
  GridModel m;
  m.mean_batch_interarrival = 1.0;
  m.mean_batch_size = 16.0;
  CampaignConfig cfg;
  cfg.p = 12;
  cfg.q = 4;
  const auto cmp = comparePrioVsFifo(g, r.schedule, m, cfg);
  ASSERT_TRUE(cmp.time_ratio.defined);
  EXPECT_LT(cmp.time_ratio.median, 0.92);
  EXPECT_LT(cmp.a_mean_time, cmp.b_mean_time);
  // Utilization moves the other way (PRIO wastes fewer requests).
  ASSERT_TRUE(cmp.util_ratio.defined);
  EXPECT_GT(cmp.util_ratio.median, 1.0);
}

TEST(Campaign, ExtremeRegimesShowNoGain) {
  // Very frequent arrivals (mu_BIT = 1e-3): execution becomes BFS-like
  // and the ratio approaches 1 (paper §4.3, explanation three).
  const auto g = prio::workloads::makeAirsn({30, 4});
  const auto r = prio::core::prioritize(prio::core::PrioRequest(g));
  GridModel m;
  m.mean_batch_interarrival = 1e-3;
  m.mean_batch_size = 16.0;
  CampaignConfig cfg;
  cfg.p = 8;
  cfg.q = 3;
  const auto cmp = comparePrioVsFifo(g, r.schedule, m, cfg);
  ASSERT_TRUE(cmp.time_ratio.defined);
  EXPECT_NEAR(cmp.time_ratio.median, 1.0, 0.06);
}

TEST(Campaign, StallRatioUndefinedWhenFifoNeverStalls) {
  // A wide antichain with ample batches never stalls under FIFO, so the
  // paper's rule says: report no confidence interval.
  prio::dag::Digraph g;
  for (int i = 0; i < 40; ++i) {
    g.addNode(std::string("n").append(std::to_string(i)));
  }
  const auto r = prio::core::prioritize(prio::core::PrioRequest(g));
  GridModel m;
  m.mean_batch_interarrival = 1.0;
  m.mean_batch_size = 8.0;
  CampaignConfig cfg;
  cfg.p = 4;
  cfg.q = 2;
  const auto cmp = comparePrioVsFifo(g, r.schedule, m, cfg);
  EXPECT_FALSE(cmp.stall_ratio.defined);
  EXPECT_TRUE(cmp.time_ratio.defined);
}

}  // namespace
