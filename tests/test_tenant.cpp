// Tests for the multi-tenant scheduling subsystem (src/tenant/): the
// tenant registry (token-bucket quotas, in-flight caps, outcome
// accounting, JSON/Prometheus rendering), the deficit-round-robin
// FairQueue (FIFO parity for a single tenant, weighted interleave, the
// starvation bound, global capacity semantics), and the service-level
// integration (per-tenant routing, single-tenant byte parity with the
// untenanted service).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/service.h"
#include "tenant/fair_queue.h"
#include "tenant/registry.h"

namespace {

using namespace prio;
using tenant::Admission;
using tenant::FairQueue;
using tenant::Outcome;
using tenant::TenantConfig;
using tenant::TenantRegistry;

constexpr const char* kFig3 =
    "Job a a.submit\n"
    "Job b b.submit\n"
    "Job c c.submit\n"
    "Job d d.submit\n"
    "Job e e.submit\n"
    "PARENT a CHILD b\n"
    "PARENT c CHILD d e\n";

// ---------------------------------------------------------------- registry

TEST(TenantRegistry, UnmeteredTenantAlwaysAdmits) {
  TenantRegistry registry;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(registry.tryAdmit(0, 0.0), Admission::kAdmit);
  }
  // Unknown ids self-register and are just as unmetered.
  EXPECT_EQ(registry.tryAdmit(42, 0.0), Admission::kAdmit);
  EXPECT_EQ(registry.numTenants(), 2u);
}

TEST(TenantRegistry, TokenBucketIsDeterministic) {
  TenantRegistry registry;
  registry.configure(1, {.name = "", .rate_per_s = 2.0, .burst = 2.0});

  // A fresh bucket holds `burst` tokens; the first tryAdmit anchors the
  // clock, so the absolute epoch is irrelevant.
  EXPECT_EQ(registry.tryAdmit(1, 100.0), Admission::kAdmit);
  EXPECT_EQ(registry.tryAdmit(1, 100.0), Admission::kAdmit);
  EXPECT_EQ(registry.tryAdmit(1, 100.0), Admission::kQuota);

  // Denials consume nothing: retrying at the same instant stays denied
  // but does not push the refill clock around.
  EXPECT_EQ(registry.tryAdmit(1, 100.0), Admission::kQuota);

  // 0.5 s at 2/s refills exactly one token.
  EXPECT_EQ(registry.tryAdmit(1, 100.5), Admission::kAdmit);
  EXPECT_EQ(registry.tryAdmit(1, 100.5), Admission::kQuota);

  // Refill is capped at burst: a long idle period does not bank tokens.
  EXPECT_EQ(registry.tryAdmit(1, 200.0), Admission::kAdmit);
  EXPECT_EQ(registry.tryAdmit(1, 200.0), Admission::kAdmit);
  EXPECT_EQ(registry.tryAdmit(1, 200.0), Admission::kQuota);
}

TEST(TenantRegistry, BurstDefaultsToRateFloorOne) {
  TenantRegistry registry;
  // burst derives max(1, 3) = 3
  registry.configure(1, {.name = "", .rate_per_s = 3.0});
  EXPECT_EQ(registry.tryAdmit(1, 0.0), Admission::kAdmit);
  EXPECT_EQ(registry.tryAdmit(1, 0.0), Admission::kAdmit);
  EXPECT_EQ(registry.tryAdmit(1, 0.0), Admission::kAdmit);
  EXPECT_EQ(registry.tryAdmit(1, 0.0), Admission::kQuota);

  // burst derives max(1, 0.25) = 1
  registry.configure(2, {.name = "", .rate_per_s = 0.25});
  EXPECT_EQ(registry.tryAdmit(2, 0.0), Admission::kAdmit);
  EXPECT_EQ(registry.tryAdmit(2, 0.0), Admission::kQuota);
}

TEST(TenantRegistry, InFlightCapChecksBeforeTokens) {
  TenantRegistry registry;
  registry.configure(1, {.name = "", .rate_per_s = 100.0, .burst = 100.0,
                         .max_in_flight = 2});
  EXPECT_EQ(registry.tryAdmit(1, 0.0), Admission::kAdmit);
  EXPECT_EQ(registry.tryAdmit(1, 0.0), Admission::kAdmit);
  EXPECT_EQ(registry.tryAdmit(1, 0.0), Admission::kInFlightCap);

  // A cap denial must not have burned a token: after one completion the
  // freed slot admits with tokens to spare.
  registry.recordReply(1, Outcome::kOk, false, 0.001);
  EXPECT_EQ(registry.tryAdmit(1, 0.0), Admission::kAdmit);
  const auto snaps = registry.snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[1].admitted, 3u);
  EXPECT_EQ(snaps[1].in_flight, 2u);
  EXPECT_NEAR(snaps[1].tokens, 97.0, 1e-9);
}

TEST(TenantRegistry, OutcomesAreBucketed) {
  TenantRegistry registry;
  ASSERT_EQ(registry.tryAdmit(5, 0.0), Admission::kAdmit);
  registry.recordReply(5, Outcome::kOk, /*cache_hit=*/true, 0.002);
  ASSERT_EQ(registry.tryAdmit(5, 0.0), Admission::kAdmit);
  registry.recordReply(5, Outcome::kOk, /*cache_hit=*/false, 0.004);
  ASSERT_EQ(registry.tryAdmit(5, 0.0), Admission::kAdmit);
  registry.recordReply(5, Outcome::kDegraded, false, 0.008);
  ASSERT_EQ(registry.tryAdmit(5, 0.0), Admission::kAdmit);
  registry.recordReply(5, Outcome::kShed, false, 0.001);
  ASSERT_EQ(registry.tryAdmit(5, 0.0), Admission::kAdmit);
  registry.recordReply(5, Outcome::kFailed, false, 0.001);
  registry.recordRejected(5);

  const auto snaps = registry.snapshot();
  ASSERT_EQ(snaps.size(), 2u);  // default + tenant 5, ascending by id
  EXPECT_EQ(snaps[0].id, 0u);
  const auto& s = snaps[1];
  EXPECT_EQ(s.id, 5u);
  EXPECT_EQ(s.name, "tenant-5");
  EXPECT_EQ(s.admitted, 5u);
  EXPECT_EQ(s.completed, 3u);  // two kOk + one kDegraded
  EXPECT_EQ(s.degraded, 1u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 2u);  // kOk miss + degraded compute
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.latency.count, 5u);  // every admitted reply records latency
  EXPECT_NEAR(s.cacheHitRate(), 1.0 / 3.0, 1e-9);
}

TEST(TenantRegistry, ConfigurePreservesCountersAndRefillsBucket) {
  TenantRegistry registry;
  registry.configure(1, {.name = "", .rate_per_s = 1.0, .burst = 1.0});
  ASSERT_EQ(registry.tryAdmit(1, 0.0), Admission::kAdmit);
  registry.recordReply(1, Outcome::kOk, false, 0.001);
  ASSERT_EQ(registry.tryAdmit(1, 0.0), Admission::kQuota);

  registry.configure(1, {.name = "upgraded", .weight = 4, .rate_per_s = 10.0,
                         .burst = 2.0});
  const auto snaps = registry.snapshot();
  EXPECT_EQ(snaps[1].name, "upgraded");
  EXPECT_EQ(snaps[1].admitted, 1u);  // counters survived
  EXPECT_EQ(registry.weight(1), 4u);
  // The bucket refilled to the new burst.
  EXPECT_EQ(registry.tryAdmit(1, 0.0), Admission::kAdmit);
  EXPECT_EQ(registry.tryAdmit(1, 0.0), Admission::kAdmit);
  EXPECT_EQ(registry.tryAdmit(1, 0.0), Admission::kQuota);
}

TEST(TenantRegistry, WeightSelfRegistersAndFloorsAtOne) {
  TenantConfig defaults;
  defaults.weight = 2;
  TenantRegistry registry(defaults);
  EXPECT_EQ(registry.weight(9), 2u);  // unknown → defaults
  EXPECT_EQ(registry.numTenants(), 2u);
  registry.configure(9, {.name = "", .weight = 0});  // 0 acts as 1
  EXPECT_EQ(registry.weight(9), 1u);
}

TEST(TenantRegistry, JsonAndPrometheusRendering) {
  TenantRegistry registry;
  registry.configure(1, {.name = "a\"b\\c\n", .weight = 3, .rate_per_s = 2.0,
                         .burst = 4.0, .max_in_flight = 8});
  ASSERT_EQ(registry.tryAdmit(1, 0.0), Admission::kAdmit);
  registry.recordReply(1, Outcome::kOk, true, 0.002);

  auto snaps = registry.snapshot();
  snaps[1].queued = 5;  // the fair-queue column is caller-filled
  std::ostringstream json;
  tenant::writeTenantsJson(json, snaps);
  const std::string j = json.str();
  EXPECT_EQ(j.rfind("{\"tenants\":[", 0), 0u) << j;
  EXPECT_NE(j.find("\"id\":1"), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"a\\\"b\\\\c\\n\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"weight\":3"), std::string::npos);
  EXPECT_NE(j.find("\"rate_per_s\":2"), std::string::npos);
  EXPECT_NE(j.find("\"max_in_flight\":8"), std::string::npos);
  EXPECT_NE(j.find("\"queued\":5"), std::string::npos);
  EXPECT_NE(j.find("\"admitted\":1"), std::string::npos);
  EXPECT_NE(j.find("\"cache_hit_rate\":1"), std::string::npos);
  EXPECT_NE(j.find("\"latency_count\":1"), std::string::npos);
  EXPECT_NE(j.find("\"latency_p50_s\":"), std::string::npos);
  EXPECT_NE(j.find("\"latency_p99_s\":"), std::string::npos);

  std::ostringstream prom;
  tenant::writeTenantsPrometheus(prom, snaps);
  const std::string p = prom.str();
  EXPECT_NE(p.find("# TYPE prio_tenant_admitted_total counter"),
            std::string::npos);
  EXPECT_NE(p.find("# TYPE prio_tenant_weight gauge"), std::string::npos);
  EXPECT_NE(p.find("# TYPE prio_tenant_latency_p99_seconds gauge"),
            std::string::npos);
  // Label values escape backslash, quote, and newline per the Prometheus
  // exposition format.
  EXPECT_NE(p.find("tenant_name=\"a\\\"b\\\\c\\n\""), std::string::npos) << p;
  EXPECT_NE(p.find("prio_tenant_queued{tenant=\"1\""), std::string::npos);
}

// -------------------------------------------------------------- fair queue

TEST(FairQueue, SingleTenantIsExactFifo) {
  // DRR with one active lane must degenerate to plain FIFO — the parity
  // guarantee that keeps untenanted traffic on the PR 1-5 contract.
  FairQueue q(256);
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.tryPush(7, [i, &order] { order.push_back(i); }));
  }
  EXPECT_EQ(q.size(), 100u);
  EXPECT_EQ(q.queuedFor(7), 100u);
  while (auto task = q.pop()) {
    (*task)();
    if (order.size() == 100) break;
  }
  for (int i = 0; i < 100; ++i) ASSERT_EQ(order[i], i);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.highWater(), 100u);
}

TEST(FairQueue, WeightedInterleaveMatchesDrr) {
  TenantRegistry registry;
  registry.configure(1, {.name = "", .weight = 2});
  registry.configure(2, {.name = "", .weight = 1});
  FairQueue q(256, &registry);

  std::vector<int> order;
  // Backlog both lanes before popping: tenant 1 enters the ring first.
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.tryPush(1, [&order] { order.push_back(1); }));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.tryPush(2, [&order] { order.push_back(2); }));
  for (int i = 0; i < 9; ++i) (*q.pop())();

  // DRR with weights 2:1 serves 1,1,2 per round.
  const std::vector<int> expected = {1, 1, 2, 1, 1, 2, 1, 1, 2};
  EXPECT_EQ(order, expected);
}

TEST(FairQueue, EmptyLaneForfeitsItsBudgetAndLeavesTheRing) {
  TenantRegistry registry;
  registry.configure(1, {.name = "", .weight = 100});
  FairQueue q(256, &registry);
  std::vector<int> order;
  ASSERT_TRUE(q.tryPush(1, [&order] { order.push_back(1); }));
  ASSERT_TRUE(q.tryPush(2, [&order] { order.push_back(2); }));
  ASSERT_TRUE(q.tryPush(2, [&order] { order.push_back(2); }));
  // Tenant 1's lane empties after one pop; its remaining 99 budget must
  // not stall the ring.
  for (int i = 0; i < 3; ++i) (*q.pop())();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 2}));

  // Re-activation grants a fresh budget, not the forfeited remainder.
  ASSERT_TRUE(q.tryPush(1, [&order] { order.push_back(1); }));
  (*q.pop())();
  EXPECT_EQ(order.back(), 1);
}

TEST(FairQueue, StarvationBoundHolds) {
  // With a hog of weight W backlogged, a newly-arrived task of another
  // tenant waits at most W pops — the DRR starvation bound.
  TenantRegistry registry;
  registry.configure(1, {.name = "", .weight = 5});
  registry.configure(2, {.name = "", .weight = 1});
  FairQueue q(1024, &registry);

  std::atomic<bool> small_done{false};
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(q.tryPush(1, [] {}));
  ASSERT_TRUE(q.tryPush(2, [&small_done] { small_done = true; }));

  int pops_before_small = 0;
  while (!small_done) {
    (*q.pop())();
    if (!small_done) ++pops_before_small;
    ASSERT_LE(pops_before_small, 5) << "small tenant starved past the bound";
  }
  EXPECT_LE(pops_before_small, 5);
}

TEST(FairQueue, CapacityIsGlobalAcrossLanes) {
  FairQueue q(4);
  ASSERT_TRUE(q.tryPush(1, [] {}));
  ASSERT_TRUE(q.tryPush(2, [] {}));
  ASSERT_TRUE(q.tryPush(3, [] {}));
  ASSERT_TRUE(q.tryPush(4, [] {}));
  EXPECT_FALSE(q.tryPush(5, [] {}));  // full: the bound spans all lanes
  EXPECT_EQ(q.capacity(), 4u);
  (*q.pop())();
  EXPECT_TRUE(q.tryPush(5, [] {}));
  EXPECT_EQ(q.numLanes(), 5u);
}

TEST(FairQueue, BlockingPushUnblocksOnPop) {
  FairQueue q(1);
  ASSERT_TRUE(q.tryPush(1, [] {}));
  std::atomic<bool> pushed{false};
  std::thread pusher([&] {
    ASSERT_TRUE(q.push(2, [] {}));  // blocks until the pop below
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed);
  (*q.pop())();
  pusher.join();
  EXPECT_TRUE(pushed);
  EXPECT_EQ(q.size(), 1u);
}

TEST(FairQueue, CloseDrainsThenReturnsNullopt) {
  FairQueue q(16);
  ASSERT_TRUE(q.tryPush(1, [] {}));
  ASSERT_TRUE(q.tryPush(2, [] {}));
  q.close();
  EXPECT_FALSE(q.push(3, [] {}));     // no enqueue after close...
  EXPECT_FALSE(q.tryPush(3, [] {}));
  EXPECT_TRUE(q.pop().has_value());   // ...but queued work still drains
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());
}

// ------------------------------------------------------------- integration

TEST(TenantService, RepliesCarryTheTenantAndTheRegistryAccounts) {
  TenantRegistry registry;
  registry.configure(1, {.name = "", .weight = 2});
  service::ServiceConfig config;
  config.num_threads = 2;
  config.tenants = &registry;
  service::PrioService service(config);

  std::vector<std::future<service::Reply>> futures;
  for (std::uint32_t tenant : {1u, 2u, 1u, 0u}) {
    service::Request request;
    request.payload = service::Payload::text(kFig3);
    request.tenant = tenant;
    futures.push_back(service.submit(std::move(request)));
  }
  std::vector<std::uint32_t> tenants;
  for (auto& f : futures) {
    const service::Reply reply = f.get();
    ASSERT_EQ(reply.status, service::RequestStatus::kOk);
    EXPECT_FALSE(reply.output.empty());
    tenants.push_back(reply.tenant);
  }
  EXPECT_EQ(tenants, (std::vector<std::uint32_t>{1, 2, 1, 0}));
  ASSERT_NE(service.fairQueue(), nullptr);
  EXPECT_EQ(service.fairQueue()->size(), 0u);
}

TEST(TenantService, SingleTenantOutputMatchesUntenantedServiceByteForByte) {
  // The parity acceptance: routing the same request through the fair
  // queue must not change a single output byte vs the plain service.
  service::ServiceConfig plain_config;
  plain_config.num_threads = 1;
  service::PrioService plain(plain_config);

  TenantRegistry registry;
  service::ServiceConfig fair_config;
  fair_config.num_threads = 1;
  fair_config.tenants = &registry;
  service::PrioService fair(fair_config);

  for (int i = 0; i < 5; ++i) {
    service::Request request;
    request.payload = service::Payload::text(kFig3);
    const service::Reply a = plain.submit(request).get();
    const service::Reply b = fair.submit(request).get();
    ASSERT_EQ(a.status, service::RequestStatus::kOk);
    ASSERT_EQ(b.status, service::RequestStatus::kOk);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.cache_hit, b.cache_hit);
  }
}

TEST(TenantService, ManyTenantsUnderLoadAllComplete) {
  TenantRegistry registry;
  registry.configure(1, {.name = "", .weight = 8});
  service::ServiceConfig config;
  config.num_threads = 2;
  config.queue_capacity = 512;
  config.cache_capacity = 0;  // force real work per request
  config.tenants = &registry;
  service::PrioService service(config);

  std::vector<std::future<service::Reply>> futures;
  for (int round = 0; round < 40; ++round) {
    for (std::uint32_t tenant = 1; tenant <= 4; ++tenant) {
      service::Request request;
      request.payload = service::Payload::text(kFig3);
      request.tenant = tenant;
      futures.push_back(service.submit(std::move(request)));
    }
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, service::RequestStatus::kOk);
  }
  const auto snaps = registry.snapshot();
  ASSERT_EQ(snaps.size(), 5u);  // default + 4
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].in_flight, 0u) << "tenant " << snaps[i].id;
  }
}

}  // namespace
