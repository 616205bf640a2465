// Service throughput: requests/sec of the priod service at 1/2/4/8
// worker threads over a 500-request mixed workload (AIRSN / Inspiral /
// Montage / SDSS variants plus random dags, with duplicates and renamed
// duplicates so the result cache sees realistic repeat traffic).
//
// Every concurrent run is checked for 100% parity against a serial
// core::prioritize() pass — byte-identical schedules and priorities —
// before its throughput is reported.
//
// Emits BENCH_service.json next to the binary's working directory so the
// perf trajectory is machine-readable across PRs:
//   {"workload": {...}, "hardware_concurrency": N,
//    "runs": [{"threads": 1, "requests_per_s": ..., ...}, ...],
//    "speedup_8_vs_1": ...}
//
// Environment: PRIO_BENCH_REQUESTS overrides the request count (default
// 500); PRIO_BENCH_UNIQUE the unique-structure pool size (default 100).
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/prio.h"
#include "service/service.h"
#include "stats/rng.h"
#include "util/timing.h"
#include "workloads/random.h"
#include "workloads/scientific.h"

using prio::dag::Digraph;
using prio::service::PrioService;
using prio::service::Reply;
using prio::service::RequestStatus;
using prio::service::ServiceConfig;

namespace {

// Same structure and id order, fresh names: hits the cache through the
// name-blind fingerprint/layout pair.
Digraph renamedCopy(const Digraph& g, const std::string& tag) {
  Digraph out;
  out.reserveNodes(g.numNodes());
  for (prio::dag::NodeId u = 0; u < g.numNodes(); ++u) {
    out.addNode(tag + "_" + std::to_string(u));
  }
  for (prio::dag::NodeId u = 0; u < g.numNodes(); ++u) {
    for (prio::dag::NodeId v : g.children(u)) out.addEdge(u, v);
  }
  return out;
}

std::vector<Digraph> uniquePool(std::size_t count, prio::stats::Rng& rng) {
  namespace wl = prio::workloads;
  std::vector<Digraph> pool;
  pool.reserve(count);
  // Scientific variants: sweep the generator parameters so each instance
  // is a distinct structure of the same family.
  for (std::size_t i = 0; pool.size() < count && i < count / 4; ++i) {
    pool.push_back(wl::makeAirsn({20 + 10 * i, 5 + i}));
    if (pool.size() < count) {
      pool.push_back(wl::makeInspiral({8 + 2 * i, 6 + (i % 4)}));
    }
    if (pool.size() < count) {
      pool.push_back(wl::makeMontage({4 + i, 10 + 2 * i, 10 * i}));
    }
    if (pool.size() < count) {
      pool.push_back(wl::makeSdss({30 + 10 * i, 6 + (i % 3), 3, 20 + 4 * i}));
    }
  }
  // Random families (Canon et al.-style mixed task graphs).
  while (pool.size() < count) {
    switch (rng.next() % 3) {
      case 0:
        pool.push_back(wl::randomDag(80 + rng.next() % 120,
                                     0.02 + 0.05 * rng.uniform01(), rng));
        break;
      case 1:
        pool.push_back(wl::layeredRandom(3 + rng.next() % 5,
                                         10 + rng.next() % 20, 0.15, rng));
        break;
      default:
        pool.push_back(wl::randomComposable(60 + rng.next() % 80, rng));
        break;
    }
  }
  return pool;
}

struct RunStats {
  std::size_t threads = 0;
  double wall_s = 0.0;
  double requests_per_s = 0.0;
  double cache_hit_rate = 0.0;
  std::size_t queue_high_water = 0;
  bool parity = true;
};

}  // namespace

int main() {
  const std::size_t num_requests =
      prio::bench::envSize("PRIO_BENCH_REQUESTS", 500);
  const std::size_t num_unique = prio::bench::envSize("PRIO_BENCH_UNIQUE", 100);

  prio::stats::Rng rng(20060627);
  const std::vector<Digraph> pool = uniquePool(num_unique, rng);

  // The request stream: every unique structure once, then duplicates —
  // half exact copies, half renamed copies — chosen pseudo-randomly until
  // the stream is full, then a deterministic shuffle.
  std::vector<Digraph> requests;
  requests.reserve(num_requests);
  for (const Digraph& g : pool) requests.push_back(g);
  std::size_t renamed = 0;
  while (requests.size() < num_requests) {
    const Digraph& base = pool[rng.next() % pool.size()];
    if (rng.next() % 2 == 0) {
      requests.push_back(renamedCopy(
          base, std::string("r").append(std::to_string(renamed++))));
    } else {
      requests.push_back(base);
    }
  }
  for (std::size_t i = requests.size(); i > 1; --i) {
    std::swap(requests[i - 1], requests[rng.next() % i]);
  }

  std::size_t total_jobs = 0;
  for (const Digraph& g : requests) total_jobs += g.numNodes();
  std::printf(
      "bench_service_throughput: %zu requests (%zu unique structures, "
      "%zu total jobs)\n",
      requests.size(), pool.size(), total_jobs);

  // Serial oracle.
  prio::util::Stopwatch serial_watch;
  std::vector<prio::core::PrioResult> serial;
  serial.reserve(requests.size());
  for (const Digraph& g : requests) {
    serial.push_back(prio::core::prioritize(prio::core::PrioRequest(g)));
  }
  const double serial_s = serial_watch.elapsedSeconds();
  std::printf("  serial core::prioritize: %.3fs (%.1f req/s)\n", serial_s,
              static_cast<double>(requests.size()) / serial_s);

  std::vector<RunStats> runs;
  std::vector<std::string> run_metrics_json;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    ServiceConfig config;
    config.num_threads = threads;
    config.queue_capacity = 64;
    config.cache_capacity = 2048;
    PrioService service(config);

    prio::util::Stopwatch watch;
    std::vector<std::future<Reply>> futures;
    futures.reserve(requests.size());
    for (const Digraph& g : requests) futures.push_back(service.submit(g));

    RunStats stats;
    stats.threads = threads;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const Reply reply = futures[i].get();
      if (reply.status != RequestStatus::kOk ||
          reply.result->schedule != serial[i].schedule ||
          reply.result->priority != serial[i].priority) {
        stats.parity = false;
      }
    }
    stats.wall_s = watch.elapsedSeconds();
    stats.requests_per_s = static_cast<double>(requests.size()) / stats.wall_s;
    stats.cache_hit_rate = service.metrics().cacheHitRate();
    stats.queue_high_water = service.queueHighWater();
    runs.push_back(stats);

    std::ostringstream mjson;
    service.writeMetricsJson(mjson);
    run_metrics_json.push_back(mjson.str());

    std::printf(
        "  %zu thread(s): %.3fs — %.1f req/s, cache hit rate %.3f, "
        "queue high water %zu, parity %s\n",
        threads, stats.wall_s, stats.requests_per_s, stats.cache_hit_rate,
        stats.queue_high_water, stats.parity ? "OK" : "FAILED");
  }

  const double speedup =
      runs.front().wall_s > 0 ? runs.back().requests_per_s /
                                    runs.front().requests_per_s
                              : 0.0;
  bool all_parity = true;
  for (const RunStats& r : runs) all_parity = all_parity && r.parity;

  {
    std::ofstream out("BENCH_service.json");
    out << "{\"bench\":\"service_throughput\",\"requests\":" << requests.size()
        << ",\"unique_structures\":" << pool.size()
        << ",\"total_jobs\":" << total_jobs
        << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
        << ",\"serial_requests_per_s\":"
        << static_cast<double>(requests.size()) / serial_s
        << ",\"parity\":" << (all_parity ? "true" : "false")
        << ",\"speedup_8_vs_1\":" << speedup << ",\"runs\":[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunStats& r = runs[i];
      if (i > 0) out << ",";
      out << "{\"threads\":" << r.threads << ",\"wall_s\":" << r.wall_s
          << ",\"requests_per_s\":" << r.requests_per_s
          << ",\"cache_hit_rate\":" << r.cache_hit_rate
          << ",\"queue_high_water\":" << r.queue_high_water
          << ",\"parity\":" << (r.parity ? "true" : "false")
          << ",\"service\":" << run_metrics_json[i] << "}";
    }
    out << "]}\n";
  }

  std::printf(
      "bench_service_throughput: 8-thread vs 1-thread speedup %.2fx "
      "(hardware concurrency %u), parity %s — wrote BENCH_service.json\n",
      speedup, std::thread::hardware_concurrency(),
      all_parity ? "OK" : "FAILED");
  return all_parity ? 0 : 1;
}
