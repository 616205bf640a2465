// servebench — the served-path benchmark of priod.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              --server PATH --out DIR [--commit ID]
//
// --trace 0 measures what a user of priod_server sees: it spawns the
// server as a child process (the setup_s pass is repeated kSetups times
// and its median reported), drives the workload's fixed request sequence
// closed-loop for S seconds, then checks every reply against an
// in-process core::prioritize of the same dag.
//
// --trace 1 gives the per-layer numbers of the same sequence: a
// single-threaded replay through each module's functions under spans
// (written out as a Chrome trace), an in-process PrioService run, and a
// wire run whose /metrics counters give the cache hit shares.
//
// Both print a human-readable report, write it with the host and run
// description to DIR/<workload>-seed<N>-trace<T>.json, and end stdout
// with one JSON line: {"correct", "attempted", "failed", "metrics"}.
// Exit status: 0 when every reply was kOk and matched the reference, 1
// when one did not, 2 on usage or set-up errors (no result line).
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "replay.h"
#include "stats/summary.h"
#include "util/check.h"
#include "wire.h"
#include "workloads.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define SERVEBENCH_COMPILER "clang " __clang_version__
#else
#define SERVEBENCH_COMPILER "gcc " __VERSION__
#endif

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Server flags of every run: one reactor and two workers, so a
// four-core host leaves a core for the load generator.
constexpr std::size_t kServerThreads = 2;
const std::vector<std::string> kServerFlags = {
    "--reactors", "1", "--threads", std::to_string(kServerThreads)};
// Fresh servers started per --trace 0 run; setup_s is their median.
constexpr std::size_t kSetups = 5;

// Requests per second of --seconds. A run sends a fixed number of
// requests, so a parent and a change serve the same requests and every
// cache count repeats: the rate each workload reaches on the reference
// host (4-core Xeon VM), so a run there measures about --seconds.
double referenceRate(const std::string& workload) {
  if (workload == "cold_text") return 150.0;
  if (workload == "zipf_hot") return 4500.0;
  return 32.0;
}
// A host this much slower than the reference stops sending early (the
// report flags it), which keeps a run within its time limit.
constexpr double kWindowCapFactor = 3.0;

// Requests of the --trace 1 replay: a few seconds of single-threaded
// work on the reference host.
std::size_t replayRequests(const std::string& workload) {
  if (workload == "cold_text") return 300;
  if (workload == "zipf_hot") return 10000;
  return 40;
}

// Samples that lie beyond the q-quantile's interpolation point among n:
// a percentile is reported only when at least ten do.
std::size_t samplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - static_cast<std::size_t>(q * static_cast<double>(n - 1));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string server;
  std::string out_dir;
  std::string commit = "unknown";
};

int usage(const char* why) {
  std::cerr << "servebench: " << why
            << "\nusage: servebench --workload NAME --seed N --seconds S "
               "--trace 0|1 --server PATH --out DIR [--commit ID]\n";
  return 2;
}

// ---------------------------------------------------------------------
// Output check.

struct Check {
  std::size_t attempted = 0;
  std::size_t not_ok = 0;      ///< replies whose status was not kOk
  std::size_t mismatched = 0;  ///< kOk replies that differ from the reference
  [[nodiscard]] std::size_t failed() const { return not_ok + mismatched; }
};

// Compares every reply with the in-process reference for its payload.
// A reply matches when its length and its std::hash equal the
// reference's. Runs after the timed window, four payloads at a time.
Check verify(const Sequence& seq, const std::vector<Sample>& samples) {
  Check check;
  check.attempted = samples.size();
  std::map<std::uint32_t, std::vector<const Sample*>> by_payload;
  for (const Sample& s : samples) {
    if (s.status != prio::net::Status::kOk) {
      ++check.not_ok;
      continue;
    }
    by_payload[seq.requests[s.request]].push_back(&s);
  }
  std::vector<std::pair<std::uint32_t, std::vector<const Sample*>>> work(
      by_payload.begin(), by_payload.end());
  std::vector<std::size_t> bad(work.size(), 0);
  parallelFor(work.size(), [&](std::size_t w) {
    const Payload& p = seq.payloads[work[w].first];
    const std::string expected = expectedReply(p.recipe, p.kind);
    const std::uint64_t hash = std::hash<std::string_view>{}(expected);
    for (const Sample* s : work[w].second) {
      if (s->reply_bytes != expected.size() || s->reply_hash != hash) ++bad[w];
    }
  });
  for (std::size_t b : bad) check.mismatched += b;
  return check;
}

// ---------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return out.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::vector<std::pair<std::string, std::string>> hostAndRun(
    const Options& opt, const Sequence& seq, const Sequence& warm) {
  utsname uts{};
  ::uname(&uts);
  std::string flags;
  for (const std::string& f : kServerFlags) flags += (flags.empty() ? "" : " ") + f;
  std::ostringstream hash;
  hash << std::hex << std::setw(16) << std::setfill('0') << seq.hash();
  std::ostringstream warm_hash;
  warm_hash << std::hex << std::setw(16) << std::setfill('0') << warm.hash();
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", cpuModel()},
      {"kernel", std::string(uts.sysname) + " " + uts.release},
      {"compiler", SERVEBENCH_COMPILER},
      {"build_type", SERVEBENCH_BUILD_TYPE},
      {"commit", opt.commit},
      {"server_flags", flags},
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)},
      {"seconds", number(opt.seconds)},
      {"connections", std::to_string(seq.connections)},
      {"sequence_requests", std::to_string(seq.size())},
      {"sequence_hash", hash.str()},
      {"warmup_hash", warm_hash.str()},
  };
}

// Prints the report, writes the record file, prints the result line.
int finish(const Options& opt, const Sequence& seq, const Sequence& warm,
           const Check& check, const std::vector<Metric>& metrics,
           const std::vector<Metric>& extra) {
  const auto run = hostAndRun(opt, seq, warm);
  for (const auto& [k, v] : run) std::cout << "  " << k << ": " << v << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit << "\n";
  }
  for (const Metric& m : extra) {
    std::cout << "  (" << m.name << " = " << number(m.value) << " " << m.unit << ")\n";
  }
  std::cout << "  attempted " << check.attempted << ", not kOk " << check.not_ok
            << ", mismatched " << check.mismatched << "\n";

  auto metricsJson = [](const std::vector<Metric>& list) {
    std::string out = "{";
    for (const Metric& m : list) {
      if (out.size() > 1) out += ", ";
      out += quoted(m.name) + ": {\"value\": " + number(m.value) +
             ", \"unit\": " + quoted(m.unit) + "}";
    }
    return out + "}";
  };
  const bool correct = check.failed() == 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(check.attempted) +
      ", \"failed\": " + std::to_string(check.failed()) +
      ", \"metrics\": " + metricsJson(metrics) + "}";

  std::ofstream record(opt.out_dir + "/" + opt.workload + "-seed" +
                       std::to_string(opt.seed) + "-trace" +
                       std::to_string(opt.trace) + ".json");
  record << "{\"run\": {";
  for (std::size_t i = 0; i < run.size(); ++i) {
    record << (i ? ", " : "") << quoted(run[i].first) << ": " << quoted(run[i].second);
  }
  record << "}, \"result\": " << result << ", \"also\": " << metricsJson(extra)
         << "}\n";

  std::cout << result << std::endl;
  if (!correct) {
    std::cerr << "servebench: " << check.failed()
              << " replies failed the output check\n";
  }
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics.

int runEndToEnd(const Options& opt) {
  const Clock::time_point begin = Clock::now();
  const Sequence warm = makeWarmup(opt.workload);
  const Sequence seq = makeSequence(
      opt.workload, opt.seed,
      static_cast<std::size_t>(std::ceil(opt.seconds * referenceRate(opt.workload))));

  const double generate_s = secondsSince(begin);
  std::vector<double> setups;
  std::vector<DriveResult> warm_runs;
  std::unique_ptr<ServerProcess> server;
  for (std::size_t k = 0; k < kSetups; ++k) {
    if (server) server->stop();
    const Clock::time_point start = Clock::now();
    server = std::make_unique<ServerProcess>(opt.server, kServerFlags, opt.out_dir);
    warm_runs.push_back(drive(server->port(), warm, 0.0));
    setups.push_back(secondsSince(start));
  }
  const ServerProcess::Usage before = server->usage();
  const DriveResult run =
      drive(server->port(), seq, kWindowCapFactor * opt.seconds);
  const ServerProcess::Usage after = server->usage();
  const double user_s = after.user_s - before.user_s;
  const double system_s = after.system_s - before.system_s;
  const double cpu_s = user_s + system_s;
  const double rss_mb = server->peakRssMb();
  server->stop();

  const Clock::time_point verify_begin = Clock::now();
  Check check = verify(seq, run.samples);
  for (const DriveResult& w : warm_runs) {
    const Check c = verify(warm, w.samples);
    check.not_ok += c.not_ok;
    check.mismatched += c.mismatched;
  }
  const double verify_s = secondsSince(verify_begin);

  const std::size_t n = run.samples.size();
  std::vector<double> latency;
  for (const Sample& s : run.samples) latency.push_back(s.latency_s);
  const std::vector<Metric> metrics = {
      {"setup_s", prio::stats::median(setups), "s"},
      {"dags_per_s", static_cast<double>(n) / run.elapsed_s, "1/s"},
      {"p50_ms", 1e3 * prio::stats::percentile(latency, 50.0), "ms"},
      {"p90_ms", 1e3 * prio::stats::percentile(latency, 90.0), "ms"},
      {"server_cpu_us_per_dag", 1e6 * cpu_s / static_cast<double>(n), "us"},
      {"rss_mb", rss_mb, "MB"},
  };
  std::vector<Metric> extra = {
      {"samples", static_cast<double>(n), "count"},
      {"samples_beyond_p90", static_cast<double>(samplesBeyond(n, 0.90)), "count"},
      {"error_share",
       static_cast<double>(check.failed()) / static_cast<double>(check.attempted),
       "ratio"},
      {"window_s", run.elapsed_s, "s"},
      {"server_system_share", system_s / cpu_s, "ratio"},
      {"server_minor_faults_per_dag",
       (after.minor_faults - before.minor_faults) / static_cast<double>(n),
       "count"},
      {"generate_s", generate_s, "s"},
      {"verify_s", verify_s, "s"},
      {"window_truncated", run.samples.size() < seq.size() ? 1.0 : 0.0, "bool"},
  };
  // Per dag family: sample count and median, to see which class each
  // reported percentile falls in.
  std::map<std::string, std::vector<double>> by_family;
  for (const Sample& s : run.samples) {
    by_family[familyName(seq.at(s.request).recipe.family)].push_back(s.latency_s);
  }
  for (const auto& [family, lat] : by_family) {
    extra.push_back({"samples." + family, static_cast<double>(lat.size()), "count"});
    extra.push_back({"p50_ms." + family, 1e3 * prio::stats::median(lat), "ms"});
  }
  for (std::size_t k = 0; k < setups.size(); ++k) {
    extra.push_back({"setup_s." + std::to_string(k), setups[k], "s"});
  }
  if (samplesBeyond(n, 0.99) >= 10) {
    extra.push_back({"p99_ms", 1e3 * prio::stats::percentile(latency, 99.0), "ms"});
  }
  return finish(opt, seq, warm, check, metrics, extra);
}

// ---------------------------------------------------------------------
// --trace 1: per-layer metrics.

int runTraced(const Options& opt) {
  const Sequence warm = makeWarmup(opt.workload);
  const Sequence seq =
      makeSequence(opt.workload, opt.seed, replayRequests(opt.workload));
  const double requests = static_cast<double>(seq.size());

  // Untraced passes on both sides of the traced one; the faster of the
  // two is the reference, so the pass that warms the allocator and the
  // page tables does not count as tracing overhead.
  const double untraced_a = replay(seq, nullptr).seconds;
  prio::obs::Tracer tracer(seq.size() * 32);
  const Replay traced = replay(seq, &tracer);
  const double traced_s = traced.seconds;
  const double untraced_b = replay(seq, nullptr).seconds;
  const prio::obs::Tracer::Drained drained = tracer.drain();
  PRIO_CHECK_MSG(drained.dropped == 0, "trace ring overflowed");
  {
    std::ofstream out(opt.out_dir + "/trace-" + opt.workload + "-seed" +
                      std::to_string(opt.seed) + ".json");
    prio::obs::writeChromeTrace(out, drained.records);
  }
  std::map<std::string, double> span_s;
  for (const prio::obs::SpanRecord& r : drained.records) {
    span_s[r.name] += 1e-9 * static_cast<double>(r.end_ns - r.begin_ns);
  }
  double covered_s = 0.0;
  for (const char* layer : kLayerSpans) covered_s += span_s[layer];

  ServerProcess server(opt.server, kServerFlags, opt.out_dir);
  const auto before = server.metrics();
  const DriveResult run = drive(server.port(), seq, 0.0);
  const auto after = server.metrics();
  server.stop();
  const Check check = verify(seq, run.samples);
  auto delta = [&](const std::string& name) {
    const auto a = after.find(name);
    PRIO_CHECK_MSG(a != after.end(), "/metrics has no " << name);
    const auto b = before.find(name);
    return a->second - (b == before.end() ? 0.0 : b->second);
  };
  auto share = [](double hits, double lookups) {
    return lookups > 0.0 ? hits / lookups : 0.0;
  };
  // Every payload request probes the response memo; those it misses
  // probe the parse cache and then the result cache. prio_cache_hits
  // counts memo hits and result-cache hits together.
  const double served = delta("prio_requests_completed");
  const double memo_hits = delta("prio_text_cache_hits");
  const double past_memo = served - memo_hits;
  const double result_hits = delta("prio_cache_hits") - memo_hits;

  std::vector<double> wire_latency;
  for (const Sample& s : run.samples) wire_latency.push_back(s.latency_s);
  const double wire_p50_s = prio::stats::median(wire_latency);
  const ServiceReplay service = serviceReplay(seq, kServerThreads);

  std::vector<Metric> metrics;
  auto layer = [&](const std::string& metric, const std::string& span) {
    metrics.push_back({metric + "_us", 1e6 * span_s[span] / requests, "us"});
    metrics.push_back({metric + "_share", span_s[span] / traced_s, "ratio"});
  };
  for (const char* span : kLayerSpans) layer(span, span);
  layer("core.decompose", "prio.decompose");
  layer("core.schedule", "prio.schedule");
  layer("core.combine", "prio.combine");
  metrics.insert(metrics.end(), {
      {"service.latency_p50_us", 1e6 * service.latency_p50_s, "us"},
      {"service.text_memo_hit_share", share(memo_hits, served), "ratio"},
      {"service.parse_cache_hit_share",
       share(delta("prio_parse_cache_hits"), past_memo), "ratio"},
      {"service.result_cache_hit_share", share(result_hits, past_memo), "ratio"},
      {"service.cache_served_share", share(memo_hits + result_hits, served),
       "ratio"},
      {"service.queue_high_water", static_cast<double>(service.queue_high_water),
       "count"},
      {"net.wire_p50_us", 1e6 * wire_p50_s, "us"},
      {"net.overhead_us", 1e6 * (wire_p50_s - service.latency_p50_s), "us"},
      {"net.wakeups_per_response",
       share(delta("prio_net_wakeups_drained"), delta("prio_net_responses_sent")),
       "ratio"},
      {"net.protocol_errors", delta("prio_net_protocol_errors"), "count"},
      {"tenant.rejected", delta("prio_net_tenant_rejected"), "count"},
      {"trace.coverage", covered_s / traced_s, "ratio"},
      {"trace.overhead_ratio", traced_s / std::min(untraced_a, untraced_b),
       "ratio"},
  });
  Check total = check;
  total.not_ok += service.failed;
  const std::vector<Metric> extra = {
      {"replay_requests", requests, "count"},
      {"replay_traced_s", traced_s, "s"},
      {"replay_untraced_s", std::min(untraced_a, untraced_b), "s"},
      {"spans", static_cast<double>(drained.records.size()), "count"},
      // The replay's own cache hits, to hold against the server's above.
      {"replay.text_memo_hit_share",
       share(static_cast<double>(traced.memo_hits), requests), "ratio"},
      {"replay.parse_cache_hit_share",
       share(static_cast<double>(traced.parse_cache_hits),
             requests - static_cast<double>(traced.memo_hits)),
       "ratio"},
      {"replay.result_cache_hit_share",
       share(static_cast<double>(traced.result_cache_hits),
             requests - static_cast<double>(traced.memo_hits)),
       "ratio"},
  };
  return finish(opt, seq, warm, total, metrics, extra);
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") opt.workload = value;
      else if (arg == "--seed") opt.seed = std::stoull(value);
      else if (arg == "--seconds") opt.seconds = std::stod(value);
      else if (arg == "--trace") opt.trace = std::stoi(value);
      else if (arg == "--server") opt.server = value;
      else if (arg == "--out") opt.out_dir = value;
      else if (arg == "--commit") opt.commit = value;
      else return usage(("unknown option " + arg).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!knownWorkload(opt.workload)) return usage("unknown --workload");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  if (opt.trace != 0 && opt.trace != 1) return usage("--trace must be 0 or 1");
  if (opt.server.empty() || opt.out_dir.empty()) {
    return usage("--server and --out are required");
  }
  try {
    return opt.trace == 0 ? runEndToEnd(opt) : runTraced(opt);
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 2;
  }
}
