#include "service/service.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <list>
#include <mutex>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "dag/csr.h"
#include "dag/fingerprint.h"
#include "dagman/dagman_file.h"
#include "dagman/instrument.h"
#include "tenant/fair_queue.h"
#include "tenant/registry.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"
#include "util/timing.h"

namespace prio::service {

namespace {

/// FNV-1a over the payload tag byte then the raw request bytes — routes
/// response-memo and parse-cache lookups; the stored payload decides
/// (collisions degrade to misses, never wrong hits).
std::uint64_t hashPayload(const Payload& p) {
  std::uint64_t h = 1469598103934665603ULL;
  h ^= static_cast<unsigned char>(p.kind);
  h *= 1099511628211ULL;
  for (const unsigned char c : p.bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The decode result of one payload, shared between the parse cache and
/// in-flight requests. Immutable once built: instrumentation always
/// works on a copy of `file`.
struct ParsedDag {
  dagman::DagmanFile file;  ///< empty for binary payloads
  dag::Digraph graph;
  std::vector<std::size_t> job_of_node;  ///< rescue dags only
  bool has_done = false;
  bool from_binary = false;
};

}  // namespace

/// Serialized-response memo for the payload path: exact (kind, bytes) →
/// rendered output (plus the Reply fields a hit must restore). One
/// mutex over an LRU map — a hit copies two strings under the lock,
/// which at wire sizes (~60KB) is still two orders of magnitude cheaper
/// than the parse + reduce + instrument + serialize pipeline it skips.
struct PrioService::TextCache {
  struct Entry {
    Payload payload;
    std::string output;
    PayloadKind output_kind = PayloadKind::kDagmanText;
    std::shared_ptr<const core::PrioResult> result;
    std::uint64_t fingerprint = 0;
    std::uint64_t layout = 0;
    std::list<std::uint64_t>::iterator lru_it;
  };

  explicit TextCache(std::size_t cap) : capacity(cap) {}

  bool find(std::uint64_t key, const Payload& payload, Reply& reply) {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = map.find(key);
    if (it == map.end() || it->second.payload.kind != payload.kind ||
        it->second.payload.bytes != payload.bytes) {
      return false;
    }
    lru.splice(lru.end(), lru, it->second.lru_it);
    reply.output = it->second.output;
    reply.output_kind = it->second.output_kind;
    reply.result = it->second.result;
    reply.fingerprint = it->second.fingerprint;
    reply.layout = it->second.layout;
    return true;
  }

  void insert(std::uint64_t key, const Payload& payload,
              const Reply& reply) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = map.find(key);
    if (it != map.end()) {
      lru.splice(lru.end(), lru, it->second.lru_it);
    } else {
      if (map.size() >= capacity && !lru.empty()) {
        map.erase(lru.front());
        lru.pop_front();
      }
      it = map.emplace(key, Entry{}).first;
      it->second.lru_it = lru.insert(lru.end(), key);
    }
    Entry& e = it->second;
    e.payload = payload;
    e.output = reply.output;
    e.output_kind = reply.output_kind;
    e.result = reply.result;
    e.fingerprint = reply.fingerprint;
    e.layout = reply.layout;
  }

  std::mutex mu;
  const std::size_t capacity;
  std::unordered_map<std::uint64_t, Entry> map;
  std::list<std::uint64_t> lru;  ///< front = coldest
};

/// Parse-result cache: (kind, bytes) → ParsedDag, sharded LRU in front
/// of the fingerprint cache. Values are shared_ptr snapshots — a hit
/// hands back the pointer and releases the shard lock before the
/// request touches the dag, so eviction never invalidates in-flight
/// work. Sharded like ResultCache: the key's low bits pick the shard,
/// each shard holds capacity/shards entries behind its own mutex.
struct PrioService::ParseCache {
  struct Entry {
    Payload payload;
    std::shared_ptr<const ParsedDag> parsed;
    std::list<std::uint64_t>::iterator lru_it;
  };

  struct Shard {
    std::mutex mu;
    std::unordered_map<std::uint64_t, Entry> map;
    std::list<std::uint64_t> lru;  ///< front = coldest
  };

  ParseCache(std::size_t capacity, std::size_t num_shards)
      : shards(std::max<std::size_t>(num_shards, 1)),
        per_shard_capacity(
            std::max<std::size_t>(capacity / shards.size(), 1)) {}

  Shard& shardOf(std::uint64_t key) {
    return shards[static_cast<std::size_t>(key) % shards.size()];
  }

  std::shared_ptr<const ParsedDag> find(std::uint64_t key,
                                        const Payload& payload) {
    Shard& shard = shardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it == shard.map.end() || it->second.payload.kind != payload.kind ||
        it->second.payload.bytes != payload.bytes) {
      return nullptr;
    }
    shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_it);
    return it->second.parsed;
  }

  void insert(std::uint64_t key, const Payload& payload,
              std::shared_ptr<const ParsedDag> parsed) {
    Shard& shard = shardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_it);
    } else {
      if (shard.map.size() >= per_shard_capacity && !shard.lru.empty()) {
        shard.map.erase(shard.lru.front());
        shard.lru.pop_front();
      }
      it = shard.map.emplace(key, Entry{}).first;
      it->second.lru_it = shard.lru.insert(shard.lru.end(), key);
    }
    it->second.payload = payload;
    it->second.parsed = std::move(parsed);
  }

  std::deque<Shard> shards;
  const std::size_t per_shard_capacity;
};

PrioService::PrioService(const ServiceConfig& config)
    : config_(config),
      cache_(config.cache_capacity == 0
                 ? nullptr
                 : std::make_unique<ResultCache>(config.cache_capacity,
                                                config.cache_shards)),
      text_cache_(config.cache_capacity == 0 || config.text_cache_capacity == 0
                      ? nullptr
                      : std::make_unique<TextCache>(
                            config.text_cache_capacity)),
      parse_cache_(
          config.cache_capacity == 0 || config.parse_cache_capacity == 0
              ? nullptr
              : std::make_unique<ParseCache>(config.parse_cache_capacity,
                                             config.parse_cache_shards)),
      fair_(config.tenants == nullptr
                ? nullptr
                : std::make_shared<tenant::FairQueue>(config.queue_capacity,
                                                      config.tenants)),
      pool_(resolveThreads(config.num_threads),
            fair_ != nullptr
                ? std::shared_ptr<util::TaskQueue>(fair_)
                : std::make_shared<util::FifoTaskQueue>(
                      config.queue_capacity)) {}

PrioService::~PrioService() { shutdown(); }

void PrioService::shutdown() { pool_.shutdown(); }

void PrioService::serveDigraph(const dag::Digraph& g, Reply& reply,
                               const obs::TraceContext& trace,
                               double budget_s) {
  reply.trace_id = trace.traceId();

  // One reduction pays for both the fingerprint and (on a miss) step 1 of
  // the heuristic. It is timed here — prioritize() below reuses it, so
  // its own reduce_s stays 0 and this measurement is what phase_reduce
  // reports.
  dag::Digraph reduced;
  double reduce_s = 0.0;
  {
    obs::Span span(trace, "service.fingerprint");
    const util::Stopwatch reduce_watch;
    reduced = dag::transitiveReduction(g, span.context());
    reduce_s = reduce_watch.elapsedSeconds();
    reply.fingerprint = dag::structuralFingerprintOfReduced(reduced);
    reply.layout = dag::layoutHash(g);
  }

  if (cache_ != nullptr) {
    ResultCache::FindOutcome found = cache_->find(reply.fingerprint,
                                                  reply.layout);
    if (found.result != nullptr) {
      reply.result = std::move(found.result);
      reply.cache_hit = true;
      metrics_.cache_hits.add();
      return;
    }
    if (found.alias) metrics_.fingerprint_aliases.add();
  }

  // Every computed request counts as a miss (also with caching disabled),
  // so hits/(hits+misses) is the true served-from-cache fraction.
  metrics_.cache_misses.add();

  // Build the PrioRequest: the reduction is reused (step 1 already paid
  // for above), the request's spans nest under this request's trace, and
  // the compute deadline rides on PrioOptions::deadline_s — prioritize()
  // arms the token internally.
  core::PrioRequest request(g, config_.prio_options);
  request.reduced = &reduced;
  request.options.trace = trace;
  request.tenant = reply.tenant;

  // Parallel schedule phase: lend the request pool itself. Helpers are
  // offered with trySubmit() only (see util/parallel_for.h), so a pool
  // saturated with requests simply yields no helpers and the phase runs
  // serially on this worker — request-level parallelism degrades
  // intra-request parallelism exactly when the cores are already busy.
  if (request.options.schedule_threads != 1) {
    request.options.schedule_pool = &pool_;
  }

  // The compute deadline is whichever is tighter: the service-wide
  // configuration or this request's remaining wire budget. prioritize()
  // arms the CancelToken from deadline_s internally, so the budget rides
  // the same machinery as the configured deadline.
  if (request.options.cancel == nullptr) {
    double deadline = config_.compute_deadline_s;
    if (budget_s > 0.0 && (deadline <= 0.0 || budget_s < deadline)) {
      deadline = budget_s;
    }
    if (deadline > 0.0) request.options.deadline_s = deadline;
  }

  try {
    auto result =
        std::make_shared<const core::PrioResult>(core::prioritize(request));
    core::PhaseTimings timings = result->timings;
    timings.reduce_s = reduce_s;  // reduction ran in the fingerprint step
    metrics_.recordPhases(timings);
    if (cache_ != nullptr) {
      cache_->insert(reply.fingerprint, reply.layout, result);
    }
    reply.result = std::move(result);
  } catch (const util::Cancelled&) {
    // Deadline fired mid-heuristic: serve the §3.1 outdegree-only
    // fallback instead — a valid, if weaker, priority list. The
    // degraded result is NOT cached; a later, less pressed request
    // should compute (and memoize) the real thing. The fallback span
    // carries this request's trace id, so degraded requests stay
    // attributable in the trace export.
    metrics_.requests_deadline_exceeded.add();
    metrics_.requests_degraded.add();
    reply.result = std::make_shared<const core::PrioResult>(
        core::fallbackPrioritize(g, trace));
    reply.status = RequestStatus::kDegraded;
  }
}

void PrioService::serveFile(const FileRequest& request, Reply& reply,
                            const obs::TraceContext& trace) {
  util::fault::checkpoint("service.parse");
  dagman::DagmanFile file = [&] {
    obs::Span span(trace, "service.parse");
    return dagman::DagmanFile::parseFile(request.input_path);
  }();
  if (file.hasDoneJobs()) {
    // Rescue dag: schedule only the pending jobs; DONE jobs keep their
    // existing jobpriority (they will never be submitted again).
    std::vector<std::size_t> job_of_node;
    const dag::Digraph g = file.toPendingDigraph(&job_of_node);
    serveDigraph(g, reply, trace);
    if (!request.output_path.empty()) {
      dagman::instrumentPendingJobs(file, reply.result->priority, job_of_node);
      file.writeFileAtomic(request.output_path);
    }
    return;
  }
  const dag::Digraph g = file.toDigraph();
  serveDigraph(g, reply, trace);
  if (!request.output_path.empty()) {
    dagman::instrumentDagmanFile(file, reply.result->priority);
    file.writeFileAtomic(request.output_path);
  }
}

void PrioService::servePayload(const Request& request, Reply& reply,
                               const obs::TraceContext& trace,
                               double budget_s) {
  util::fault::checkpoint("service.parse");
  if (request.payload.kind == PayloadKind::kBinaryCsr) {
    metrics_.binary_requests.add();
  }

  // Serialized-response memo: byte-identical payloads that previously
  // completed kOk skip the whole pipeline. The checkpoint above still
  // fires first, so fault injection sees every request.
  std::uint64_t payload_key = 0;
  const bool keyed = text_cache_ != nullptr || parse_cache_ != nullptr;
  if (keyed) payload_key = hashPayload(request.payload);
  if (text_cache_ != nullptr &&
      text_cache_->find(payload_key, request.payload, reply)) {
    reply.cache_hit = true;
    metrics_.cache_hits.add();
    metrics_.text_cache_hits.add();
    return;
  }

  // Parse cache: same dag bytes seen before (under any deadline or
  // tenant) skip the decoder entirely. On a miss the decode is timed
  // into phase_parse — the numerator of the bench parse share.
  std::shared_ptr<const ParsedDag> parsed;
  if (parse_cache_ != nullptr) {
    parsed = parse_cache_->find(payload_key, request.payload);
    if (parsed != nullptr) metrics_.parse_cache_hits.add();
  }
  if (parsed == nullptr) {
    util::Stopwatch parse_watch;
    auto fresh = std::make_shared<ParsedDag>();
    {
      obs::Span span(trace, "service.parse");
      if (request.payload.kind == PayloadKind::kBinaryCsr) {
        fresh->graph = dag::decodeBinaryDag(request.payload.bytes);
        fresh->from_binary = true;
      } else {
        std::istringstream in(request.payload.bytes);
        fresh->file = dagman::DagmanFile::parse(in);
        fresh->has_done = fresh->file.hasDoneJobs();
        fresh->graph = fresh->has_done
                           ? fresh->file.toPendingDigraph(&fresh->job_of_node)
                           : fresh->file.toDigraph();
      }
    }
    metrics_.phase_parse.record(parse_watch.elapsedSeconds());
    parsed = std::move(fresh);
    if (parse_cache_ != nullptr) {
      parse_cache_->insert(payload_key, request.payload, parsed);
    }
  }

  serveDigraph(parsed->graph, reply, trace, budget_s);

  // Render the answer in the payload's own kind. Binary replies skip
  // DagmanFile entirely — the BPRI table is node-id-indexed, exactly
  // the priority vector's order.
  if (request.payload.kind == PayloadKind::kBinaryCsr) {
    reply.output = dag::encodeBinaryPriorities(reply.result->priority);
    reply.output_kind = PayloadKind::kBinaryCsr;
  } else {
    // The cached ParsedDag is shared and immutable; instrument a copy.
    dagman::DagmanFile file = parsed->file;
    if (parsed->has_done) {
      dagman::instrumentPendingJobs(file, reply.result->priority,
                                    parsed->job_of_node);
    } else {
      dagman::instrumentDagmanFile(file, reply.result->priority);
    }
    std::ostringstream out;
    file.write(out);
    reply.output = std::move(out).str();
    reply.output_kind = PayloadKind::kDagmanText;
  }

  // Only full-fidelity results are memoized: degraded (deadline
  // fallback) output must not be replayed to later, unhurried requests.
  if (text_cache_ != nullptr && reply.status == RequestStatus::kOk) {
    text_cache_->insert(payload_key, request.payload, reply);
  }
}

void PrioService::serveBatch(const BatchRequest& request, Reply& reply,
                             const obs::TraceContext& trace,
                             double budget_s) {
  metrics_.batch_items.add(request.items.size());
  util::Stopwatch watch;
  reply.items.reserve(request.items.size());
  for (const Payload& payload : request.items) {
    Reply item_reply;
    item_reply.tenant = reply.tenant;
    item_reply.trace_id = reply.trace_id;
    // The batch shares one budget; items past its expiry answer
    // kExpired instead of computing a result nobody is waiting for.
    double remaining_s = 0.0;
    if (budget_s > 0.0) {
      remaining_s = budget_s - watch.elapsedSeconds();
      if (remaining_s <= 0.0) {
        item_reply.status = RequestStatus::kExpired;
        metrics_.requests_expired.add();
        reply.items.push_back(std::move(item_reply));
        continue;
      }
    }
    try {
      Request single;
      single.payload = payload;
      single.tenant = request.tenant;
      servePayload(single, item_reply, trace, remaining_s);
    } catch (const util::TransientError& e) {
      item_reply.result.reset();
      item_reply.status = RequestStatus::kFailed;
      item_reply.error = e.what();
      item_reply.transient = true;
      metrics_.requests_failed.add();
    } catch (const std::exception& e) {
      // A malformed item (bad payload bytes, cyclic dag) fails alone;
      // the batch and its connection live on.
      item_reply.result.reset();
      item_reply.status = RequestStatus::kFailed;
      item_reply.error = e.what();
      metrics_.requests_failed.add();
    }
    reply.items.push_back(std::move(item_reply));
  }
}

namespace {

const std::string& sourceOf(const FileRequest& r) { return r.input_path; }
std::string sourceOf(const dag::Digraph&) { return {}; }
std::string sourceOf(const Request&) { return {}; }
std::string sourceOf(const BatchRequest&) { return {}; }

std::uint64_t adoptedTraceId(const FileRequest&) { return 0; }
std::uint64_t adoptedTraceId(const dag::Digraph&) { return 0; }
std::uint64_t adoptedTraceId(const Request& r) { return r.trace_id; }
std::uint64_t adoptedTraceId(const BatchRequest& r) { return r.trace_id; }

std::uint32_t tenantOf(const FileRequest& r) { return r.tenant; }
std::uint32_t tenantOf(const dag::Digraph&) { return 0; }
std::uint32_t tenantOf(const Request& r) { return r.tenant; }
std::uint32_t tenantOf(const BatchRequest& r) { return r.tenant; }

double deadlineOf(const FileRequest&) { return 0.0; }
double deadlineOf(const dag::Digraph&) { return 0.0; }
double deadlineOf(const Request& r) { return r.deadline_s; }
double deadlineOf(const BatchRequest& r) { return r.deadline_s; }

}  // namespace

template <typename RequestT>
void PrioService::enqueueWith(RequestT request,
                              std::function<void(Reply)> complete) {
  metrics_.requests_submitted.add();

  // std::function must be copyable, so the completion and the request
  // live behind a shared_ptr. The stopwatch starts here: latency_s
  // includes queue wait.
  struct Holder {
    util::Stopwatch watch;
    std::function<void(Reply)> complete;
    RequestT request;
  };
  auto holder = std::make_shared<Holder>();
  holder->request = std::move(request);
  holder->complete = std::move(complete);

  auto task = [this, holder] {
    Reply reply;
    reply.source = sourceOf(holder->request);
    reply.tenant = tenantOf(holder->request);
    // Shed before computing: under overload a request that already
    // outwaited its queue deadline would deliver a stale answer.
    if (config_.queue_deadline_s > 0.0 &&
        holder->watch.elapsedSeconds() > config_.queue_deadline_s) {
      reply.status = RequestStatus::kShed;
      metrics_.requests_shed.add();
      reply.latency_s = holder->watch.elapsedSeconds();
      metrics_.latency_total.record(reply.latency_s);
      holder->complete(std::move(reply));
      return;
    }
    // Same idea for the request's own budget (the wire deadline): spent
    // waiting in the queue means the caller has stopped listening.
    const double budget_s = deadlineOf(holder->request);
    if (budget_s > 0.0 && holder->watch.elapsedSeconds() >= budget_s) {
      reply.status = RequestStatus::kExpired;
      metrics_.requests_expired.add();
      reply.latency_s = holder->watch.elapsedSeconds();
      metrics_.latency_total.record(reply.latency_s);
      holder->complete(std::move(reply));
      return;
    }
    try {
      // One trace per request: a fresh trace id (or the wire-propagated
      // one for payload and batch requests) and a "service.request" root
      // span whose children are the parse/fingerprint/pipeline spans,
      // recorded from whichever worker thread runs the task.
      const obs::TraceContext trace =
          beginRequestTrace(adoptedTraceId(holder->request));
      obs::Span span(trace, "service.request");
      if constexpr (std::is_same_v<RequestT, FileRequest>) {
        serveFile(holder->request, reply, span.context());
      } else if constexpr (std::is_same_v<RequestT, Request> ||
                           std::is_same_v<RequestT, BatchRequest>) {
        // Whatever budget survived the queue bounds the compute. The
        // floor keeps a budget that ran out between the expiry check
        // and here meaningful: the CancelToken fires on its first poll
        // and the request degrades instead of computing unbounded.
        const double remaining_s =
            budget_s > 0.0
                ? std::max(budget_s - holder->watch.elapsedSeconds(), 1e-6)
                : 0.0;
        if constexpr (std::is_same_v<RequestT, Request>) {
          servePayload(holder->request, reply, span.context(), remaining_s);
        } else {
          serveBatch(holder->request, reply, span.context(), remaining_s);
        }
      } else {
        serveDigraph(holder->request, reply, span.context());
      }
      metrics_.requests_completed.add();
    } catch (const util::TransientError& e) {
      reply.result.reset();
      reply.status = RequestStatus::kFailed;
      reply.error = e.what();
      reply.transient = true;
      metrics_.requests_failed.add();
    } catch (const std::exception& e) {
      reply.result.reset();
      reply.status = RequestStatus::kFailed;
      reply.error = e.what();
      metrics_.requests_failed.add();
    }
    reply.latency_s = holder->watch.elapsedSeconds();
    metrics_.latency_total.record(reply.latency_s);
    if (reply.cache_hit) metrics_.latency_cache_hit.record(reply.latency_s);
    holder->complete(std::move(reply));
  };

  // The tenant id routes the task into its fair-queue lane; the FIFO
  // backend ignores it, so untenanted services keep the PR 1 semantics.
  const std::uint32_t tenant_id = tenantOf(holder->request);
  const bool accepted = config_.backpressure == BackpressurePolicy::kBlock
                            ? pool_.submitFor(tenant_id, std::move(task))
                            : pool_.trySubmitFor(tenant_id, std::move(task));
  if (!accepted) {
    metrics_.requests_rejected.add();
    Reply reply;
    reply.status = RequestStatus::kRejected;
    reply.source = sourceOf(holder->request);
    reply.tenant = tenant_id;
    reply.latency_s = holder->watch.elapsedSeconds();
    holder->complete(std::move(reply));
  }
}

template <typename RequestT>
std::future<Reply> PrioService::enqueue(RequestT request) {
  auto promise = std::make_shared<std::promise<Reply>>();
  std::future<Reply> future = promise->get_future();
  enqueueWith(std::move(request), [promise](Reply reply) {
    promise->set_value(std::move(reply));
  });
  return future;
}

std::future<Reply> PrioService::submit(dag::Digraph g) {
  return enqueue(std::move(g));
}

std::future<Reply> PrioService::submit(FileRequest request) {
  return enqueue(std::move(request));
}

std::future<Reply> PrioService::submit(Request request) {
  return enqueue(std::move(request));
}

std::future<Reply> PrioService::submit(BatchRequest request) {
  return enqueue(std::move(request));
}

void PrioService::submitCallback(Request request,
                                 std::function<void(Reply)> done) {
  enqueueWith(std::move(request), std::move(done));
}

void PrioService::submitCallback(BatchRequest request,
                                 std::function<void(Reply)> done) {
  enqueueWith(std::move(request), std::move(done));
}

std::vector<std::future<Reply>> PrioService::submitBatch(
    std::vector<dag::Digraph> dags) {
  std::vector<std::future<Reply>> futures;
  futures.reserve(dags.size());
  for (dag::Digraph& g : dags) futures.push_back(submit(std::move(g)));
  return futures;
}

std::vector<std::future<Reply>> PrioService::submitBatch(
    std::vector<FileRequest> files) {
  std::vector<std::future<Reply>> futures;
  futures.reserve(files.size());
  for (FileRequest& f : files) futures.push_back(submit(std::move(f)));
  return futures;
}

Reply PrioService::prioritizeNow(const dag::Digraph& g) {
  metrics_.requests_submitted.add();
  util::Stopwatch watch;
  Reply reply;
  try {
    const obs::TraceContext trace = beginRequestTrace();
    obs::Span span(trace, "service.request");
    serveDigraph(g, reply, span.context());
    metrics_.requests_completed.add();
  } catch (const util::TransientError& e) {
    reply.result.reset();
    reply.status = RequestStatus::kFailed;
    reply.error = e.what();
    reply.transient = true;
    metrics_.requests_failed.add();
  } catch (const std::exception& e) {
    reply.result.reset();
    reply.status = RequestStatus::kFailed;
    reply.error = e.what();
    metrics_.requests_failed.add();
  }
  reply.latency_s = watch.elapsedSeconds();
  metrics_.latency_total.record(reply.latency_s);
  if (reply.cache_hit) metrics_.latency_cache_hit.record(reply.latency_s);
  return reply;
}

void PrioService::writeMetricsJson(std::ostream& out) {
  metrics_.queue_high_water.set(pool_.queueHighWater());
  out << "{\"threads\":" << pool_.numThreads()
      << ",\"queue_capacity\":" << pool_.queueCapacity()
      << ",\"backpressure\":\""
      << (config_.backpressure == BackpressurePolicy::kBlock ? "block"
                                                             : "reject")
      << "\",\"cache\":";
  if (cache_ != nullptr) {
    out << "{\"capacity\":" << cache_->capacity()
        << ",\"shards\":" << cache_->numShards()
        << ",\"size\":" << cache_->size()
        << ",\"evictions\":" << cache_->evictions() << "}";
  } else {
    out << "null";
  }
  out << ",\"metrics\":";
  metrics_.writeJson(out);
  out << "}";
}

void PrioService::writePrometheusText(std::ostream& out) {
  metrics_.queue_high_water.set(pool_.queueHighWater());
  metrics_.writePrometheus(out);
}

}  // namespace prio::service
