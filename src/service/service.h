// priod — the long-running prioritization service.
//
// One PrioService owns a fixed pool of worker threads behind a bounded
// work queue and a sharded, fingerprint-keyed LRU result cache. Requests
// (in-memory Digraphs or DAGMan files) are accepted individually or in
// batches; each returns a std::future<Reply>, so callers overlap
// submission with completion and drain results in any order.
//
// Backpressure: the work queue holds at most queue_capacity pending
// requests. When it is full, submissions either block the caller until a
// worker frees a slot (BackpressurePolicy::kBlock — lossless, the
// default) or complete immediately with RequestStatus::kRejected
// (kReject — bounded-latency load shedding for interactive front ends).
// Either way memory stays bounded no matter how fast clients submit.
//
// Caching: a worker first transitively reduces the dag and computes its
// structural fingerprint (dag/fingerprint.h). On a layout-verified cache
// hit the memoized PrioResult is returned without running the heuristic;
// on a miss the worker runs prioritize() with a PrioRequest that carries
// the reduction it already paid for — and memoizes the result. Results are
// held by shared_ptr, so eviction never invalidates an outstanding reply.
//
// Failure: a request whose dag is cyclic (or whose DAGMan file is
// malformed) completes with kFailed and the util::Error message; it never
// tears down a worker.
//
// Deadlines and degradation (DESIGN.md §8): with compute_deadline_s set,
// a request whose heuristic run outlives the deadline is cancelled
// mid-phase and re-served with the paper's §3.1 outdegree-only fallback —
// the reply is kDegraded and still carries a valid priority permutation,
// so callers get a weaker answer instead of a hung or failed request.
// With queue_deadline_s set, a request that waited longer than that in
// the queue is shed (kShed) without computing anything: under overload
// the result would be stale by the time it arrived. A Request (or
// BatchRequest) may additionally carry its own whole-request budget
// (deadline_s, fed from the wire deadline): spent in the queue it
// completes kExpired, and any remainder tightens the compute deadline.
// Every request therefore terminates with kOk, kDegraded, kShed,
// kRejected, kExpired, or kFailed — never a hang.
//
// Payloads are typed: service::Request carries a tagged
// Payload — kDagmanText (the classic text path) or kBinaryCsr (the BDAG
// binary layout in dag/csr.h, decoded without any text parsing) — and
// the reply's output is rendered in the same kind. BatchRequest carries
// many payloads as one service request with per-item replies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/prio.h"
#include "dag/digraph.h"
#include "obs/trace.h"
#include "service/cache.h"
#include "service/metrics.h"
#include "util/thread_pool.h"

namespace prio::tenant {
class FairQueue;
class TenantRegistry;
}  // namespace prio::tenant

namespace prio::service {

enum class BackpressurePolicy {
  kBlock,   ///< full queue blocks the submitting thread
  kReject,  ///< full queue completes the request with kRejected
};

struct ServiceConfig {
  /// Worker threads (0 = one per hardware thread).
  std::size_t num_threads = 0;
  /// Pending-request bound; the backpressure knob.
  std::size_t queue_capacity = 256;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Result-cache size in entries (0 disables caching entirely).
  std::size_t cache_capacity = 1024;
  std::size_t cache_shards = 16;
  /// Serialized-response memo for the payload path (the wire protocol),
  /// in entries: a byte-identical Request payload that previously
  /// completed kOk is answered from the stored rendered output, skipping
  /// parse, fingerprint, instrument, and serialize — the per-request
  /// floor that otherwise caps a hot serving loop. Keyed by the exact
  /// (kind, bytes) pair; an entry holds both byte strings (~2x the
  /// request size). 0 disables; cache_capacity == 0 (caching off)
  /// disables it too.
  std::size_t text_cache_capacity = 128;
  /// Parse-result cache in FRONT of the fingerprint cache: payload
  /// (kind, bytes) → parsed dag (DagmanFile + Digraph), sharded LRU.
  /// Where the response memo above needs a byte-identical request AND a
  /// prior kOk completion, this one only needs the same dag bytes — a
  /// repeated payload skips the parser even when the deadline, tenant,
  /// or requested output kind differ. Entries are shared_ptr snapshots,
  /// so eviction never invalidates an in-flight request. 0 disables;
  /// cache_capacity == 0 (caching off) disables it too.
  std::size_t parse_cache_capacity = 256;
  std::size_t parse_cache_shards = 8;
  /// Compute deadline per request in seconds (0 = unbounded). When the
  /// heuristic outlives it, the request degrades to the outdegree-only
  /// fallback and replies kDegraded.
  double compute_deadline_s = 0.0;
  /// Queue-wait deadline in seconds (0 = unbounded). A request that
  /// waited longer is shed (kShed) without computing.
  double queue_deadline_s = 0.0;
  /// Options forwarded to every prioritize() run. When
  /// prio_options.schedule_threads != 1, the service lends its own
  /// request pool to each run's schedule phase (non-blocking trySubmit
  /// helpers): an idle service parallelizes a lone request across the
  /// workers, while a saturated one degrades to serial per-request
  /// scheduling.
  core::PrioOptions prio_options;
  /// Optional tracer (borrowed; must outlive the service). When set,
  /// every request runs under its own trace — a fresh trace id, a
  /// "service.request" root span, and the full pipeline span tree below
  /// it, including the "prio.fallback" span of degraded requests. Null
  /// (the default) keeps the hot path on the disabled-context branch.
  obs::Tracer* tracer = nullptr;
  /// Optional tenant registry (borrowed; must outlive the service).
  /// When set, the work queue becomes a deficit-round-robin weighted-
  /// fair queue (tenant/fair_queue.h) keyed by each request's tenant id,
  /// with per-lane weights read from the registry — DESIGN.md §12. Null
  /// (the default) keeps the single-FIFO BoundedQueue path, bit-for-bit
  /// identical to the pre-tenant service.
  tenant::TenantRegistry* tenants = nullptr;
};

enum class RequestStatus {
  kOk,
  kDegraded,  ///< deadline expired; valid outdegree-fallback priorities
  kRejected,  ///< shed by kReject backpressure; never entered the queue
  kShed,      ///< dropped after exceeding the queue-wait deadline
  kFailed,    ///< error while parsing or scheduling; see Reply::error
  kExpired,   ///< caller-supplied budget spent before compute started
};

/// How a Payload's bytes encode a dag. Mirrors net::PayloadKind (the
/// wire payload_kind byte) without depending on the net layer.
enum class PayloadKind : std::uint8_t {
  kDagmanText = 0,  ///< DAGMan input-file text
  kBinaryCsr = 1,   ///< BDAG binary layout (dag/csr.h)
};

/// One dag, as bytes plus the tag saying how to decode them. The typed
/// replacement for the stringly dag_text parameter: the service decodes
/// by tag (text parser or binary-CSR decoder) and renders the reply in
/// the same kind (instrumented text / BPRI priority table).
struct Payload {
  PayloadKind kind = PayloadKind::kDagmanText;
  std::string bytes;

  [[nodiscard]] static Payload text(std::string dag_text) {
    return {PayloadKind::kDagmanText, std::move(dag_text)};
  }
  [[nodiscard]] static Payload binary(std::string bdag_bytes) {
    return {PayloadKind::kBinaryCsr, std::move(bdag_bytes)};
  }
};

struct Reply {
  RequestStatus status = RequestStatus::kOk;
  /// The heuristic result (null unless kOk or kDegraded; kDegraded
  /// carries the fallback schedule/priorities only). Shared with the
  /// cache when kOk.
  std::shared_ptr<const core::PrioResult> result;
  bool cache_hit = false;
  std::uint64_t fingerprint = 0;  ///< structural fingerprint (0 on failure)
  std::uint64_t layout = 0;       ///< layout hash (0 on failure)
  /// For file requests: the input path.
  std::string source;
  /// Error message when status == kFailed.
  std::string error;
  /// For payload requests (the wire-protocol path): the rendered answer
  /// — instrumented DAGMan text (kDagmanText) or a BPRI priority table
  /// (kBinaryCsr), per output_kind. Empty for digraph/file requests.
  std::string output;
  /// How `output` is encoded; always matches the request payload's kind.
  PayloadKind output_kind = PayloadKind::kDagmanText;
  /// BatchRequest only: one reply per item, in submission order. Item
  /// replies carry per-item status/output; the enclosing Reply is the
  /// batch-level disposition (kOk even when individual items failed —
  /// a bad item degrades itself, never the batch).
  std::vector<Reply> items;
  /// kFailed only: the error was transient (util::TransientError) and a
  /// resubmission may succeed — what prio_serve's retry loop keys on.
  bool transient = false;
  /// Submit-to-completion wall clock (queue wait included).
  double latency_s = 0.0;
  /// Trace id of this request's span tree (0 when the service runs
  /// without a tracer) — the join key between a reply and its spans in
  /// the Chrome trace export.
  std::uint64_t trace_id = 0;
  /// The tenant the request was billed to (0 = default).
  std::uint32_t tenant = 0;
};

/// A DAGMan-file request: parse `input_path`, prioritize its dag, and —
/// when `output_path` is non-empty — write the instrumented DAGMan file
/// (jobpriority VARS, Fig. 3) there. Parsing, scheduling, and writing all
/// happen on the worker thread.
struct FileRequest {
  std::string input_path;
  std::string output_path;
  /// Tenant id for fair-queue routing and accounting (0 = default).
  std::uint32_t tenant = 0;
};

/// An in-memory typed request — the wire-protocol path (src/net/):
/// decode `payload` by its kind, prioritize, and render the answer into
/// Reply::output in the same kind. Rescue dags (DONE jobs in text
/// payloads) are handled exactly as in file requests. No filesystem
/// access on the worker.
struct Request {
  Payload payload;
  /// Nonzero adopts this trace id for the request's span tree instead of
  /// allocating a fresh one — how a client-side trace id propagates
  /// across the wire into the server's TraceContext.
  std::uint64_t trace_id = 0;
  /// Tenant id carried by the wire frame (0 = default): selects the
  /// request's fair-queue lane when the service has a tenant registry.
  std::uint32_t tenant = 0;
  /// Remaining whole-request budget in seconds, measured from submit
  /// (0 = none). The wire deadline lands here after the server deducts
  /// the time the frame already spent in flight and parked. A request
  /// still queued when the budget runs out completes kExpired without
  /// computing; otherwise the leftover budget tightens the compute
  /// deadline (CancelToken), so a request can never overrun the budget
  /// by more than one cancellation poll.
  double deadline_s = 0.0;
};

/// Many independent dags submitted as ONE service request (the
/// kBatchRequest frame): one queue slot, one admission decision, one
/// Reply whose `items` carry the per-dag results in order. Items are
/// served serially on the worker that claimed the batch; the shared
/// budget is re-checked per item, so items past an expired deadline
/// complete kExpired instead of computing.
struct BatchRequest {
  std::vector<Payload> items;
  std::uint64_t trace_id = 0;
  std::uint32_t tenant = 0;
  double deadline_s = 0.0;
};

class PrioService {
 public:
  explicit PrioService(const ServiceConfig& config = {});

  PrioService(const PrioService&) = delete;
  PrioService& operator=(const PrioService&) = delete;

  /// Drains the queue and joins the workers.
  ~PrioService();

  /// Submits one in-memory dag. Under kBlock this may block; under
  /// kReject a full queue yields an already-satisfied kRejected future.
  std::future<Reply> submit(dag::Digraph g);

  /// Submits one DAGMan file request.
  std::future<Reply> submit(FileRequest request);

  /// Submits one typed payload request (the wire-protocol path).
  std::future<Reply> submit(Request request);

  /// Submits one batch of payloads as a single service request; the
  /// Reply's `items` carry the per-dag results in order.
  std::future<Reply> submit(BatchRequest request);

  /// Callback flavor of submit(Request) for event-driven callers (the
  /// net server, which cannot block on futures). `done` runs exactly once:
  /// on the worker thread that completed the request, or on the calling
  /// thread when a full queue rejects it under kReject. It must be cheap
  /// and must not throw — typically it hands the Reply to an event loop.
  void submitCallback(Request request, std::function<void(Reply)> done);

  /// Callback flavor of submit(BatchRequest).
  void submitCallback(BatchRequest request, std::function<void(Reply)> done);

  /// Batch submission, in order. Under kBlock the call blocks until the
  /// whole batch is enqueued; replies complete as workers finish.
  std::vector<std::future<Reply>> submitBatch(std::vector<dag::Digraph> dags);
  std::vector<std::future<Reply>> submitBatch(std::vector<FileRequest> files);

  /// Synchronous single-request path: same fingerprint/cache/compute
  /// pipeline the workers run, on the calling thread. The serial baseline
  /// in benches and the parity oracle in tests.
  Reply prioritizeNow(const dag::Digraph& g);

  /// Stops accepting work, drains pending requests, joins workers.
  /// Idempotent; called by the destructor.
  void shutdown();

  /// Records `n` retry resubmissions (called by prio_serve's backoff
  /// loop so retries land in the same metrics export).
  void noteRetries(std::uint64_t n) { metrics_.retries.add(n); }

  [[nodiscard]] const ServiceMetrics& metrics() const { return metrics_; }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  [[nodiscard]] std::size_t numThreads() const { return pool_.numThreads(); }
  [[nodiscard]] std::size_t queueHighWater() const {
    return pool_.queueHighWater();
  }
  [[nodiscard]] const ResultCache* cache() const { return cache_.get(); }
  /// The fair queue when configured with a tenant registry, else null —
  /// how the server reads per-tenant queue depths for GET /tenants.
  [[nodiscard]] const tenant::FairQueue* fairQueue() const {
    return fair_.get();
  }

  /// Metrics as a JSON object, queue high-water refreshed.
  void writeMetricsJson(std::ostream& out);

  /// The same snapshot in Prometheus text exposition format (the body
  /// behind `prio_serve --metrics-text`), queue high-water refreshed.
  void writePrometheusText(std::ostream& out);

 private:
  struct PendingReply;

  static std::size_t resolveThreads(std::size_t requested) {
    if (requested > 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  /// One per-request trace context when the service has a tracer, the
  /// disabled context otherwise. `adopt_id` nonzero reuses a caller-
  /// provided (wire-propagated) trace id instead of allocating fresh.
  [[nodiscard]] obs::TraceContext beginRequestTrace(
      std::uint64_t adopt_id = 0) const {
    if (config_.tracer == nullptr) return obs::TraceContext{};
    return adopt_id != 0 ? obs::TraceContext(config_.tracer, adopt_id)
                         : config_.tracer->beginTrace();
  }

  /// Fingerprint + cache lookup + compute-on-miss. Fills everything in
  /// `reply` except latency. Exceptions escape to the caller. `trace` is
  /// the request's span context (disabled when the service has no
  /// tracer). `budget_s` > 0 is the remaining whole-request budget; it
  /// tightens the configured compute deadline when smaller.
  void serveDigraph(const dag::Digraph& g, Reply& reply,
                    const obs::TraceContext& trace, double budget_s = 0.0);
  /// Full file pipeline (parse, serve, instrument, write).
  void serveFile(const FileRequest& request, Reply& reply,
                 const obs::TraceContext& trace);
  /// Full payload pipeline: response-memo probe, parse-cache probe,
  /// decode by kind, serve, render the output in the payload's kind.
  void servePayload(const Request& request, Reply& reply,
                    const obs::TraceContext& trace, double budget_s = 0.0);
  /// Serves every item of a batch serially on this worker, collecting
  /// per-item replies into reply.items.
  void serveBatch(const BatchRequest& request, Reply& reply,
                  const obs::TraceContext& trace, double budget_s = 0.0);

  /// Shared submission path: runs `request` on the pool and delivers the
  /// Reply through `complete` (worker thread, or the calling thread on
  /// rejection).
  template <typename RequestT>
  void enqueueWith(RequestT request, std::function<void(Reply)> complete);

  template <typename RequestT>
  std::future<Reply> enqueue(RequestT request);

  struct TextCache;
  struct ParseCache;

  ServiceConfig config_;
  ServiceMetrics metrics_;
  std::unique_ptr<ResultCache> cache_;  ///< null when caching disabled
  /// Serialized-response memo for payload requests; null when disabled.
  std::unique_ptr<TextCache> text_cache_;
  /// Payload-bytes → parsed-dag cache; null when disabled.
  std::unique_ptr<ParseCache> parse_cache_;
  /// Weighted-fair work queue; null without a tenant registry (the pool
  /// then owns a plain FIFO). Shared with pool_, which must outlive the
  /// workers popping from it.
  std::shared_ptr<tenant::FairQueue> fair_;
  util::ThreadPool pool_;  ///< last member: workers die first
};

}  // namespace prio::service
