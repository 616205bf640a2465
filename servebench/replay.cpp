#include "replay.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/prio.h"
#include "dag/algorithms.h"
#include "dag/csr.h"
#include "dag/fingerprint.h"
#include "dagman/dagman_file.h"
#include "dagman/instrument.h"
#include "net/protocol.h"
#include "service/cache.h"
#include "service/service.h"
#include "stats/summary.h"
#include "util/check.h"

namespace servebench {

namespace pd = prio::dag;
namespace pn = prio::net;
namespace ps = prio::service;
using prio::obs::Span;
using prio::obs::TraceContext;
using Clock = std::chrono::steady_clock;

namespace {

// The service's routing hash of a payload: FNV-1a over the kind byte,
// then the bytes.
std::uint64_t payloadKey(const pn::Frame& frame) {
  std::uint64_t h = 1469598103934665603ULL;
  h ^= static_cast<unsigned char>(frame.payload_kind);
  h *= 1099511628211ULL;
  for (const unsigned char c : frame.payload) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// A byte-keyed LRU split into shards by key modulo the shard count, each
// holding capacity / shards entries: the shape of the service's response
// memo (one shard) and parse cache. The stored payload decides a hit, so
// a key collision is a miss that the insert then overwrites.
template <typename Value>
class PayloadLru {
 public:
  PayloadLru(std::size_t capacity, std::size_t shards)
      : shards_(std::max<std::size_t>(shards, 1)),
        per_shard_(std::max<std::size_t>(capacity / shards_.size(), 1)) {}

  const Value* find(std::uint64_t key, const pn::Frame& frame) {
    Shard& shard = shardOf(key);
    const auto it = shard.map.find(key);
    if (it == shard.map.end() || it->second.kind != frame.payload_kind ||
        it->second.bytes != frame.payload) {
      return nullptr;
    }
    shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_it);
    return &it->second.value;
  }

  void insert(std::uint64_t key, const pn::Frame& frame, Value value) {
    Shard& shard = shardOf(key);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_it);
    } else {
      if (shard.map.size() >= per_shard_) {
        shard.map.erase(shard.lru.front());
        shard.lru.pop_front();
      }
      it = shard.map.emplace(key, Entry{}).first;
      it->second.lru_it = shard.lru.insert(shard.lru.end(), key);
    }
    it->second.kind = frame.payload_kind;
    it->second.bytes = frame.payload;
    it->second.value = std::move(value);
  }

 private:
  struct Entry {
    pn::PayloadKind kind = pn::PayloadKind::kDagmanText;
    std::string bytes;
    Value value;
    std::list<std::uint64_t>::iterator lru_it;
  };
  struct Shard {
    std::unordered_map<std::uint64_t, Entry> map;
    std::list<std::uint64_t> lru;  ///< front = coldest
  };

  Shard& shardOf(std::uint64_t key) {
    return shards_[static_cast<std::size_t>(key % shards_.size())];
  }

  std::vector<Shard> shards_;
  std::size_t per_shard_;
};

// A decoded payload, shared between the parse cache and the request.
struct Parsed {
  prio::dagman::DagmanFile file;  ///< empty for BDAG payloads
  pd::Digraph g;
};

// The service's caches at the sizes of a default ServiceConfig.
struct Caches {
  explicit Caches(const ps::ServiceConfig& c)
      : memo(c.text_cache_capacity, 1),
        parsed(c.parse_cache_capacity, c.parse_cache_shards),
        results(c.cache_capacity, c.cache_shards) {}

  PayloadLru<std::string> memo;
  PayloadLru<std::shared_ptr<const Parsed>> parsed;
  ps::ResultCache results;
};

// One frame across one hop: encoded by the sender into `wire`, decoded
// by the peer into `out`. Frames are reused across requests, as a
// connection's buffers are.
void hop(const TraceContext& ctx, const pn::Frame& frame, std::string& wire,
         pn::FrameDecoder& decoder, pn::Frame& out) {
  {
    Span span(ctx, "net.encode");
    wire.clear();
    pn::encodeFrame(frame, wire);
  }
  Span span(ctx, "net.decode");
  decoder.feed(wire.data(), wire.size());
  PRIO_CHECK(decoder.next(out) == pn::FrameDecoder::Result::kFrame);
}

// The reply the service renders for a payload its memo missed.
std::string serveUncached(const TraceContext& ctx, const pn::Frame& frame,
                          std::uint64_t key, Caches& caches, Replay& stats) {
  const bool text = frame.payload_kind == pn::PayloadKind::kDagmanText;
  std::shared_ptr<const Parsed> parsed;
  {
    Span span(ctx, "service.parse_cache");
    if (const auto* hit = caches.parsed.find(key, frame)) parsed = *hit;
  }
  if (parsed != nullptr) {
    ++stats.parse_cache_hits;
  } else {
    auto fresh = std::make_shared<Parsed>();
    if (text) {
      Span span(ctx, "dagman.parse");
      std::istringstream in(frame.payload);
      fresh->file = prio::dagman::DagmanFile::parse(in);
      fresh->g = fresh->file.toDigraph();
    } else {
      Span span(ctx, "dag.decode");
      fresh->g = pd::decodeBinaryDag(frame.payload);
    }
    parsed = std::move(fresh);
    Span span(ctx, "service.parse_cache");
    caches.parsed.insert(key, frame, parsed);
  }

  // What the request holds while it is served beyond the shared parse;
  // freeing it is the service.release layer.
  struct Working {
    pd::Digraph reduced;
    prio::dagman::DagmanFile file;
  };
  auto w = std::make_unique<Working>();
  {
    Span span(ctx, "dag.reduce");
    w->reduced = pd::transitiveReduction(parsed->g);
  }
  std::uint64_t fingerprint = 0;
  std::uint64_t layout = 0;
  {
    Span span(ctx, "dag.fingerprint");
    fingerprint = pd::structuralFingerprintOfReduced(w->reduced);
    layout = pd::layoutHash(parsed->g);
  }
  ps::CachedResult result;
  {
    Span span(ctx, "service.result_cache");
    result = caches.results.find(fingerprint, layout).result;
  }
  if (result != nullptr) {
    ++stats.result_cache_hits;
  } else {
    {
      Span span(ctx, "core.prioritize");
      prio::core::PrioRequest request(parsed->g);
      request.reduced = &w->reduced;
      request.options.trace = span.context();
      result = std::make_shared<const prio::core::PrioResult>(
          prio::core::prioritize(request));
    }
    Span span(ctx, "service.result_cache");
    caches.results.insert(fingerprint, layout, result);
  }
  std::string reply;
  if (text) {
    // The parsed file is shared; the service instruments a copy.
    Span span(ctx, "dagman.render");
    w->file = parsed->file;
    prio::dagman::instrumentDagmanFile(w->file, result->priority);
    std::ostringstream out;
    w->file.write(out);
    reply = std::move(out).str();
  } else {
    Span span(ctx, "dag.encode_prio");
    reply = pd::encodeBinaryPriorities(result->priority);
  }
  Span span(ctx, "service.release");
  w.reset();
  parsed.reset();
  result.reset();
  return reply;
}

}  // namespace

Replay replay(const Sequence& seq, prio::obs::Tracer* tracer) {
  Caches caches{ps::ServiceConfig{}};
  Replay stats;
  pn::FrameDecoder server_decoder;
  pn::FrameDecoder client_decoder;
  std::string wire;
  pn::Frame request, received, response, answer;
  request.version = response.version = pn::kVersion3;
  response.type = pn::FrameType::kResponse;

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < seq.size(); ++i) {
    // One trace per request; its layer spans are the trace's roots.
    const TraceContext ctx =
        tracer == nullptr ? TraceContext() : tracer->beginTrace();
    {
      Span span(ctx, "net.encode");  // the copy into the frame is the client's
      request.request_id = i + 1;
      request.payload_kind = seq.at(i).kind;
      request.payload = seq.at(i).bytes;
    }
    hop(ctx, request, wire, server_decoder, received);

    std::uint64_t key = 0;
    const std::string* memoized = nullptr;
    {
      Span span(ctx, "service.memo");
      key = payloadKey(received);
      memoized = caches.memo.find(key, received);
      if (memoized != nullptr) response.payload = *memoized;
    }
    if (memoized != nullptr) {
      ++stats.memo_hits;
    } else {
      response.payload = serveUncached(ctx, received, key, caches, stats);
      Span span(ctx, "service.memo");
      caches.memo.insert(key, received, response.payload);
    }
    response.request_id = received.request_id;
    response.payload_kind = received.payload_kind;
    hop(ctx, response, wire, client_decoder, answer);
    PRIO_CHECK(answer.request_id == i + 1);
  }
  stats.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return stats;
}

ServiceReplay serviceReplay(const Sequence& seq, std::size_t threads) {
  struct Done {
    std::size_t request;
    Clock::time_point at;
    ps::RequestStatus status;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Done> done;
  // Declared after what its callbacks touch, so its destructor joins the
  // workers before any of it goes away.
  ps::ServiceConfig config;
  config.num_threads = threads;
  ps::PrioService service(config);

  std::vector<Clock::time_point> sent(seq.size());
  std::vector<double> latency;
  latency.reserve(seq.size());
  ServiceReplay out;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  auto submit = [&] {
    if (next >= seq.size()) return;
    const std::size_t i = next++;
    ps::Request request;
    request.payload.kind = static_cast<ps::PayloadKind>(seq.at(i).kind);
    request.payload.bytes = seq.at(i).bytes;
    ++outstanding;
    sent[i] = Clock::now();
    service.submitCallback(std::move(request), [&, i](ps::Reply r) {
      const Clock::time_point now = Clock::now();
      const std::lock_guard<std::mutex> lock(mutex);
      done.push_back({i, now, r.status});
      cv.notify_one();
    });
  };
  for (std::size_t c = 0; c < seq.connections; ++c) submit();
  std::vector<Done> batch;
  while (outstanding > 0) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return !done.empty(); });
      batch.swap(done);
    }
    for (const Done& d : batch) {
      latency.push_back(std::chrono::duration<double>(d.at - sent[d.request]).count());
      if (d.status != ps::RequestStatus::kOk) ++out.failed;
      --outstanding;
      submit();
    }
    batch.clear();
  }
  out.latency_p50_s = prio::stats::median(latency);
  out.queue_high_water = service.queueHighWater();
  return out;
}

}  // namespace servebench
