// In-process replays of a request sequence, for the per-layer numbers.
//
// replay() walks the sequence on one thread through the public function
// of each module that the served path calls — frame encode/decode, DAGMan
// parse or BDAG decode, reduction, fingerprint, prioritize, render — and
// wraps each call in a span recorded by this benchmark. The service's
// three caches are modelled at the sizes of a default ServiceConfig, as
// priod_server runs them: the response memo and the parse cache as LRUs
// keyed by payload bytes and split into shards as the service splits
// them, the result cache as the service's own ResultCache. So a request
// does the work the server does for it.
//
// serviceReplay() feeds the same sequence to an in-process PrioService at
// the workload's concurrency, which isolates the service's own latency
// from the network's.
#pragma once

#include <cstddef>

#include "obs/trace.h"
#include "workloads.h"

namespace servebench {

/// Span names of the layers replay() records, one per module call. The
/// core.prioritize span also parents the library's own prio.* spans.
inline constexpr const char* kLayerSpans[] = {
    "net.encode",      "net.decode",      "service.memo",
    "service.parse_cache", "dagman.parse", "dag.decode",
    "dag.reduce",      "dag.fingerprint", "service.result_cache",
    "core.prioritize", "dagman.render",   "dag.encode_prio",
    "service.release",
};

struct Replay {
  double seconds = 0.0;  ///< wall time of the whole replay
  std::size_t memo_hits = 0;
  std::size_t parse_cache_hits = 0;   ///< among memo misses
  std::size_t result_cache_hits = 0;  ///< among memo misses
};

/// Replays every request of `seq` with empty caches. With a null tracer
/// every span is disabled (the untraced reference).
Replay replay(const Sequence& seq, prio::obs::Tracer* tracer);

struct ServiceReplay {
  double latency_p50_s = 0.0;
  std::size_t queue_high_water = 0;
  std::size_t failed = 0;  ///< replies that were not kOk
};

/// Submits `seq` to a PrioService with `threads` workers, keeping
/// seq.connections requests outstanding from one driver thread.
ServiceReplay serviceReplay(const Sequence& seq, std::size_t threads);

}  // namespace servebench
