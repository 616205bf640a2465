// Seeded request sequences for the served-path benchmark.
//
// A workload is a fixed request sequence: the same (workload, seed)
// always yields the same payload bytes in the same order, so two builds
// of the server are fed identical traffic and every cache count repeats.
// Each distinct dag is kept as a Recipe (family + parameters + generator
// seed) rather than as a graph, so the output check can rebuild it
// cheaply after the timed window instead of holding thousands of graphs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "dag/digraph.h"
#include "net/protocol.h"

namespace servebench {

using prio::net::PayloadKind;

/// How a request relates to what was sent before it — which service
/// caches it can hit.
enum class Sighting : std::uint8_t {
  kNew,      ///< structure never sent before: every layer runs
  kRenamed,  ///< job-renamed copy of an earlier structure (result cache)
  kRepeat,   ///< byte-identical to an earlier payload (response memo)
};

enum class Family : std::uint8_t {
  kAirsnWidth,  ///< AIRSN shape with drawn width and handle length
  kLayered,     ///< workloads::layeredRandom
  kComposable,  ///< workloads::randomComposable
  kRandom,      ///< workloads::randomDag
  kAirsn,       ///< paper AIRSN, jittered around full scale
  kInspiral,
  kMontage,
  kSdss,
};

[[nodiscard]] const char* familyName(Family f);

/// Everything needed to rebuild one dag deterministically.
struct Recipe {
  Family family = Family::kRandom;
  std::uint64_t seed = 0;            ///< generator seed (random families)
  std::size_t p[4] = {0, 0, 0, 0};   ///< family parameters
  std::uint32_t rename = 0;          ///< nonzero: job names get "r<k>_"
};

[[nodiscard]] prio::dag::Digraph build(const Recipe& recipe);

/// The wire bytes of `g` in `kind`: DAGMan text (one JOB line per node in
/// id order, one PARENT/CHILD line per arc in adjacency order) or BDAG.
[[nodiscard]] std::string encodePayload(const prio::dag::Digraph& g,
                                        PayloadKind kind);

/// The reply a correct server sends for `payload`, computed in process
/// with core::prioritize on the same dag: instrumented DAGMan text for a
/// text payload, a BPRI table for a BDAG payload.
[[nodiscard]] std::string expectedReply(const Recipe& recipe,
                                        PayloadKind kind);

struct Payload {
  Recipe recipe;
  PayloadKind kind = PayloadKind::kDagmanText;
  std::string bytes;
  std::size_t jobs = 0;
};

struct Sequence {
  std::size_t connections = 1;
  /// Distinct payloads in first-sighting order.
  std::vector<Payload> payloads;
  /// Request i sends payloads[requests[i]].
  std::vector<std::uint32_t> requests;
  std::vector<Sighting> sightings;

  [[nodiscard]] std::size_t size() const { return requests.size(); }
  [[nodiscard]] const Payload& at(std::size_t i) const {
    return payloads[requests[i]];
  }
  /// FNV-1a over every request's kind and bytes, in order.
  [[nodiscard]] std::uint64_t hash() const;
};

/// Workload names this benchmark knows, in a fixed order.
[[nodiscard]] const std::vector<std::string>& workloadNames();
[[nodiscard]] bool knownWorkload(const std::string& name);

/// Connections the load generator keeps open for `workload`.
[[nodiscard]] std::size_t connectionsFor(const std::string& workload);

/// The first `count` requests of the workload's sequence for `seed`. A
/// shorter sequence is a prefix of a longer one for the same seed.
[[nodiscard]] Sequence makeSequence(const std::string& workload,
                                    std::uint64_t seed, std::size_t count);

/// The fixed warm-up pass of `workload`: distinct dags drawn from the
/// workload's generator on a stream of their own, independent of the
/// measurement seed. makeSequence() never emits a structure that the
/// warm-up pass contains.
[[nodiscard]] Sequence makeWarmup(const std::string& workload);

/// Runs fn(i) for i in [0, n) on up to four threads. Each call must write
/// only its own slot, so the result does not depend on scheduling. The
/// first exception a call throws is rethrown after every thread joined.
template <typename Fn>
void parallelFor(std::size_t n, Fn fn) {
  const std::size_t threads = std::min<std::size_t>(
      n, std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4));
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (std::size_t i = t; i < n; i += threads) fn(i);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace servebench
