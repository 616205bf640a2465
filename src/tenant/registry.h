// The tenant table behind multi-tenant serving (DESIGN.md §12).
//
// A tenant is whoever a request is billed to: every wire-protocol v2
// frame carries a u32 tenant id (v1 frames map to tenant 0, "default"),
// and the registry keys per-tenant policy and accounting off that id:
//
//   policy   — DRR weight (the tenant's share of worker time, read by
//              tenant::FairQueue), a token-bucket admission quota
//              (rate_per_s + burst; 0 = unmetered), and a max-in-flight
//              cap (0 = unlimited). Admission maps onto the server's
//              existing gate: a denied request is answered kRejected
//              under kReject backpressure or parked under kBlock.
//   stats    — admitted / rejected / shed / completed / degraded /
//              failed counters, cache hits and misses, in-flight and
//              queued depths, and an obs::Histogram of reply latency, so
//              p50/p99 semantics match the service-wide families.
//
// Unknown tenant ids self-register with the default config on first
// touch — operators opt INTO limits per tenant; an unconfigured tenant is
// simply accounted, never dropped. snapshot() feeds both the GET /tenants
// JSON document and the prio_tenant_* Prometheus families.
//
// Time is caller-supplied (monotonic seconds) so the token bucket is
// deterministic under test. One mutex over an ordered map is deliberate:
// admission runs once per request on the server's loop thread, far off
// any per-sample hot path, and the ordering gives stable JSON output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace prio::tenant {

inline constexpr std::uint32_t kDefaultTenantId = 0;

/// Per-tenant policy. The zero-value of every limit means "none".
struct TenantConfig {
  /// Display name; empty derives "default" (id 0) or "tenant-<id>".
  std::string name;
  /// Deficit-round-robin service share relative to other tenants with
  /// queued work (FairQueue serves `weight` tasks per round). 0 acts as 1.
  std::uint32_t weight = 1;
  /// Token-bucket refill rate in requests/second (0 = unmetered).
  double rate_per_s = 0.0;
  /// Bucket depth in requests; 0 derives max(1, rate_per_s). Admitting a
  /// request costs one token, so burst bounds how far a tenant can run
  /// ahead of its sustained rate.
  double burst = 0.0;
  /// Concurrent admitted-but-unanswered requests (0 = unlimited).
  std::size_t max_in_flight = 0;
};

/// tryAdmit() verdict.
enum class Admission {
  kAdmit,        ///< admitted; in-flight slot taken, one token consumed
  kQuota,        ///< token bucket empty — retry after refill
  kInFlightCap,  ///< max_in_flight reached — retry after a completion
};

/// How a request left the service — the tenant-level mirror of
/// service::RequestStatus, kept wire-independent so src/tenant/ stays
/// below src/service/ in the layering.
enum class Outcome {
  kOk,
  kDegraded,
  kRejected,
  kShed,
  kFailed,
  kExpired,  ///< wire deadline spent before compute could start
};

/// Point-in-time copy of one tenant's config and accounting. `queued` is
/// filled by the caller that owns the fair queue (the registry does not
/// see queue contents).
struct TenantSnapshot {
  std::uint32_t id = 0;
  std::string name;
  std::uint32_t weight = 1;
  double rate_per_s = 0.0;
  double burst = 0.0;
  std::size_t max_in_flight = 0;
  double tokens = 0.0;  ///< current bucket level (0 when unmetered)

  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;  ///< wire deadlines spent before compute
  std::uint64_t completed = 0;  ///< kOk + kDegraded replies
  std::uint64_t degraded = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t in_flight = 0;
  std::size_t queued = 0;

  obs::HistogramSnapshot latency;

  [[nodiscard]] double cacheHitRate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
};

class TenantRegistry {
 public:
  /// `defaults` applies to every tenant not explicitly configure()d —
  /// including the pre-registered default tenant 0.
  explicit TenantRegistry(TenantConfig defaults = {});

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Installs (or replaces) one tenant's policy. Counters survive
  /// reconfiguration; the token bucket refills to the new burst.
  void configure(std::uint32_t id, TenantConfig config);

  /// The tenant's DRR weight (>= 1), self-registering unknown ids. Called
  /// by FairQueue when a lane activates.
  [[nodiscard]] std::uint32_t weight(std::uint32_t id) const;

  [[nodiscard]] std::size_t numTenants() const;

  /// Admission check at `now_s` (monotonic seconds, any fixed epoch).
  /// kAdmit consumes one token and takes an in-flight slot; the caller
  /// MUST pair it with exactly one recordReply(). Denials consume
  /// nothing, so a parked request can retry for free.
  Admission tryAdmit(std::uint32_t id, double now_s);

  /// Accounts a request denied before admission (gate or quota under the
  /// kReject policy). No in-flight slot is held.
  void recordRejected(std::uint32_t id);

  /// Accounts a request whose wire deadline was already spent when the
  /// server looked at it — shed before admission, so no in-flight slot
  /// is held and no token was consumed.
  void recordExpired(std::uint32_t id);

  /// Accounts one reply for an admitted request: releases the in-flight
  /// slot, buckets the outcome, and records latency. `cache_hit` only
  /// meaningful for kOk.
  void recordReply(std::uint32_t id, Outcome outcome, bool cache_hit,
                   double latency_s);

  /// Every tenant, ascending by id (stable JSON/Prometheus output).
  [[nodiscard]] std::vector<TenantSnapshot> snapshot() const;

 private:
  struct State {
    TenantConfig config;
    double tokens = 0.0;
    double last_refill_s = 0.0;
    bool refilled_once = false;  ///< first tryAdmit anchors the clock

    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t completed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t failed = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::size_t in_flight = 0;

    obs::Histogram latency{"tenant.latency"};
  };

  State& ensureLocked(std::uint32_t id) const;
  [[nodiscard]] double burstOf(const TenantConfig& config) const;

  TenantConfig defaults_;
  mutable std::mutex mutex_;
  mutable std::map<std::uint32_t, State> tenants_;
};

/// Renders the GET /tenants document: {"tenants":[{...}, ...]} with one
/// object per snapshot (schema: scripts/bench_check.py --schema
/// tenants-json).
void writeTenantsJson(std::ostream& out,
                      const std::vector<TenantSnapshot>& tenants);

/// The prio_tenant_* Prometheus families, one {tenant="<id>"} labelled
/// sample per tenant per family. Latency is exported as p50/p99/mean
/// gauges rather than labelled histogram series, which keeps the
/// /metrics page within the flat families the existing validator checks.
void writeTenantsPrometheus(std::ostream& out,
                            const std::vector<TenantSnapshot>& tenants);

}  // namespace prio::tenant
