// The server's admission decision with no sockets in it (the contract
// is DESIGN.md §11 "Backpressure mapping"). tryAdmit() claims a slot of
// the global gate (one CAS), then asks the borrowed tenant registry (one
// lock); a tenant denial hands the gate slot back, so only kAdmitted
// holds anything, and each kAdmitted pairs with exactly one release().
// Time is the caller's `now_s`, as in the registry, so tests drive quota
// refill without a clock. Thread-safe: every reactor shard shares one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "service/service.h"
#include "tenant/registry.h"

namespace prio::net {

class Admission {
 public:
  enum class Verdict {
    kAdmitted,     ///< gate slot and tenant in-flight slot taken
    kGateFull,     ///< every gate slot is held
    kQuota,        ///< tenant token bucket empty
    kInFlightCap,  ///< tenant max_in_flight reached
  };

  /// The gate holds `max_in_flight` slots (0 acts as 1). Under kBlock
  /// backpressure it is clamped to `service.queue_capacity`, so a
  /// dispatch never blocks a loop thread on a full service queue.
  /// `registry` must outlive this object.
  Admission(std::size_t max_in_flight, const service::ServiceConfig& service,
            tenant::TenantRegistry& registry);

  Admission(const Admission&) = delete;
  Admission& operator=(const Admission&) = delete;

  /// Gate, then tenant.
  [[nodiscard]] Verdict tryAdmit(std::uint32_t tenant, double now_s);

  /// Ends one admitted request: frees its gate slot and records the
  /// reply (outcome, cache hit, latency) to its tenant, which frees the
  /// tenant's in-flight slot.
  void release(std::uint32_t tenant, service::RequestStatus status,
               bool cache_hit, double latency_s);

  /// Requests holding a gate slot right now.
  [[nodiscard]] std::size_t inFlight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  /// Gate slots in total (the resolved, clamped max_in_flight).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// The kRejected reply text for a denial; nullptr for kAdmitted.
  [[nodiscard]] static const char* reason(Verdict verdict);

 private:
  std::size_t capacity_;
  std::atomic<std::size_t> in_flight_{0};
  tenant::TenantRegistry& registry_;
};

}  // namespace prio::net
