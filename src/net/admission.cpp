#include "net/admission.h"

namespace prio::net {

namespace {

std::size_t gateCapacity(std::size_t max_in_flight,
                         const service::ServiceConfig& service) {
  const std::size_t cap = max_in_flight == 0 ? 1 : max_in_flight;
  if (service.backpressure == service::BackpressurePolicy::kBlock &&
      cap > service.queue_capacity) {
    return service.queue_capacity;
  }
  return cap;
}

tenant::Outcome toTenantOutcome(service::RequestStatus s) {
  switch (s) {
    case service::RequestStatus::kOk: return tenant::Outcome::kOk;
    case service::RequestStatus::kDegraded: return tenant::Outcome::kDegraded;
    case service::RequestStatus::kRejected: return tenant::Outcome::kRejected;
    case service::RequestStatus::kShed: return tenant::Outcome::kShed;
    case service::RequestStatus::kFailed: return tenant::Outcome::kFailed;
    case service::RequestStatus::kExpired: return tenant::Outcome::kExpired;
  }
  return tenant::Outcome::kFailed;
}

}  // namespace

Admission::Admission(std::size_t max_in_flight,
                     const service::ServiceConfig& service,
                     tenant::TenantRegistry& registry)
    : capacity_(gateCapacity(max_in_flight, service)), registry_(registry) {}

Admission::Verdict Admission::tryAdmit(std::uint32_t tenant, double now_s) {
  std::size_t cur = in_flight_.load(std::memory_order_relaxed);
  do {
    if (cur >= capacity_) return Verdict::kGateFull;
  } while (!in_flight_.compare_exchange_weak(cur, cur + 1,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed));
  const tenant::Admission stage = registry_.tryAdmit(tenant, now_s);
  if (stage == tenant::Admission::kAdmit) return Verdict::kAdmitted;
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  return stage == tenant::Admission::kQuota ? Verdict::kQuota
                                            : Verdict::kInFlightCap;
}

void Admission::release(std::uint32_t tenant, service::RequestStatus status,
                        bool cache_hit, double latency_s) {
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  registry_.recordReply(tenant, toTenantOutcome(status), cache_hit, latency_s);
}

const char* Admission::reason(Verdict verdict) {
  switch (verdict) {
    case Verdict::kAdmitted: return nullptr;
    case Verdict::kGateFull: return "admission gate full";
    case Verdict::kQuota: return "tenant quota exceeded";
    case Verdict::kInFlightCap: return "tenant in-flight cap reached";
  }
  return nullptr;
}

}  // namespace prio::net
