#include "tenant/registry.h"

#include <algorithm>
#include <iomanip>
#include <utility>

namespace prio::tenant {

namespace {

std::string displayName(std::uint32_t id, const TenantConfig& config) {
  if (!config.name.empty()) return config.name;
  if (id == kDefaultTenantId) return "default";
  return "tenant-" + std::to_string(id);
}

void jsonEscape(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u00" << std::hex << std::setw(2) << std::setfill('0')
              << static_cast<int>(static_cast<unsigned char>(c)) << std::dec
              << std::setfill(' ');
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

/// Prometheus label values escape backslash, double-quote, and newline.
void promLabelEscape(std::ostream& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '\\': out << "\\\\"; break;
      case '"': out << "\\\""; break;
      case '\n': out << "\\n"; break;
      default: out << c;
    }
  }
}

}  // namespace

TenantRegistry::TenantRegistry(TenantConfig defaults)
    : defaults_(std::move(defaults)) {
  // The default tenant always exists: v1 frames and untagged requests
  // land here, and introspection surfaces never render an empty table.
  std::lock_guard<std::mutex> lock(mutex_);
  ensureLocked(kDefaultTenantId);
}

double TenantRegistry::burstOf(const TenantConfig& config) const {
  if (config.burst > 0.0) return config.burst;
  return std::max(1.0, config.rate_per_s);
}

TenantRegistry::State& TenantRegistry::ensureLocked(std::uint32_t id) const {
  const auto [it, inserted] = tenants_.try_emplace(id);
  State& state = it->second;
  if (inserted) {
    state.config = defaults_;
    state.tokens = burstOf(state.config);  // a fresh tenant starts with a
                                           // full bucket
  }
  return state;
}

void TenantRegistry::configure(std::uint32_t id, TenantConfig config) {
  std::lock_guard<std::mutex> lock(mutex_);
  State& state = ensureLocked(id);
  state.config = std::move(config);
  state.tokens = burstOf(state.config);
  state.refilled_once = false;
}

std::uint32_t TenantRegistry::weight(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const State& state = ensureLocked(id);
  return std::max<std::uint32_t>(1, state.config.weight);
}

std::size_t TenantRegistry::numTenants() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tenants_.size();
}

Admission TenantRegistry::tryAdmit(std::uint32_t id, double now_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  State& state = ensureLocked(id);

  if (state.config.rate_per_s > 0.0) {
    // Lazy refill against the caller's clock. The first call anchors the
    // epoch so the bucket never over-credits for time before traffic.
    if (!state.refilled_once) {
      state.last_refill_s = now_s;
      state.refilled_once = true;
    } else if (now_s > state.last_refill_s) {
      state.tokens =
          std::min(burstOf(state.config),
                   state.tokens + (now_s - state.last_refill_s) *
                                      state.config.rate_per_s);
      state.last_refill_s = now_s;
    }
  }

  // The in-flight cap is checked before the bucket so a capped tenant
  // does not burn tokens on requests that cannot start anyway.
  if (state.config.max_in_flight > 0 &&
      state.in_flight >= state.config.max_in_flight) {
    return Admission::kInFlightCap;
  }
  if (state.config.rate_per_s > 0.0) {
    if (state.tokens < 1.0) return Admission::kQuota;
    state.tokens -= 1.0;
  }
  ++state.in_flight;
  ++state.admitted;
  return Admission::kAdmit;
}

void TenantRegistry::recordRejected(std::uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++ensureLocked(id).rejected;
}

void TenantRegistry::recordExpired(std::uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++ensureLocked(id).expired;
}

void TenantRegistry::recordReply(std::uint32_t id, Outcome outcome,
                                 bool cache_hit, double latency_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  State& state = ensureLocked(id);
  if (state.in_flight > 0) --state.in_flight;
  switch (outcome) {
    case Outcome::kOk:
      ++state.completed;
      if (cache_hit) {
        ++state.cache_hits;
      } else {
        ++state.cache_misses;
      }
      break;
    case Outcome::kDegraded:
      ++state.completed;
      ++state.degraded;
      ++state.cache_misses;  // a degraded run always computed
      break;
    case Outcome::kRejected: ++state.rejected; break;
    case Outcome::kShed: ++state.shed; break;
    case Outcome::kFailed: ++state.failed; break;
    case Outcome::kExpired: ++state.expired; break;
  }
  state.latency.record(latency_s);
}

std::vector<TenantSnapshot> TenantRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TenantSnapshot> out;
  out.reserve(tenants_.size());
  for (const auto& [id, state] : tenants_) {
    TenantSnapshot s;
    s.id = id;
    s.name = displayName(id, state.config);
    s.weight = std::max<std::uint32_t>(1, state.config.weight);
    s.rate_per_s = state.config.rate_per_s;
    s.burst = state.config.rate_per_s > 0.0 ? burstOf(state.config) : 0.0;
    s.max_in_flight = state.config.max_in_flight;
    s.tokens = state.config.rate_per_s > 0.0 ? state.tokens : 0.0;
    s.admitted = state.admitted;
    s.rejected = state.rejected;
    s.shed = state.shed;
    s.expired = state.expired;
    s.completed = state.completed;
    s.degraded = state.degraded;
    s.failed = state.failed;
    s.cache_hits = state.cache_hits;
    s.cache_misses = state.cache_misses;
    s.in_flight = state.in_flight;
    s.latency = state.latency.snapshot();
    out.push_back(std::move(s));
  }
  return out;
}

void writeTenantsJson(std::ostream& out,
                      const std::vector<TenantSnapshot>& tenants) {
  out << "{\"tenants\":[";
  bool first = true;
  for (const TenantSnapshot& t : tenants) {
    if (!first) out << ',';
    first = false;
    out << "{\"id\":" << t.id << ",\"name\":";
    jsonEscape(out, t.name);
    out << ",\"weight\":" << t.weight << ",\"rate_per_s\":" << t.rate_per_s
        << ",\"burst\":" << t.burst << ",\"max_in_flight\":" << t.max_in_flight
        << ",\"tokens\":" << t.tokens << ",\"queued\":" << t.queued
        << ",\"in_flight\":" << t.in_flight << ",\"admitted\":" << t.admitted
        << ",\"rejected\":" << t.rejected << ",\"shed\":" << t.shed
        << ",\"expired\":" << t.expired
        << ",\"completed\":" << t.completed << ",\"degraded\":" << t.degraded
        << ",\"failed\":" << t.failed << ",\"cache_hits\":" << t.cache_hits
        << ",\"cache_misses\":" << t.cache_misses
        << ",\"cache_hit_rate\":" << t.cacheHitRate()
        << ",\"latency_count\":" << t.latency.count
        << ",\"latency_mean_s\":" << t.latency.meanSeconds()
        << ",\"latency_p50_s\":" << t.latency.quantileSeconds(0.50)
        << ",\"latency_p99_s\":" << t.latency.quantileSeconds(0.99)
        << ",\"latency_max_s\":" << t.latency.maxSeconds() << "}";
  }
  out << "]}";
}

void writeTenantsPrometheus(std::ostream& out,
                            const std::vector<TenantSnapshot>& tenants) {
  struct Family {
    const char* name;
    const char* type;
    const char* help;
    double (*value)(const TenantSnapshot&);
  };
  static constexpr Family kFamilies[] = {
      {"prio_tenant_weight", "gauge", "DRR service share",
       [](const TenantSnapshot& t) { return static_cast<double>(t.weight); }},
      {"prio_tenant_queued", "gauge", "tasks waiting in the fair queue",
       [](const TenantSnapshot& t) { return static_cast<double>(t.queued); }},
      {"prio_tenant_in_flight", "gauge", "admitted requests not yet answered",
       [](const TenantSnapshot& t) {
         return static_cast<double>(t.in_flight);
       }},
      {"prio_tenant_admitted_total", "counter", "requests past admission",
       [](const TenantSnapshot& t) {
         return static_cast<double>(t.admitted);
       }},
      {"prio_tenant_rejected_total", "counter",
       "requests denied by gate or quota",
       [](const TenantSnapshot& t) {
         return static_cast<double>(t.rejected);
       }},
      {"prio_tenant_shed_total", "counter", "queue-deadline sheds",
       [](const TenantSnapshot& t) { return static_cast<double>(t.shed); }},
      {"prio_tenant_expired_total", "counter",
       "wire deadlines spent before compute",
       [](const TenantSnapshot& t) {
         return static_cast<double>(t.expired);
       }},
      {"prio_tenant_completed_total", "counter", "kOk and kDegraded replies",
       [](const TenantSnapshot& t) {
         return static_cast<double>(t.completed);
       }},
      {"prio_tenant_degraded_total", "counter", "deadline-degraded replies",
       [](const TenantSnapshot& t) {
         return static_cast<double>(t.degraded);
       }},
      {"prio_tenant_failed_total", "counter", "failed replies",
       [](const TenantSnapshot& t) { return static_cast<double>(t.failed); }},
      {"prio_tenant_cache_hits_total", "counter", "result-cache hits",
       [](const TenantSnapshot& t) {
         return static_cast<double>(t.cache_hits);
       }},
      {"prio_tenant_cache_misses_total", "counter", "result-cache misses",
       [](const TenantSnapshot& t) {
         return static_cast<double>(t.cache_misses);
       }},
      {"prio_tenant_latency_p50_seconds", "gauge", "median request latency",
       [](const TenantSnapshot& t) { return t.latency.quantileSeconds(0.50); }},
      {"prio_tenant_latency_p99_seconds", "gauge", "p99 request latency",
       [](const TenantSnapshot& t) { return t.latency.quantileSeconds(0.99); }},
  };
  for (const Family& family : kFamilies) {
    out << "# HELP " << family.name << " " << family.help << "\n";
    out << "# TYPE " << family.name << " " << family.type << "\n";
    for (const TenantSnapshot& t : tenants) {
      out << family.name << "{tenant=\"" << t.id << "\",tenant_name=\"";
      promLabelEscape(out, t.name);
      out << "\"} " << family.value(t) << "\n";
    }
  }
}

}  // namespace prio::tenant
