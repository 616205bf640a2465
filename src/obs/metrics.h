// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// latency histograms behind one snapshot/export API.
//
// Design (DESIGN.md §10):
//   - Handles are pre-registered: counter()/gauge()/histogram() take the
//     registration mutex once and return a stable reference (instruments
//     live in deques, so later registrations never move them). The hot
//     path — Counter::add, Gauge::set, Histogram::record — is lock-free:
//     relaxed atomics only, safe from any thread.
//   - Reads go through snapshot(), taken under the registration mutex so
//     the instrument list is stable; the values themselves are monotonic
//     relaxed-atomic reads that may lag in-flight updates by one
//     operation, which is the same contract the old service-local
//     metrics had.
//   - Two exporters render the SAME snapshot: writeJson() (the flat
//     object embedded in prio_serve's metrics.json) and
//     writePrometheus() (the text exposition format behind
//     prio_serve --metrics-text).
//
// Instrument names use dotted lower_snake segments ("requests.submitted",
// "phase.reduce"); the Prometheus exporter maps them to
// prio_requests_submitted-style identifiers.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace prio::obs {

/// One relaxed-atomic counter (monotonically increasing).
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t get() const {
    return v_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> v_{0};
};

/// A settable value (queue depth, high-water marks, config echoes).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  /// set(max(current, v)) — lock-free high-water update.
  void setMax(std::uint64_t v) {
    std::uint64_t seen = v_.load(std::memory_order_relaxed);
    while (v > seen &&
           !v_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t get() const {
    return v_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> v_{0};
};

struct HistogramSnapshot;

/// Latency histogram with fixed power-of-two-microsecond buckets: bucket i
/// counts samples in [2^i, 2^(i+1)) us (bucket 0 absorbs sub-microsecond
/// samples, the last bucket everything above ~2100 s). The same scheme the
/// service's original per-phase histograms used, so quantile semantics are
/// unchanged by the registry migration.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double seconds) {
    const double us = seconds * 1e6;
    const std::uint64_t ticks = us < 1.0 ? 0 : static_cast<std::uint64_t>(us);
    std::size_t bucket = 0;
    while (bucket + 1 < kBuckets &&
           (std::uint64_t{1} << (bucket + 1)) <= ticks) {
      ++bucket;
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(ticks, std::memory_order_relaxed);
    // CAS max; relaxed is fine — the value is monotone.
    std::uint64_t seen = max_us_.load(std::memory_order_relaxed);
    while (ticks > seen &&
           !max_us_.compare_exchange_weak(seen, ticks,
                                          std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Point-in-time copy (relaxed reads; may lag a concurrent record()
  /// by one sample).
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::string name_;
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
  std::atomic<std::uint64_t> max_us_{0};
};

/// Point-in-time copy of one histogram, with derived statistics.
struct HistogramSnapshot {
  std::string name;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;
  std::uint64_t max_us = 0;

  [[nodiscard]] double meanSeconds() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_us) /
                            (1e6 * static_cast<double>(count));
  }
  [[nodiscard]] double maxSeconds() const {
    return static_cast<double>(max_us) / 1e6;
  }
  /// Upper bound of the bucket containing the q-quantile (q in [0,1]),
  /// in seconds. 0 when empty.
  [[nodiscard]] double quantileSeconds(double q) const;
  /// Upper bound of bucket i in seconds (2^(i+1) us).
  [[nodiscard]] static double bucketUpperSeconds(std::size_t i) {
    return static_cast<double>(std::uint64_t{1} << (i + 1)) / 1e6;
  }
};

/// Point-in-time copy of every instrument in a registry, in registration
/// order. Both exporters (JSON, Prometheus) render from this one type.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Counter value by exact name (0 when absent) — convenience for
  /// derived statistics like cache-hit rates.
  [[nodiscard]] std::uint64_t counterValue(std::string_view name) const;

  /// Flat JSON object: counters and gauges as "name":value, histograms as
  /// "name":{"count":..,"mean_s":..,"p50_s":..,"p99_s":..,"max_s":..}.
  void writeJson(std::ostream& out) const;
  /// Prometheus text exposition format. Every name is prefixed with
  /// `prefix` (default "prio_") and non-[a-zA-Z0-9_] characters become
  /// '_'. Histograms emit cumulative _bucket{le=...}/_sum/_count series.
  void writePrometheus(std::ostream& out,
                       std::string_view prefix = "prio_") const;
};

/// A named family of instruments. Thread-safe; instruments are owned by
/// the registry and live as long as it does.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide default registry (CLIs, one-off tools). Components
  /// that need isolated metrics — each PrioService instance, unit tests —
  /// own their own Registry instead.
  static Registry& global();

  /// Registers (or returns the existing) instrument with this name.
  /// References are stable for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Consistent point-in-time copy of all instruments (registration
  /// order). Values are relaxed reads — they may lag concurrent updates
  /// by one operation, never more.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

}  // namespace prio::obs
