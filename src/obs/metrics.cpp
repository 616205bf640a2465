#include "obs/metrics.h"

#include <algorithm>

namespace prio::obs {

namespace {

/// Prometheus metric identifiers: [a-zA-Z_][a-zA-Z0-9_]*. Dots and every
/// other separator collapse to '_'.
std::string promName(std::string_view prefix, std::string_view name) {
  std::string out;
  out.reserve(prefix.size() + name.size());
  out.append(prefix);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

double HistogramSnapshot::quantileSeconds(double q) const {
  if (count == 0) return 0.0;
  const std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) return bucketUpperSeconds(b);
  }
  return maxSeconds();
}

std::uint64_t Snapshot::counterValue(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

void Snapshot::writeJson(std::ostream& out) const {
  out << "{";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
  };
  for (const auto& [name, value] : counters) {
    sep();
    out << "\"" << name << "\":" << value;
  }
  for (const auto& [name, value] : gauges) {
    sep();
    out << "\"" << name << "\":" << value;
  }
  for (const HistogramSnapshot& h : histograms) {
    sep();
    out << "\"" << h.name << "\":{\"count\":" << h.count
        << ",\"mean_s\":" << h.meanSeconds()
        << ",\"p50_s\":" << h.quantileSeconds(0.50)
        << ",\"p99_s\":" << h.quantileSeconds(0.99)
        << ",\"max_s\":" << h.maxSeconds() << "}";
  }
  out << "}";
}

void Snapshot::writePrometheus(std::ostream& out,
                               std::string_view prefix) const {
  for (const auto& [name, value] : counters) {
    const std::string id = promName(prefix, name);
    out << "# TYPE " << id << " counter\n" << id << " " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    const std::string id = promName(prefix, name);
    out << "# TYPE " << id << " gauge\n" << id << " " << value << "\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    const std::string id = promName(prefix, h.name) + "_seconds";
    out << "# TYPE " << id << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      cumulative += h.buckets[b];
      // Empty tail buckets add nothing a reader needs; always emit the
      // first bucket and every bucket up to the last non-empty one so
      // the series stays short on sparse histograms.
      if (cumulative == h.count && b + 1 < Histogram::kBuckets &&
          h.buckets[b] == 0 && b > 0) {
        continue;
      }
      out << id << "_bucket{le=\"" << HistogramSnapshot::bucketUpperSeconds(b)
          << "\"} " << cumulative << "\n";
    }
    out << id << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    out << id << "_sum " << static_cast<double>(h.sum_us) / 1e6 << "\n";
    out << id << "_count " << h.count << "\n";
  }
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Counter& c : counters_) {
    if (c.name() == name) return c;
  }
  return counters_.emplace_back(std::string(name));
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Gauge& g : gauges_) {
    if (g.name() == name) return g;
  }
  return gauges_.emplace_back(std::string(name));
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Histogram& h : histograms_) {
    if (h.name() == name) return h;
  }
  return histograms_.emplace_back(std::string(name));
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot hs;
  hs.name = name_;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    hs.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    // Derive count from the bucket reads instead of the separate count_
    // atomic: a snapshot taken mid-record() would otherwise see the two
    // skewed, and Prometheus requires _bucket{le="+Inf"} == _count.
    hs.count += hs.buckets[b];
  }
  hs.sum_us = sum_us_.load(std::memory_order_relaxed);
  hs.max_us = max_us_.load(std::memory_order_relaxed);
  return hs;
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot out;
  out.counters.reserve(counters_.size());
  for (const Counter& c : counters_) out.counters.emplace_back(c.name(), c.get());
  out.gauges.reserve(gauges_.size());
  for (const Gauge& g : gauges_) out.gauges.emplace_back(g.name(), g.get());
  out.histograms.reserve(histograms_.size());
  for (const Histogram& h : histograms_) {
    out.histograms.push_back(h.snapshot());
  }
  return out;
}

}  // namespace prio::obs
