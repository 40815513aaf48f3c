#include "qols/telemetry/registry.hpp"

#include <ostream>
#include <stdexcept>
#include <vector>

namespace qols::telemetry {

using util::json::Value;

MetricsRegistry& MetricsRegistry::global() {
  // Intentionally immortal: instrument references are cached in
  // function-local statics and constructor-bound members all over the
  // library; a registry destroyed during static teardown would turn those
  // into dangling references.
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted
/// names map onto that by flattening separators.
std::string prometheus_name(std::string_view name) {
  std::string out = "qols_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

template <typename Map>
bool contains(const Map& m, std::string_view name) {
  return m.find(name) != m.end();
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  if (contains(gauges_, name) || contains(histograms_, name)) {
    throw std::invalid_argument("telemetry: '" + std::string(name) +
                                "' is already registered as another kind");
  }
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  if (contains(counters_, name) || contains(histograms_, name)) {
    throw std::invalid_argument("telemetry: '" + std::string(name) +
                                "' is already registered as another kind");
  }
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard lock(mu_);
  if (contains(counters_, name) || contains(gauges_, name)) {
    throw std::invalid_argument("telemetry: '" + std::string(name) +
                                "' is already registered as another kind");
  }
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<LatencyHistogram>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::reset_all() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Value MetricsRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  auto doc = Value::object();
  doc.set("enabled", enabled());

  auto counters = Value::object();
  for (const auto& [name, c] : counters_) counters.set(name, c->value());
  doc.set("counters", std::move(counters));

  auto gauges = Value::object();
  for (const auto& [name, g] : gauges_) gauges.set(name, g->value());
  doc.set("gauges", std::move(gauges));

  auto histograms = Value::object();
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot s = h->snapshot();
    auto rec = Value::object();
    rec.set("count", s.count);
    rec.set("sum", s.sum);
    rec.set("mean", s.mean());
    rec.set("p50", s.p50());
    rec.set("p90", s.p90());
    rec.set("p99", s.p99());
    auto buckets = Value::array();
    for (unsigned i = 0; i < kHistogramBuckets; ++i) {
      if (s.buckets[i] == 0) continue;
      auto pair = Value::array();
      pair.push_back(histogram_bucket_bound(i));
      pair.push_back(s.buckets[i]);
      buckets.push_back(std::move(pair));
    }
    rec.set("buckets", std::move(buckets));
    histograms.set(name, std::move(rec));
  }
  doc.set("histograms", std::move(histograms));
  return doc;
}

void MetricsRegistry::render_prometheus(std::ostream& os) const {
  std::lock_guard lock(mu_);
  for (const auto& [name, c] : counters_) {
    const std::string p = prometheus_name(name);
    os << "# TYPE " << p << " counter\n" << p << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string p = prometheus_name(name);
    os << "# TYPE " << p << " gauge\n" << p << " " << g->value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string p = prometheus_name(name);
    const HistogramSnapshot s = h->snapshot();
    os << "# TYPE " << p << " histogram\n";
    // Cumulative buckets up to the highest populated one; +Inf always.
    unsigned top = 0;
    for (unsigned i = 0; i < kHistogramBuckets; ++i) {
      if (s.buckets[i] != 0) top = i;
    }
    std::uint64_t cum = 0;
    for (unsigned i = 0; i <= top; ++i) {
      cum += s.buckets[i];
      os << p << "_bucket{le=\"" << histogram_bucket_bound(i) << "\"} " << cum
         << "\n";
    }
    os << p << "_bucket{le=\"+Inf\"} " << s.count << "\n"
       << p << "_sum " << s.sum << "\n"
       << p << "_count " << s.count << "\n";
  }
}

Value snapshot() { return MetricsRegistry::global().snapshot(); }

void render_prometheus(std::ostream& os) {
  MetricsRegistry::global().render_prometheus(os);
}

SpanSite SpanSite::resolve(std::string_view name) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::string base(name);
  return SpanSite{reg.counter(base + ".calls"), reg.histogram(base + ".ns")};
}

}  // namespace qols::telemetry
