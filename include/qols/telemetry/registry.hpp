#pragma once
// The process-wide metrics registry: named, label-free instruments with two
// export formats.
//
//   - Registration is a mutex-guarded name lookup — COLD. Call sites
//     resolve their instruments once (a function-local static or a member
//     reference bound at construction) and record through the returned
//     reference forever after; the reference stays valid for the process
//     lifetime (the registry never deletes an instrument).
//   - Recording through a resolved reference is lock-free (see
//     instruments.hpp).
//
// Exports:
//   - snapshot(): a util::json::Value of every instrument, embedded by the
//     qols_bench JSON reporter as the document's `extra.telemetry` block
//     (schema qols-bench/4);
//   - render_prometheus(): text exposition (counter/gauge/histogram with
//     cumulative le-buckets), served by qols_server's METRICS frame.
//
// The registry holds what no layer's functional accounting already holds:
// latency histograms, queue depths, per-frame counts. A fact a layer keeps
// for its own callers (RecognizerService::Stats, exported by the STATS
// frame) is not mirrored here.

#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "qols/telemetry/instruments.hpp"
#include "qols/util/json.hpp"

namespace qols::telemetry {

class MetricsRegistry {
 public:
  /// The process-wide registry. Never destroyed (instrument references
  /// handed out to static call sites must outlive every other static).
  static MetricsRegistry& global();

  /// Finds or creates the named instrument. The same name always returns
  /// the same instrument; a name registered as one kind and requested as
  /// another throws std::invalid_argument (names are a flat shared space).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  /// Zeroes every registered instrument (benchmark warmup discards, test
  /// isolation). Instruments stay registered; references stay valid.
  void reset_all();

  /// JSON view of every instrument: {"enabled", "counters",
  /// "gauges", "histograms"} — histograms carry count/sum/mean/p50/p90/p99
  /// plus their non-empty [bound, count] buckets. Deterministic order
  /// (names sorted).
  util::json::Value snapshot() const;

  /// Prometheus text exposition of the same instruments. Names are
  /// sanitized ('.' and '-' become '_') and prefixed "qols_"; histograms
  /// render cumulative le-buckets plus _sum/_count.
  void render_prometheus(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
};

/// Shorthand for MetricsRegistry::global().snapshot() — the export the
/// bench reporter embeds.
util::json::Value snapshot();

/// Shorthand for MetricsRegistry::global().render_prometheus(os).
void render_prometheus(std::ostream& os);

/// A resolved profiling site: one invocation counter plus one nanosecond
/// histogram, looked up together ("<name>.calls", "<name>.ns"). Resolve
/// once per call site into a function-local static, then open a TraceSpan
/// per invocation.
struct SpanSite {
  Counter& calls;
  LatencyHistogram& ns;

  static SpanSite resolve(std::string_view name);
};

/// RAII profiling hook over a SpanSite: counts the call and times the
/// scope. Runtime-disabled cost: one branch (no clock read).
class TraceSpan {
 public:
  explicit TraceSpan(SpanSite& site) noexcept : timer_(site.ns) {
    site.calls.add();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  ScopedTimer timer_;
};

}  // namespace qols::telemetry
