// Unit tests: the telemetry instruments and registry — bucket geometry,
// merge algebra, exact quantiles on known distributions, runtime gating,
// registry identity/rendering, and concurrent recording (the TSan target:
// every record path must be lock-free AND race-free).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "qols/telemetry/registry.hpp"

namespace {

namespace telemetry = qols::telemetry;
using telemetry::HistogramSnapshot;
using telemetry::kHistogramBuckets;
using telemetry::MetricsRegistry;

/// RAII guard: tests flip the runtime switch; the suite must leave the
/// process in the default-enabled posture whatever the test outcome.
struct EnabledGuard {
  bool saved = telemetry::enabled();
  ~EnabledGuard() { telemetry::set_enabled(saved); }
};

TEST(HistogramBuckets, Log2Geometry) {
  // Bucket 0 holds only the value 0; bucket i >= 1 holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(telemetry::histogram_bucket(0), 0u);
  EXPECT_EQ(telemetry::histogram_bucket(1), 1u);
  EXPECT_EQ(telemetry::histogram_bucket(2), 2u);
  EXPECT_EQ(telemetry::histogram_bucket(3), 2u);
  EXPECT_EQ(telemetry::histogram_bucket(4), 3u);
  EXPECT_EQ(telemetry::histogram_bucket(7), 3u);
  EXPECT_EQ(telemetry::histogram_bucket(8), 4u);
  EXPECT_EQ(telemetry::histogram_bucket((1ull << 20)), 21u);
  EXPECT_EQ(telemetry::histogram_bucket(~0ull), 64u);

  EXPECT_EQ(telemetry::histogram_bucket_bound(0), 0u);
  EXPECT_EQ(telemetry::histogram_bucket_bound(1), 1u);
  EXPECT_EQ(telemetry::histogram_bucket_bound(2), 3u);
  EXPECT_EQ(telemetry::histogram_bucket_bound(3), 7u);
  EXPECT_EQ(telemetry::histogram_bucket_bound(63), (1ull << 63) - 1);
  EXPECT_EQ(telemetry::histogram_bucket_bound(64), ~0ull);

  // Every value lands in the bucket whose bound covers it — boundary values
  // exactly at their own bound (that is what makes boundary-valued inputs
  // quantile-exact).
  for (unsigned i = 0; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(telemetry::histogram_bucket(telemetry::histogram_bucket_bound(i)),
              i);
  }
}

TEST(HistogramSnapshot, MergeIsAssociativeAndCommutative) {
  HistogramSnapshot a, b, c;
  a.buckets[1] = 5;
  a.count = 5;
  a.sum = 5;
  b.buckets[3] = 2;
  b.buckets[1] = 1;
  b.count = 3;
  b.sum = 11;
  c.buckets[10] = 7;
  c.count = 7;
  c.sum = 7000;

  // (a + b) + c
  HistogramSnapshot ab = a;
  ab.merge(b);
  HistogramSnapshot ab_c = ab;
  ab_c.merge(c);
  // a + (b + c)
  HistogramSnapshot bc = b;
  bc.merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.merge(bc);
  // c + (b + a): commuted
  HistogramSnapshot ba = b;
  ba.merge(a);
  HistogramSnapshot c_ba = c;
  c_ba.merge(ba);

  EXPECT_EQ(ab_c.count, 15u);
  EXPECT_EQ(ab_c.sum, a.sum + b.sum + c.sum);
  for (unsigned i = 0; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(ab_c.buckets[i], a_bc.buckets[i]) << "bucket " << i;
    EXPECT_EQ(ab_c.buckets[i], c_ba.buckets[i]) << "bucket " << i;
  }
  EXPECT_EQ(ab_c.count, a_bc.count);
  EXPECT_EQ(ab_c.sum, c_ba.sum);
}

TEST(HistogramSnapshot, ExactQuantilesOnBoundaryValuedDistribution) {
  EnabledGuard guard;
  telemetry::set_enabled(true);
  telemetry::LatencyHistogram h;
  // 10x 0, 40x 1, 40x 3, 10x 7 — all bucket bounds, so quantiles are exact.
  for (int i = 0; i < 10; ++i) h.record(0);
  for (int i = 0; i < 40; ++i) h.record(1);
  for (int i = 0; i < 40; ++i) h.record(3);
  for (int i = 0; i < 10; ++i) h.record(7);

  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 0u * 10 + 1u * 40 + 3u * 40 + 7u * 10);
  EXPECT_DOUBLE_EQ(s.mean(), 2.3);
  EXPECT_EQ(s.quantile(0.10), 0u);  // rank 10 is the last 0
  EXPECT_EQ(s.p50(), 1u);           // rank 50 is the last 1
  EXPECT_EQ(s.p90(), 3u);           // rank 90 is the last 3
  EXPECT_EQ(s.p99(), 7u);           // rank 99 is a 7
  EXPECT_EQ(s.quantile(1.0), 7u);

  h.reset();
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(h.snapshot().quantile(0.5), 0u);  // empty histogram reads 0
}

TEST(Instruments, RuntimeDisableStopsRecordingAndPreservesValues) {
  EnabledGuard guard;
  telemetry::set_enabled(true);
  telemetry::Counter c;
  telemetry::Gauge g;
  telemetry::LatencyHistogram h;
  c.add(3);
  g.set(42);
  h.record(5);

  telemetry::set_enabled(false);
  EXPECT_FALSE(telemetry::enabled());
  c.add(100);
  g.set(7);
  g.add(1);
  h.record(9);
  { telemetry::ScopedTimer t(h); }  // disabled at construction: no sample

  // Disabled means frozen, not zeroed.
  EXPECT_EQ(c.value(), 3u);
  EXPECT_EQ(g.value(), 42);
  EXPECT_EQ(h.snapshot().count, 1u);

  telemetry::set_enabled(true);
  c.add(1);
  EXPECT_EQ(c.value(), 4u);
  { telemetry::ScopedTimer t(h); }
  EXPECT_EQ(h.snapshot().count, 2u);
}

TEST(Registry, SameNameSameInstrumentAcrossLookups) {
  auto& reg = MetricsRegistry::global();
  telemetry::Counter& a = reg.counter("test.registry.identity");
  telemetry::Counter& b = reg.counter("test.registry.identity");
  EXPECT_EQ(&a, &b);
  telemetry::Gauge& g1 = reg.gauge("test.registry.gauge");
  telemetry::Gauge& g2 = reg.gauge("test.registry.gauge");
  EXPECT_EQ(&g1, &g2);
  telemetry::LatencyHistogram& h1 = reg.histogram("test.registry.hist");
  telemetry::LatencyHistogram& h2 = reg.histogram("test.registry.hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(Registry, KindCollisionThrows) {
  auto& reg = MetricsRegistry::global();
  reg.counter("test.registry.collision");
  EXPECT_THROW(reg.gauge("test.registry.collision"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("test.registry.collision"),
               std::invalid_argument);
  reg.histogram("test.registry.collision.h");
  EXPECT_THROW(reg.counter("test.registry.collision.h"),
               std::invalid_argument);
}

TEST(Registry, SnapshotCarriesValuesAndQuantiles) {
  EnabledGuard guard;
  telemetry::set_enabled(true);
  auto& reg = MetricsRegistry::global();
  reg.counter("test.snapshot.counter").reset();
  reg.counter("test.snapshot.counter").add(17);
  reg.gauge("test.snapshot.gauge").set(-4);
  auto& h = reg.histogram("test.snapshot.hist");
  h.reset();
  for (int i = 0; i < 8; ++i) h.record(3);

  const auto doc = telemetry::snapshot();
  const std::string text = doc.dump(2);
  EXPECT_NE(text.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(text.find("\"test.snapshot.counter\": 17"), std::string::npos);
  EXPECT_NE(text.find("\"test.snapshot.gauge\": -4"), std::string::npos);
  EXPECT_NE(text.find("\"test.snapshot.hist\""), std::string::npos);
  EXPECT_NE(text.find("\"p50\": 3"), std::string::npos);
  EXPECT_NE(text.find("\"count\": 8"), std::string::npos);
}

TEST(Registry, PrometheusExpositionShape) {
  EnabledGuard guard;
  telemetry::set_enabled(true);
  auto& reg = MetricsRegistry::global();
  reg.counter("test.prom.counter").reset();
  reg.counter("test.prom.counter").add(9);
  auto& h = reg.histogram("test.prom-hist");
  h.reset();
  h.record(1);
  h.record(3);

  std::ostringstream os;
  telemetry::render_prometheus(os);
  const std::string text = os.str();
  // Dots and dashes sanitize to underscores; the qols_ prefix namespaces us.
  EXPECT_NE(text.find("# TYPE qols_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("qols_test_prom_counter 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qols_test_prom_hist histogram"),
            std::string::npos);
  // Cumulative le-buckets: the le="3" bucket counts BOTH samples.
  EXPECT_NE(text.find("qols_test_prom_hist_bucket{le=\"3\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("qols_test_prom_hist_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("qols_test_prom_hist_sum 4"), std::string::npos);
  EXPECT_NE(text.find("qols_test_prom_hist_count 2"), std::string::npos);
}

TEST(Registry, SpanSiteCountsCallsAndSamples) {
  EnabledGuard guard;
  telemetry::set_enabled(true);
  auto site = telemetry::SpanSite::resolve("test.span");
  site.calls.reset();
  site.ns.reset();
  for (int i = 0; i < 3; ++i) {
    telemetry::TraceSpan span(site);
  }
  EXPECT_EQ(site.calls.value(), 3u);
  EXPECT_EQ(site.ns.snapshot().count, 3u);
  // Resolving again lands on the same instruments.
  auto again = telemetry::SpanSite::resolve("test.span");
  EXPECT_EQ(&again.calls, &site.calls);
  EXPECT_EQ(&again.ns, &site.ns);
}

// The TSan target: concurrent recording into one shared instrument set from
// many threads, with a reader snapshotting mid-flight. Counts must add up
// exactly (relaxed atomics lose nothing) and TSan must see no race.
TEST(Concurrency, ParallelRecordersLoseNothing) {
  EnabledGuard guard;
  telemetry::set_enabled(true);
  auto& reg = MetricsRegistry::global();
  auto& counter = reg.counter("test.concurrent.counter");
  auto& hist = reg.histogram("test.concurrent.hist");
  counter.reset();
  hist.reset();

  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter, &hist, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.add();
        hist.record((t + 1) * 3);  // a few distinct buckets
      }
    });
  }
  // A concurrent reader: snapshots must be internally consistent (count ==
  // bucket sum by construction) while writers are mid-record.
  workers.emplace_back([&hist] {
    for (int i = 0; i < 100; ++i) {
      const HistogramSnapshot s = hist.snapshot();
      std::uint64_t total = 0;
      for (const auto b : s.buckets) total += b;
      EXPECT_EQ(total, s.count);
    }
  });
  for (auto& w : workers) w.join();

  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  const HistogramSnapshot s = hist.snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  std::uint64_t expected_sum = 0;
  for (unsigned t = 0; t < kThreads; ++t) expected_sum += (t + 1) * 3 * kPerThread;
  EXPECT_EQ(s.sum, expected_sum);
}

TEST(Registry, ResetAllZeroesEveryInstrumentButKeepsReferencesValid) {
  EnabledGuard guard;
  telemetry::set_enabled(true);
  auto& reg = MetricsRegistry::global();
  auto& c = reg.counter("test.reset.counter");
  auto& h = reg.histogram("test.reset.hist");
  c.add(5);
  h.record(1);
  reg.reset_all();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
  c.add(2);  // the reference still points at the live instrument
  EXPECT_EQ(reg.counter("test.reset.counter").value(), 2u);
}

}  // namespace
