#pragma once
// Telemetry instruments: the lock-free primitives every layer records into.
//
// Three instrument kinds, all safe for concurrent recording from pool
// workers (relaxed atomics; no instrument op ever takes a lock):
//
//   - Counter:          monotonic event/byte tallies;
//   - Gauge:            last-written level (queue depths, rates);
//   - LatencyHistogram: fixed-bucket log-scale (power-of-two) histogram
//                       with mergeable snapshots and p50/p90/p99 readout.
//
// One kill switch, at runtime: set_enabled(false). Every record path first
// reads one process-global relaxed atomic bool; when it is false the op
// returns before touching memory or the clock — the disabled cost is one
// predictable branch (experiment E24 bounds it against a hook-free loop).
//
// The invariant the switch preserves (enforced by
// tests/test_telemetry_differential.cpp and the fuzz soak): telemetry only
// ever *observes*. No decision, RNG draw, SpaceReport, or snapshot byte
// depends on an instrument, so verdicts are bit-identical with telemetry
// on or runtime-disabled.

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>

namespace qols::telemetry {

namespace detail {
inline std::atomic<bool>& enabled_flag() noexcept {
  // Recording defaults to ON: observability is the production posture and
  // the enabled overhead is bounded by experiment E24 (<= 5%).
  static std::atomic<bool> flag{true};
  return flag;
}
}  // namespace detail

/// The runtime switch every record path checks first (relaxed load).
inline bool enabled() noexcept {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}
/// Flips recording at runtime. Instruments keep their accumulated values;
/// they simply stop (or resume) moving.
inline void set_enabled(bool on) noexcept {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written level (may go down: queue depths, rates).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    if (!enabled()) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Bucket layout shared by the histogram and its snapshots: bucket 0 holds
/// the value 0, bucket i (i >= 1) holds [2^(i-1), 2^i - 1]. 65 buckets
/// cover the whole uint64 range, so record() never clamps or drops.
inline constexpr unsigned kHistogramBuckets = 65;

/// Bucket index of a recorded value: 0 for 0, else bit_width(v).
constexpr unsigned histogram_bucket(std::uint64_t v) noexcept {
  return v == 0 ? 0u : static_cast<unsigned>(std::bit_width(v));
}

/// Inclusive upper bound of bucket i (the value quantiles report).
constexpr std::uint64_t histogram_bucket_bound(unsigned i) noexcept {
  if (i == 0) return 0;
  if (i >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << i) - 1;
}

/// A point-in-time copy of a histogram: plain integers, mergeable,
/// quantile-extractable. Merging is associative and commutative
/// (element-wise sums), so per-shard histograms fold into fleet views in
/// any order.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void merge(const HistogramSnapshot& other) noexcept {
    for (unsigned i = 0; i < kHistogramBuckets; ++i) {
      buckets[i] += other.buckets[i];
    }
    count += other.count;
    sum += other.sum;
  }

  /// The bucket upper bound containing rank ceil(q * count), q in (0, 1].
  /// Exact whenever every value in that bucket equals its bound (e.g. when
  /// inputs are bucket boundaries — the unit-test contract); otherwise it
  /// over-reports by at most the bucket width (< 2x for the log-2 layout).
  std::uint64_t quantile(double q) const noexcept {
    if (count == 0) return 0;
    if (q <= 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count));
    if (static_cast<double>(rank) < q * static_cast<double>(count)) ++rank;
    if (rank == 0) rank = 1;
    std::uint64_t cum = 0;
    for (unsigned i = 0; i < kHistogramBuckets; ++i) {
      cum += buckets[i];
      if (cum >= rank) return histogram_bucket_bound(i);
    }
    return histogram_bucket_bound(kHistogramBuckets - 1);
  }

  std::uint64_t p50() const noexcept { return quantile(0.50); }
  std::uint64_t p90() const noexcept { return quantile(0.90); }
  std::uint64_t p99() const noexcept { return quantile(0.99); }

  double mean() const noexcept {
    return count == 0
               ? 0.0
               : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Lock-free log-scale latency/size histogram. record() is two relaxed
/// fetch_adds; snapshot() reads the buckets without stopping writers (its
/// count is derived from the bucket sums, so a snapshot is internally
/// consistent bucket-wise even mid-record; `sum` may trail by in-flight
/// records — quiesce before asserting exact equality).
class LatencyHistogram {
 public:
  void record(std::uint64_t value) noexcept {
    if (!enabled()) return;
    buckets_[histogram_bucket(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot s;
    for (unsigned i = 0; i < kHistogramBuckets; ++i) {
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
      s.count += s.buckets[i];
    }
    s.sum = sum_.load(std::memory_order_relaxed);
    return s;
  }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// RAII nanosecond timer into a histogram. The enabled() decision is taken
/// once at construction — a scope that starts disabled never reads the
/// clock, so the runtime-disabled cost of a timed region is one branch.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram& hist) noexcept
      : hist_(enabled() ? &hist : nullptr) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (hist_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    hist_->record(ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LatencyHistogram* hist_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace qols::telemetry
