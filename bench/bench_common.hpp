#pragma once
// Shared helpers for the experiment stack: strict integers for the
// qols_bench CLI flags and the QOLS_MAX_K / QOLS_TRIALS environment
// overrides (consumed by RunConfig::from_env), and the median/IQR summary
// the round-based timing experiments (E22, E24) check their claims on.
//
// Parsing is strict (std::from_chars over the whole string): garbage like
// QOLS_TRIALS=abc is rejected with a stderr warning instead of silently
// becoming 0 the way std::atoi used to map it; out-of-range numerics are
// clamped, also with a warning.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string_view>
#include <vector>

namespace qols::bench {

/// Strict integer parse of a full NUL-terminated string; nullopt on empty
/// input, trailing junk, or overflow.
inline std::optional<long long> parse_integer(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  const char* end = text + std::string_view(text).size();
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// Reads env var `name` as an integer in [lo, hi]. Unset -> nullopt;
/// non-numeric -> nullopt with a stderr warning; out of range -> clamped
/// with a stderr warning.
inline std::optional<long long> env_integer(const char* name, long long lo,
                                            long long hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  const auto parsed = parse_integer(raw);
  if (!parsed) {
    std::cerr << "qols: ignoring " << name << "='" << raw
              << "' (not an integer)\n";
    return std::nullopt;
  }
  if (*parsed < lo || *parsed > hi) {
    const long long clamped = *parsed < lo ? lo : hi;
    std::cerr << "qols: " << name << "=" << *parsed << " out of range [" << lo
              << ", " << hi << "]; clamping to " << clamped << "\n";
    return clamped;
  }
  return parsed;
}

/// Median and interquartile range of a sample (linear interpolation
/// between order statistics).
struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};

inline Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.5), at(0.75) - at(0.25)};
}

}  // namespace qols::bench
