// E22 — state-vector kernel throughput: the scalar-double / simd-double /
// simd-float matrix over the hot A3 kernels (H-range, the Grover diffusion
// in its H form and as the mean reflection the dense backend applies, and
// the index gates per input bit and per run of bits) at the dense wall.
//
// The dense backend stores amplitudes as split re[]/im[] arrays and runs
// the hot kernels as blocked contiguous runs with runtime ISA dispatch
// (quantum::SimdMode). Each element-wise kernel has one source: the AVX2
// path is the scalar template compiled again under target("avx2"), and only
// the fused radix-4 H butterfly (h2_span_avx2) is hand-written intrinsics.
// This experiment pins the three configurations against each other on
// identical registers:
//
//   - scalar-double: the baseline-ISA build of the kernels (set_simd_mode
//     kScalar);
//   - simd-double:   the AVX2 build, 4 double lanes, same precision;
//   - simd-float:    the AVX2 build, 8 float lanes — half the memory
//     traffic, twice the lanes (the opt-in --precision float mode).
//
// Metric: amplitude-pair updates per second (one H on one qubit of a dim-D
// register performs D/2 pair updates; a diffusion performs two H-ranges plus
// a reflect-zero streaming pass). The diffusion row times the H form
// H^{x2k} S_0 H^{x2k} kernel by kernel, as gate-level circuits spell it
// out. The dense backend applies the same operator as a sector mean
// reflection (apply_mean_reflection: one summing pass, one writing pass);
// its rate, mean_reflection_pairs_per_sec, is credited with the H form's
// pair count, so it reads directly against diffusion_pairs_per_sec as the
// same operator's throughput. Each row also reports the rate of A3's
// per-1-bit index gates (V_x, W_y, R_y as x/z/cx-on-index over the full
// index register) on its register: each touches O(1) amplitudes, so this is
// the per-bit cost of the streaming simulation, not a bandwidth figure. It
// also reports the rate of the same three oracles applied per run of bits
// (apply_{x,z,cx}_on_index_run over one whole block of a random 0/1 mask at
// A3's density, ~1/4 ones), in data symbols per second: the path A3's
// chunked ingestion takes, one masked sequential pass per run. The
// claim: simd-float sustains >= 2x the scalar-double rate on BOTH the
// H-range and the diffusion kernels at k = 10 (22 qubits, 4M amplitudes) —
// enforced only under NDEBUG on AVX2 hardware (elsewhere the rows are still
// reported, with a note).
//
// Measurement: every row keeps its own register for the whole run. A round
// times one kernel on every row: kAttempts sweeps, each one pass per row
// back to back in an order that rotates (so no row always runs first), and
// each row keeps its fastest attempt — contention only ever slows a pass.
// A round yields one simd-float / scalar-double ratio per claimed kernel;
// the claim is checked against the MEDIAN of those per-round ratios, with
// their IQR in the extras, and the rows report median rates. Passes in one
// round share the host's momentary speed, so a per-round ratio cancels
// drift, and the median ignores the rounds a burst of contention landed in.
// Why attempts: on a shared 4-vCPU VM, consecutive passes of one kernel
// varied 3x, and with one attempt per round the median of 24 rounds came
// within 0.1 of the 2x bound in some runs.
//
// Correctness is not sacrificed for the rows: each row checks its register
// norm after the timed passes (H-range is self-inverse; both diffusion forms
// and the index gates are unitary), so a kernel that went fast by being
// wrong fails the row.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiments.hpp"
#include "qols/quantum/state_vector.hpp"
#include "qols/util/rng.hpp"
#include "qols/util/stopwatch.hpp"
#include "qols/util/table.hpp"
#include "registry.hpp"

namespace qols::bench {
namespace {

enum Kernel {
  kHRange,
  kDiffusion,
  kIndexGates,
  kIndexRuns,
  kMeanReflection,
  kKernels
};

/// One configuration under test: a register of its own, and a timed pass
/// of any kernel on it in the row's SIMD mode.
struct Row {
  std::string label;
  /// Seconds for one pass of the kernel.
  std::function<double(Kernel)> time_pass;
  std::function<double()> norm;
  /// Per-round rates, in the kernel's work units per second.
  std::array<std::vector<double>, kKernels> rates;
};

template <typename Scalar>
Row make_row(const std::string& label, quantum::SimdMode mode, unsigned k,
             const std::vector<std::uint64_t>& indices,
             const std::vector<std::uint8_t>& ones) {
  const unsigned range = 2 * k;
  auto sv = std::make_shared<quantum::StateVectorT<Scalar>>(range + 2);
  quantum::set_simd_mode(mode);
  sv->apply_h_range(0, range);  // warm-up: touch every page once
  Row row;
  row.label = label;
  row.time_pass = [sv, mode, range, &indices, &ones](Kernel kernel) {
    quantum::set_simd_mode(mode);
    util::Stopwatch watch;
    switch (kernel) {
      case kHRange:
        sv->apply_h_range(0, range);
        break;
      case kDiffusion:
        sv->apply_h_range(0, range);
        sv->apply_reflect_zero(0, range);
        sv->apply_h_range(0, range);
        break;
      case kIndexGates:
        // One V_x, W_y and R_y per drawn index, as A3 applies them per
        // 1-bit: h = qubit 2k, l = qubit 2k+1.
        for (const std::uint64_t i : indices) {
          sv->apply_x_on_index(0, range, i, range);
          sv->apply_z_on_index(0, range, i, range);
          sv->apply_cx_on_index(0, range, i, range, range + 1);
        }
        break;
      case kIndexRuns:
        // The same three oracles, each as one run over a whole block.
        sv->apply_x_on_index_run(range, 0, ones, range);
        sv->apply_z_on_index_run(range, 0, ones, range);
        sv->apply_cx_on_index_run(range, 0, ones, range, range + 1);
        break;
      default:
        sv->apply_mean_reflection(0, range);
        break;
    }
    return std::max(watch.seconds(), 1e-9);
  };
  row.norm = [sv] { return sv->norm(); };
  return row;
}

int run(Reporter& rep, const RunConfig& cfg) {
  const unsigned k = std::max(1u, cfg.dense_max_k_or(10));
  // 12 rounds of 4 attempts at the default --trials 6, ~8 s in all.
  const int rounds = 2 * std::max(2, cfg.trials_or(6));
  constexpr int kAttempts = 4;
  const bool avx2 = quantum::cpu_supports_avx2();
  const quantum::SimdMode simd_mode =
      avx2 ? quantum::SimdMode::kAvx2 : quantum::SimdMode::kAuto;

  const unsigned range = 2 * k;
  const double dim = static_cast<double>(std::uint64_t{1} << (range + 2));
  // Work per pass, per kernel. Diffusion = H-range, reflect-zero (one
  // streaming negate pass + a cheap strided fixup), H-range; the mean
  // reflection is the same operator and is credited with the same work.
  const double hrange_pairs = static_cast<double>(range) * dim / 2.0;
  util::Rng rng(22);
  std::vector<std::uint64_t> indices(std::size_t{1} << 14);
  for (auto& i : indices) i = rng.below(std::uint64_t{1} << range);
  std::vector<std::uint8_t> ones(std::size_t{1} << range);
  for (auto& b : ones) b = rng.below(4) == 0 ? 1 : 0;
  const std::array<double, kKernels> work = {
      hrange_pairs, 2.0 * hrange_pairs + dim,
      3.0 * static_cast<double>(indices.size()),
      3.0 * static_cast<double>(ones.size()), 2.0 * hrange_pairs + dim};

  const quantum::SimdMode saved = quantum::requested_simd_mode();
  enum { kScalarDouble, kSimdDouble, kSimdFloat, kRows };
  std::array<Row, kRows> row_set = {
      make_row<double>("scalar-double", quantum::SimdMode::kScalar, k,
                       indices, ones),
      make_row<double>("simd-double", simd_mode, k, indices, ones),
      make_row<float>("simd-float", simd_mode, k, indices, ones)};
  // Per-round simd-float / scalar-double ratios for the claimed kernels,
  // kHRange and kDiffusion.
  std::array<std::vector<double>, 2> speedups;
  for (int r = 0; r < rounds; ++r) {
    for (int kernel = 0; kernel < kKernels; ++kernel) {
      std::array<double, kRows> best;
      best.fill(std::numeric_limits<double>::infinity());
      for (int a = 0; a < kAttempts; ++a) {
        for (int i = 0; i < kRows; ++i) {
          const int at = (r + a + i) % kRows;
          best[at] = std::min(
              best[at], row_set[at].time_pass(static_cast<Kernel>(kernel)));
        }
      }
      for (int at = 0; at < kRows; ++at) {
        row_set[at].rates[kernel].push_back(work[kernel] / best[at]);
      }
      if (kernel == kHRange || kernel == kDiffusion) {
        speedups[kernel].push_back(best[kScalarDouble] / best[kSimdFloat]);
      }
    }
  }
  quantum::set_simd_mode(saved);

  // Norm tolerance: double rows sit at 1 within ~1e-12; the float register
  // accumulates per-pass rounding ~ passes * 2k * 2^-24.
  const double gate_passes =
      static_cast<double>(rounds * kAttempts) * 3.0 * (2.0 * k + 1.0);
  const double float_norm_tol =
      1024.0 * gate_passes * static_cast<double>(2.0 * k) * 0x1p-24;

  util::Table table({"row", "precision", "isa", "h_range pairs/s",
                     "diffusion pairs/s", "mean-reflection pairs/s",
                     "index gates/s", "index-run symbols/s", "|norm-1|",
                     "ok?"});
  bool norms_ok = true;
  const Spread h_speedup = spread_of(speedups[kHRange]);
  const Spread d_speedup = spread_of(speedups[kDiffusion]);
  for (int at = 0; at < kRows; ++at) {
    const Row& r = row_set[at];
    const bool is_float = at == kSimdFloat;
    const double drift = std::abs(r.norm() - 1.0);
    const bool ok = drift <= (is_float ? float_norm_tol : 1e-9);
    norms_ok = norms_ok && ok;
    std::array<double, kKernels> rate{};
    for (int kernel = 0; kernel < kKernels; ++kernel) {
      rate[kernel] = spread_of(r.rates[kernel]).median;
    }
    table.add_row({r.label, is_float ? "float" : "double",
                   at == kScalarDouble ? "scalar" : (avx2 ? "avx2" : "scalar"),
                   util::fmt_g(static_cast<std::uint64_t>(rate[kHRange])),
                   util::fmt_g(static_cast<std::uint64_t>(rate[kDiffusion])),
                   util::fmt_g(
                       static_cast<std::uint64_t>(rate[kMeanReflection])),
                   util::fmt_g(static_cast<std::uint64_t>(rate[kIndexGates])),
                   util::fmt_g(static_cast<std::uint64_t>(rate[kIndexRuns])),
                   util::fmt_f(drift, 9), ok ? "yes" : "NO"});

    MetricRecord m;
    m.label = r.label;
    m.k = static_cast<std::int64_t>(k);
    m.trials = static_cast<std::uint64_t>(rounds);
    m.extra.emplace_back("hrange_pairs_per_sec", rate[kHRange]);
    m.extra.emplace_back("diffusion_pairs_per_sec", rate[kDiffusion]);
    m.extra.emplace_back("mean_reflection_pairs_per_sec",
                         rate[kMeanReflection]);
    m.extra.emplace_back("index_gates_per_sec", rate[kIndexGates]);
    m.extra.emplace_back("index_run_symbols_per_sec", rate[kIndexRuns]);
    m.extra.emplace_back("norm_drift", drift);
    if (is_float) {
      m.extra.emplace_back("hrange_speedup_vs_scalar_double",
                           h_speedup.median);
      m.extra.emplace_back("hrange_speedup_iqr", h_speedup.iqr);
      m.extra.emplace_back("diffusion_speedup_vs_scalar_double",
                           d_speedup.median);
      m.extra.emplace_back("diffusion_speedup_iqr", d_speedup.iqr);
    }
    rep.metric(m);
  }
  rep.table(table);

#ifdef NDEBUG
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  bool claim_ok = true;
  if (optimized && avx2) {
    claim_ok = h_speedup.median >= 2.0 && d_speedup.median >= 2.0;
    rep.note("simd-float vs scalar-double, median of " +
             std::to_string(rounds) + " per-round ratios: h_range " +
             util::fmt_f(h_speedup.median, 2) + "x (IQR " +
             util::fmt_f(h_speedup.iqr, 2) + "), diffusion " +
             util::fmt_f(d_speedup.median, 2) + "x (IQR " +
             util::fmt_f(d_speedup.iqr, 2) + ") (claim: both >= 2x). " +
             (claim_ok ? "Held." : "FAILED."));
  } else {
    rep.note(std::string("speedup claim not enforced: ") +
             (!optimized ? "unoptimized build" : "no AVX2 on this CPU") +
             " (rows above are still the tracked series).");
  }
  rep.note(
      "\nReading: identical registers (2k+2 qubits), identical kernels, "
      "three storage/ISA configurations. simd-float combines 8-lane AVX2 "
      "with half the memory traffic; decisions stay precision-invariant "
      "(see test_precision_differential), so the fast row is safe to serve "
      "from.");
  return norms_ok && claim_ok ? 0 : 1;
}

}  // namespace

void register_e22(Registry& r) {
  r.add({.id = "e22",
         .title = "state-vector kernel throughput (SoA/SIMD/precision)",
         .claim = "Claim (engineering): the SoA + AVX2 float fast path "
                  "sustains >= 2x the scalar-double amplitude-pair update "
                  "rate on the H-range and diffusion kernels at the dense "
                  "wall (k = 10), with unitary norms preserved.",
         .tags = {"kernel", "simd", "precision", "throughput", "quantum"}},
        run);
}

}  // namespace qols::bench
