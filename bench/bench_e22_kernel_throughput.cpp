// E22 — state-vector kernel throughput: the scalar-double / simd-double /
// simd-float matrix over the hot A3 kernels (H-range, the Grover diffusion
// composite, and the per-input-bit index gates) at the dense wall.
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
// a reflect-zero streaming pass), best-of-`--trials` individually timed
// passes per row. Each row also reports the rate of A3's per-1-bit index
// gates (V_x, W_y, R_y as x/z/cx-on-index over the full index register) on
// the same register: each touches O(1) amplitudes, so this is the per-bit
// cost of the streaming simulation, not a bandwidth figure. The claim:
// simd-float sustains >= 2x the scalar-double rate on BOTH the H-range and
// the diffusion kernels at k = 10 (22 qubits, 4M amplitudes) — enforced
// only under NDEBUG on AVX2 hardware (elsewhere the rows are still reported,
// with a note).
//
// Correctness is not sacrificed for the rows: each row checks its register
// norm after the timed passes (H-range is self-inverse; the diffusion and
// the index gates are unitary), so a kernel that went fast by being wrong
// fails the row.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "experiments.hpp"
#include "qols/quantum/state_vector.hpp"
#include "qols/util/rng.hpp"
#include "qols/util/stopwatch.hpp"
#include "qols/util/table.hpp"
#include "registry.hpp"

namespace qols::bench {
namespace {

struct Row {
  std::string label;
  double hrange_pairs_per_sec = 0.0;
  double diffusion_pairs_per_sec = 0.0;
  double index_gates_per_sec = 0.0;
  double norm = 1.0;
};

template <typename Scalar>
Row run_row(const std::string& label, quantum::SimdMode mode, unsigned k,
            int reps) {
  quantum::set_simd_mode(mode);
  const unsigned range = 2 * k;
  quantum::StateVectorT<Scalar> sv(range + 2);
  const double dim = static_cast<double>(sv.dim());
  const double hrange_pairs = static_cast<double>(range) * dim / 2.0;
  // Diffusion = H-range, reflect-zero (one streaming negate pass + a cheap
  // strided fixup), H-range.
  const double diffusion_pairs = 2.0 * hrange_pairs + dim;

  Row row;
  row.label = label;
  sv.apply_h_range(0, range);  // warm-up: touch every page once
  // Each rep is timed on its own and the row reports the best rate.
  // Sustained-throughput kernels on a shared machine are measured
  // best-of-N, not averaged: one scheduler preemption or turbo shift
  // inside a single aggregate window would otherwise skew the whole row
  // (and the claim is a ratio of two such windows).
  {
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
      util::Stopwatch watch;
      sv.apply_h_range(0, range);
      const double secs = std::max(watch.seconds(), 1e-9);
      best = std::max(best, hrange_pairs / secs);
    }
    row.hrange_pairs_per_sec = best;
  }
  {
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
      util::Stopwatch watch;
      sv.apply_h_range(0, range);
      sv.apply_reflect_zero(0, range);
      sv.apply_h_range(0, range);
      const double secs = std::max(watch.seconds(), 1e-9);
      best = std::max(best, diffusion_pairs / secs);
    }
    row.diffusion_pairs_per_sec = best;
  }
  {
    // One V_x, W_y and R_y per drawn index, as A3 applies them per 1-bit:
    // h = qubit 2k, l = qubit 2k+1.
    util::Rng rng(22);
    std::vector<std::uint64_t> indices(std::size_t{1} << 14);
    for (auto& i : indices) i = rng.below(std::uint64_t{1} << range);
    const double gates = 3.0 * static_cast<double>(indices.size());
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
      util::Stopwatch watch;
      for (const std::uint64_t i : indices) {
        sv.apply_x_on_index(0, range, i, range);
        sv.apply_z_on_index(0, range, i, range);
        sv.apply_cx_on_index(0, range, i, range, range + 1);
      }
      const double secs = std::max(watch.seconds(), 1e-9);
      best = std::max(best, gates / secs);
    }
    row.index_gates_per_sec = best;
  }
  row.norm = sv.norm();
  return row;
}

int run(Reporter& rep, const RunConfig& cfg) {
  const unsigned k = std::max(1u, cfg.dense_max_k_or(10));
  const int reps = std::max(2, cfg.trials_or(6));
  const bool avx2 = quantum::cpu_supports_avx2();
  const quantum::SimdMode simd_mode =
      avx2 ? quantum::SimdMode::kAvx2 : quantum::SimdMode::kAuto;

  const quantum::SimdMode saved = quantum::requested_simd_mode();
  const Row scalar_double =
      run_row<double>("scalar-double", quantum::SimdMode::kScalar, k, reps);
  const Row simd_double = run_row<double>("simd-double", simd_mode, k, reps);
  const Row simd_float = run_row<float>("simd-float", simd_mode, k, reps);
  quantum::set_simd_mode(saved);

  // Norm tolerance: double rows sit at 1 within ~1e-12; the float register
  // accumulates per-pass rounding ~ passes * 2k * 2^-24.
  const double gate_passes = static_cast<double>(reps) * 3.0 * (2.0 * k + 1.0);
  const double float_norm_tol =
      1024.0 * gate_passes * static_cast<double>(2.0 * k) * 0x1p-24;

  util::Table table({"row", "precision", "isa", "h_range pairs/s",
                     "diffusion pairs/s", "index gates/s", "|norm-1|", "ok?"});
  bool norms_ok = true;
  const Row* rows[] = {&scalar_double, &simd_double, &simd_float};
  for (const Row* r : rows) {
    const bool is_float = r == &simd_float;
    const double tol = is_float ? float_norm_tol : 1e-9;
    const bool ok = std::abs(r->norm - 1.0) <= tol;
    norms_ok = norms_ok && ok;
    table.add_row({r->label, is_float ? "float" : "double",
                   r == &scalar_double ? "scalar" : (avx2 ? "avx2" : "scalar"),
                   util::fmt_g(static_cast<std::uint64_t>(
                       r->hrange_pairs_per_sec)),
                   util::fmt_g(static_cast<std::uint64_t>(
                       r->diffusion_pairs_per_sec)),
                   util::fmt_g(static_cast<std::uint64_t>(
                       r->index_gates_per_sec)),
                   util::fmt_f(std::abs(r->norm - 1.0), 9),
                   ok ? "yes" : "NO"});
  }
  rep.table(table);

  const double h_speedup =
      simd_float.hrange_pairs_per_sec /
      std::max(scalar_double.hrange_pairs_per_sec, 1e-9);
  const double d_speedup =
      simd_float.diffusion_pairs_per_sec /
      std::max(scalar_double.diffusion_pairs_per_sec, 1e-9);

  for (const Row* r : rows) {
    MetricRecord m;
    m.label = r->label;
    m.k = static_cast<std::int64_t>(k);
    m.trials = static_cast<std::uint64_t>(reps);
    m.extra.emplace_back("hrange_pairs_per_sec", r->hrange_pairs_per_sec);
    m.extra.emplace_back("diffusion_pairs_per_sec",
                         r->diffusion_pairs_per_sec);
    m.extra.emplace_back("index_gates_per_sec", r->index_gates_per_sec);
    m.extra.emplace_back("norm_drift", std::abs(r->norm - 1.0));
    if (r == &simd_float) {
      m.extra.emplace_back("hrange_speedup_vs_scalar_double", h_speedup);
      m.extra.emplace_back("diffusion_speedup_vs_scalar_double", d_speedup);
    }
    rep.metric(m);
  }

#ifdef NDEBUG
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  bool claim_ok = true;
  if (optimized && avx2) {
    claim_ok = h_speedup >= 2.0 && d_speedup >= 2.0;
    rep.note("simd-float vs scalar-double: h_range " +
             util::fmt_f(h_speedup, 2) + "x, diffusion " +
             util::fmt_f(d_speedup, 2) + "x (claim: both >= 2x). " +
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
