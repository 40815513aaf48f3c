#include "qols/quantum/state_vector.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#define QOLS_X86 1
#include <immintrin.h>
#else
#define QOLS_X86 0
#endif

#include "qols/telemetry/registry.hpp"
#include "qols/util/thread_pool.hpp"

namespace qols::quantum {

std::string_view precision_name(Precision p) noexcept {
  return p == Precision::kSingle ? "float" : "double";
}

bool cpu_supports_avx2() noexcept {
#if QOLS_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool simd_env_disabled(const char* value) noexcept {
  return value != nullptr && *value != '\0' && std::string_view(value) != "0";
}

namespace {

std::atomic<SimdMode> g_requested_simd{SimdMode::kAuto};

// The env override is a process-level switch (CI's scalar-fallback leg sets
// it before launch), so it is read once; set_simd_mode() is the in-process
// knob.
bool auto_avx2_enabled() {
  static const bool enabled =
      cpu_supports_avx2() && !simd_env_disabled(std::getenv("QOLS_NO_AVX2"));
  return enabled;
}

}  // namespace

void set_simd_mode(SimdMode mode) {
  if (mode == SimdMode::kAvx2 && !cpu_supports_avx2()) {
    throw std::invalid_argument(
        "set_simd_mode: kAvx2 requested but this CPU has no AVX2; use kAuto "
        "or kScalar");
  }
  g_requested_simd.store(mode, std::memory_order_relaxed);
}

SimdMode requested_simd_mode() noexcept {
  return g_requested_simd.load(std::memory_order_relaxed);
}

SimdMode active_simd_mode() noexcept {
  switch (g_requested_simd.load(std::memory_order_relaxed)) {
    case SimdMode::kScalar:
      return SimdMode::kScalar;
    case SimdMode::kAvx2:
      return SimdMode::kAvx2;
    case SimdMode::kAuto:
      break;
  }
  return auto_avx2_enabled() ? SimdMode::kAvx2 : SimdMode::kScalar;
}

namespace {

// Below this many amplitudes, kernels run serially: thread dispatch would
// dominate for the tiny registers of small k.
constexpr std::size_t kParallelGrain = std::size_t{1} << 14;

// ---------------------------------------------------------------------------
// Run kernels. Every hot gate decomposes into maximal CONTIGUOUS runs of the
// SoA arrays (see for_pair_runs below), so the kernels are straight-line
// loops over up to four restrict-qualified scalar arrays. Each element-wise
// kernel has ONE source: the *_scalar template is the reference (gcc
// vectorizes it at the baseline ISA), and its *_avx2 twin is that same body
// compiled again under target("avx2") — `flatten` inlines it so gcc
// vectorizes the copy at 256 bits. Both paths perform the same IEEE ops per
// element in the same order (no FMA: AVX2 does not imply it, and the build
// passes -ffp-contract=off), so they are bit-identical, the reductions
// included: the probability sums run serially on both paths, and the mean
// reflection's sums in the same eight lanes on both. The one
// hand-written kernel is h2_span_avx2: its in-register shuffles for strides
// below the lane width ran E22 at k = 5 10-20% faster than a clone of
// h2_span_scalar. active_simd_mode() picks the path.
// ---------------------------------------------------------------------------

template <typename S>
void h_run_scalar(S* __restrict__ rlo, S* __restrict__ rhi,
                  S* __restrict__ ilo, S* __restrict__ ihi, std::size_t n) {
  const S c = static_cast<S>(std::numbers::sqrt2 / 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    const S ra = rlo[i];
    const S rb = rhi[i];
    rlo[i] = (ra + rb) * c;
    rhi[i] = (ra - rb) * c;
    const S ia = ilo[i];
    const S ib = ihi[i];
    ilo[i] = (ia + ib) * c;
    ihi[i] = (ia - ib) * c;
  }
}

// Fused H(q) then H(q+1) on one component array (H is real, so the re and
// im planes transform independently). a/b/c/d are the four runs of a radix-4
// group: base, base+2^q, base+2^(q+1), base+3*2^q. The intermediate rounding
// matches two sequential single-qubit passes exactly, so fusion is bit-exact
// with the unfused ladder — it only halves the memory traffic.
template <typename S>
inline void h2_group_scalar(S* __restrict__ a, S* __restrict__ b,
                            S* __restrict__ c, S* __restrict__ d,
                            std::size_t n) {
  const S h = static_cast<S>(std::numbers::sqrt2 / 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    const S t0 = (a[i] + b[i]) * h;
    const S t1 = (a[i] - b[i]) * h;
    const S t2 = (c[i] + d[i]) * h;
    const S t3 = (c[i] - d[i]) * h;
    a[i] = (t0 + t2) * h;
    b[i] = (t1 + t3) * h;
    c[i] = (t0 - t2) * h;
    d[i] = (t1 - t3) * h;
  }
}

// Fused H(q), H(q+1) over a contiguous span of len scalars holding
// len / (4 * b1) radix-4 groups of stride b1 = 2^q. Group iteration lives
// INSIDE the kernel: a pass over an L1 tile is one call, so the sub-lane
// strides of the lowest qubits cost loop iterations, not function calls
// (the profile killer of a per-group dispatch).
template <typename S>
void h2_span_scalar(S* __restrict__ p, std::size_t len, std::size_t b1) {
  const S h = static_cast<S>(std::numbers::sqrt2 / 2.0);
  if (b1 == 1) {
    for (std::size_t g = 0; g < len; g += 4) {
      const S t0 = (p[g] + p[g + 1]) * h;
      const S t1 = (p[g] - p[g + 1]) * h;
      const S t2 = (p[g + 2] + p[g + 3]) * h;
      const S t3 = (p[g + 2] - p[g + 3]) * h;
      p[g] = (t0 + t2) * h;
      p[g + 1] = (t1 + t3) * h;
      p[g + 2] = (t0 - t2) * h;
      p[g + 3] = (t1 - t3) * h;
    }
    return;
  }
  for (std::size_t g = 0; g < len; g += 4 * b1) {
    h2_group_scalar(p + g, p + g + b1, p + g + 2 * b1, p + g + 3 * b1, b1);
  }
}

template <typename S>
void swap_run_scalar(S* __restrict__ a, S* __restrict__ b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) std::swap(a[i], b[i]);
}

template <typename S>
void neg_run_scalar(S* __restrict__ r, S* __restrict__ im, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = -r[i];
    im[i] = -im[i];
  }
}

template <typename S>
void phase_run_scalar(S* __restrict__ r, S* __restrict__ im, std::size_t n,
                      S pr, S pi) {
  for (std::size_t i = 0; i < n; ++i) {
    const S a = r[i];
    const S b = im[i];
    r[i] = a * pr - b * pi;
    im[i] = a * pi + b * pr;
  }
}

template <typename S>
void scale_run_scalar(S* __restrict__ r, S* __restrict__ im, std::size_t n,
                      S s) {
  for (std::size_t i = 0; i < n; ++i) {
    r[i] *= s;
    im[i] *= s;
  }
}

// Probability mass of a run; accumulates in double for BOTH scalar types
// (the decision-exactness half of the precision contract).
template <typename S>
double prob_run_scalar(const S* __restrict__ r, const S* __restrict__ im,
                       std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = static_cast<double>(r[i]);
    const double b = static_cast<double>(im[i]);
    acc += a * a + b * b;
  }
  return acc;
}

// Sum of one component array's run for the mean reflection, accumulated in
// double for both scalar types. Element i adds into lane i % 8, and the lanes
// combine in one fixed tree, so the baseline build and the AVX2 clone (which
// keeps the eight lanes in two registers) add the same values in the same
// order.
template <typename S>
double sum_run_scalar(const S* __restrict__ p, std::size_t n) {
  double s[8] = {};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) s[l] += static_cast<double>(p[i + l]);
  }
  for (std::size_t l = 0; i + l < n; ++l) s[l] += static_cast<double>(p[i + l]);
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

// amp <- c - amp, with c = 2 * mean of the amplitude's sector.
template <typename S>
void reflect_run_scalar(S* __restrict__ r, S* __restrict__ im, std::size_t n,
                        S cr, S ci) {
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = cr - r[i];
    im[i] = ci - im[i];
  }
}

// Masked forms for A3's oracle over a run of streamed bits: element i is
// touched iff ones[i] != 0 (the run's own 0/1 input bytes). A select, not a
// branch, so the clones vectorize; a swap or sign flip is exact either way.
template <typename S>
void masked_swap_run_scalar(S* __restrict__ ra, S* __restrict__ rb,
                            S* __restrict__ ia, S* __restrict__ ib,
                            const std::uint8_t* __restrict__ ones,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool on = ones[i] != 0;
    const S xr = ra[i];
    const S yr = rb[i];
    ra[i] = on ? yr : xr;
    rb[i] = on ? xr : yr;
    const S xi = ia[i];
    const S yi = ib[i];
    ia[i] = on ? yi : xi;
    ib[i] = on ? xi : yi;
  }
}

template <typename S>
void masked_neg_run_scalar(S* __restrict__ r, S* __restrict__ im,
                           const std::uint8_t* __restrict__ ones,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool on = ones[i] != 0;
    const S x = r[i];
    const S y = im[i];
    r[i] = on ? -x : x;
    im[i] = on ? -y : y;
  }
}

#if QOLS_X86
#define QOLS_AVX2_CLONE __attribute__((target("avx2"), flatten))
#else
#define QOLS_AVX2_CLONE
#endif

template <typename S>
QOLS_AVX2_CLONE void h_run_avx2(S* __restrict__ rlo, S* __restrict__ rhi,
                                S* __restrict__ ilo, S* __restrict__ ihi,
                                std::size_t n) {
  h_run_scalar(rlo, rhi, ilo, ihi, n);
}

template <typename S>
QOLS_AVX2_CLONE void swap_run_avx2(S* __restrict__ a, S* __restrict__ b,
                                   std::size_t n) {
  swap_run_scalar(a, b, n);
}

template <typename S>
QOLS_AVX2_CLONE void neg_run_avx2(S* __restrict__ r, S* __restrict__ im,
                                  std::size_t n) {
  neg_run_scalar(r, im, n);
}

template <typename S>
QOLS_AVX2_CLONE void phase_run_avx2(S* __restrict__ r, S* __restrict__ im,
                                    std::size_t n, S pr, S pi) {
  phase_run_scalar(r, im, n, pr, pi);
}

template <typename S>
QOLS_AVX2_CLONE void scale_run_avx2(S* __restrict__ r, S* __restrict__ im,
                                    std::size_t n, S s) {
  scale_run_scalar(r, im, n, s);
}

template <typename S>
QOLS_AVX2_CLONE void masked_swap_run_avx2(S* __restrict__ ra,
                                          S* __restrict__ rb,
                                          S* __restrict__ ia,
                                          S* __restrict__ ib,
                                          const std::uint8_t* __restrict__ ones,
                                          std::size_t n) {
  masked_swap_run_scalar(ra, rb, ia, ib, ones, n);
}

template <typename S>
QOLS_AVX2_CLONE void masked_neg_run_avx2(S* __restrict__ r, S* __restrict__ im,
                                         const std::uint8_t* __restrict__ ones,
                                         std::size_t n) {
  masked_neg_run_scalar(r, im, ones, n);
}

template <typename S>
QOLS_AVX2_CLONE double prob_run_avx2(const S* __restrict__ r,
                                     const S* __restrict__ im,
                                     std::size_t n) {
  return prob_run_scalar(r, im, n);
}

template <typename S>
QOLS_AVX2_CLONE double sum_run_avx2(const S* __restrict__ p, std::size_t n) {
  return sum_run_scalar(p, n);
}

template <typename S>
QOLS_AVX2_CLONE void reflect_run_avx2(S* __restrict__ r, S* __restrict__ im,
                                      std::size_t n, S cr, S ci) {
  reflect_run_scalar(r, im, n, cr, ci);
}

#if QOLS_X86

// Span forms of the fused radix-4 pass. Strides below the vector width use
// in-register shuffles — each lane still sees the exact scalar op sequence
// (adds commute bit-exactly), so scalar and AVX2 paths stay bit-identical.
__attribute__((target("avx2"))) void h2_span_avx2(double* __restrict__ p,
                                                  std::size_t len,
                                                  std::size_t b1) {
  const __m256d h = _mm256_set1_pd(std::numbers::sqrt2 / 2.0);
  if (b1 == 1) {
    // One vector = one group [a b c d].
    for (std::size_t g = 0; g < len; g += 4) {
      const __m256d v = _mm256_loadu_pd(p + g);
      const __m256d sw = _mm256_permute_pd(v, 0b0101);  // [b a d c]
      // addsub then adjacent-swap yields [a+b, a-b, c+d, c-d].
      const __m256d s1 = _mm256_mul_pd(
          _mm256_permute_pd(_mm256_addsub_pd(v, sw), 0b0101), h);
      const __m256d sw2 = _mm256_permute2f128_pd(s1, s1, 0x01);
      const __m256d r = _mm256_blend_pd(_mm256_add_pd(s1, sw2),
                                        _mm256_sub_pd(sw2, s1), 0b1100);
      _mm256_storeu_pd(p + g, _mm256_mul_pd(r, h));
    }
    return;
  }
  if (b1 == 2) {
    // Two vectors = one group: u = [a0 a1 b0 b1], w = [c0 c1 d0 d1].
    for (std::size_t g = 0; g < len; g += 8) {
      const __m256d u = _mm256_loadu_pd(p + g);
      const __m256d w = _mm256_loadu_pd(p + g + 4);
      const __m256d su = _mm256_permute2f128_pd(u, u, 0x01);
      const __m256d sv = _mm256_permute2f128_pd(w, w, 0x01);
      const __m256d s1u = _mm256_mul_pd(
          _mm256_blend_pd(_mm256_add_pd(u, su), _mm256_sub_pd(su, u), 0b1100),
          h);
      const __m256d s1w = _mm256_mul_pd(
          _mm256_blend_pd(_mm256_add_pd(w, sv), _mm256_sub_pd(sv, w), 0b1100),
          h);
      _mm256_storeu_pd(p + g, _mm256_mul_pd(_mm256_add_pd(s1u, s1w), h));
      _mm256_storeu_pd(p + g + 4, _mm256_mul_pd(_mm256_sub_pd(s1u, s1w), h));
    }
    return;
  }
  // b1 >= 4 (a power of two): full-width butterflies, no tails.
  for (std::size_t g = 0; g < len; g += 4 * b1) {
    double* __restrict__ a = p + g;
    double* __restrict__ b = a + b1;
    double* __restrict__ c = b + b1;
    double* __restrict__ d = c + b1;
    for (std::size_t i = 0; i < b1; i += 4) {
      const __m256d va = _mm256_loadu_pd(a + i);
      const __m256d vb = _mm256_loadu_pd(b + i);
      const __m256d vc = _mm256_loadu_pd(c + i);
      const __m256d vd = _mm256_loadu_pd(d + i);
      const __m256d t0 = _mm256_mul_pd(_mm256_add_pd(va, vb), h);
      const __m256d t1 = _mm256_mul_pd(_mm256_sub_pd(va, vb), h);
      const __m256d t2 = _mm256_mul_pd(_mm256_add_pd(vc, vd), h);
      const __m256d t3 = _mm256_mul_pd(_mm256_sub_pd(vc, vd), h);
      _mm256_storeu_pd(a + i, _mm256_mul_pd(_mm256_add_pd(t0, t2), h));
      _mm256_storeu_pd(b + i, _mm256_mul_pd(_mm256_add_pd(t1, t3), h));
      _mm256_storeu_pd(c + i, _mm256_mul_pd(_mm256_sub_pd(t0, t2), h));
      _mm256_storeu_pd(d + i, _mm256_mul_pd(_mm256_sub_pd(t1, t3), h));
    }
  }
}

__attribute__((target("avx2"))) void h2_span_avx2(float* __restrict__ p,
                                                  std::size_t len,
                                                  std::size_t b1) {
  const __m256 h =
      _mm256_set1_ps(static_cast<float>(std::numbers::sqrt2 / 2.0));
  if (len < 8) {
    // A lone 4-float group (a 2-qubit register) is narrower than one
    // vector: the loops below would read and write past it.
    h2_span_scalar(p, len, b1);
    return;
  }
  if (b1 == 1) {
    // One vector = two groups [a b c d | a' b' c' d'].
    for (std::size_t g = 0; g < len; g += 8) {
      const __m256 v = _mm256_loadu_ps(p + g);
      const __m256 sw = _mm256_permute_ps(v, 0b10110001);  // [b a d c]
      const __m256 s1 = _mm256_mul_ps(
          _mm256_permute_ps(_mm256_addsub_ps(v, sw), 0b10110001), h);
      const __m256 sw2 = _mm256_permute_ps(s1, 0b01001110);  // [c d a b]
      const __m256 r = _mm256_blend_ps(_mm256_add_ps(s1, sw2),
                                       _mm256_sub_ps(sw2, s1), 0b11001100);
      _mm256_storeu_ps(p + g, _mm256_mul_ps(r, h));
    }
    return;
  }
  if (b1 == 2) {
    // One vector = one group [a0 a1 b0 b1 c0 c1 d0 d1].
    for (std::size_t g = 0; g < len; g += 8) {
      const __m256 v = _mm256_loadu_ps(p + g);
      const __m256 sw = _mm256_permute_ps(v, 0b01001110);  // [b0 b1 a0 a1 ..]
      const __m256 s1 = _mm256_mul_ps(
          _mm256_blend_ps(_mm256_add_ps(v, sw), _mm256_sub_ps(sw, v),
                          0b11001100),
          h);
      const __m256 sw2 = _mm256_permute2f128_ps(s1, s1, 0x01);
      const __m256 r = _mm256_blend_ps(_mm256_add_ps(s1, sw2),
                                       _mm256_sub_ps(sw2, s1), 0b11110000);
      _mm256_storeu_ps(p + g, _mm256_mul_ps(r, h));
    }
    return;
  }
  if (b1 == 4) {
    // Two vectors = one group: u = [a0..a3 b0..b3], w = [c0..c3 d0..d3].
    for (std::size_t g = 0; g < len; g += 16) {
      const __m256 u = _mm256_loadu_ps(p + g);
      const __m256 w = _mm256_loadu_ps(p + g + 8);
      const __m256 su = _mm256_permute2f128_ps(u, u, 0x01);
      const __m256 sv = _mm256_permute2f128_ps(w, w, 0x01);
      const __m256 s1u = _mm256_mul_ps(
          _mm256_blend_ps(_mm256_add_ps(u, su), _mm256_sub_ps(su, u),
                          0b11110000),
          h);
      const __m256 s1w = _mm256_mul_ps(
          _mm256_blend_ps(_mm256_add_ps(w, sv), _mm256_sub_ps(sv, w),
                          0b11110000),
          h);
      _mm256_storeu_ps(p + g, _mm256_mul_ps(_mm256_add_ps(s1u, s1w), h));
      _mm256_storeu_ps(p + g + 8, _mm256_mul_ps(_mm256_sub_ps(s1u, s1w), h));
    }
    return;
  }
  // b1 >= 8 (a power of two): full-width butterflies, no tails.
  for (std::size_t g = 0; g < len; g += 4 * b1) {
    float* __restrict__ a = p + g;
    float* __restrict__ b = a + b1;
    float* __restrict__ c = b + b1;
    float* __restrict__ d = c + b1;
    for (std::size_t i = 0; i < b1; i += 8) {
      const __m256 va = _mm256_loadu_ps(a + i);
      const __m256 vb = _mm256_loadu_ps(b + i);
      const __m256 vc = _mm256_loadu_ps(c + i);
      const __m256 vd = _mm256_loadu_ps(d + i);
      const __m256 t0 = _mm256_mul_ps(_mm256_add_ps(va, vb), h);
      const __m256 t1 = _mm256_mul_ps(_mm256_sub_ps(va, vb), h);
      const __m256 t2 = _mm256_mul_ps(_mm256_add_ps(vc, vd), h);
      const __m256 t3 = _mm256_mul_ps(_mm256_sub_ps(vc, vd), h);
      _mm256_storeu_ps(a + i, _mm256_mul_ps(_mm256_add_ps(t0, t2), h));
      _mm256_storeu_ps(b + i, _mm256_mul_ps(_mm256_add_ps(t1, t3), h));
      _mm256_storeu_ps(c + i, _mm256_mul_ps(_mm256_sub_ps(t0, t2), h));
      _mm256_storeu_ps(d + i, _mm256_mul_ps(_mm256_sub_ps(t1, t3), h));
    }
  }
}

#else

template <typename S>
void h2_span_avx2(S* p, std::size_t len, std::size_t b1) {
  h2_span_scalar(p, len, b1);
}

#endif  // QOLS_X86

// Runtime-dispatch wrappers. `avx2` is hoisted out of the per-run loops by
// the callers (one active_simd_mode() read per gate application); it is never
// set without AVX2 hardware, so off x86 both arms run the scalar body.

template <typename S>
inline void h_run(S* rlo, S* rhi, S* ilo, S* ihi, std::size_t n, bool avx2) {
  if (avx2) return h_run_avx2(rlo, rhi, ilo, ihi, n);
  h_run_scalar(rlo, rhi, ilo, ihi, n);
}

template <typename S>
inline void h2_span(S* p, std::size_t len, std::size_t b1, bool avx2) {
  if (avx2) return h2_span_avx2(p, len, b1);
  h2_span_scalar(p, len, b1);
}

template <typename S>
inline void swap_run(S* a, S* b, std::size_t n, bool avx2) {
  if (avx2) return swap_run_avx2(a, b, n);
  swap_run_scalar(a, b, n);
}

template <typename S>
inline void neg_run(S* r, S* im, std::size_t n, bool avx2) {
  if (avx2) return neg_run_avx2(r, im, n);
  neg_run_scalar(r, im, n);
}

template <typename S>
inline void phase_run(S* r, S* im, std::size_t n, S pr, S pi, bool avx2) {
  if (avx2) return phase_run_avx2(r, im, n, pr, pi);
  phase_run_scalar(r, im, n, pr, pi);
}

template <typename S>
inline void scale_run(S* r, S* im, std::size_t n, S s, bool avx2) {
  if (avx2) return scale_run_avx2(r, im, n, s);
  scale_run_scalar(r, im, n, s);
}

template <typename S>
inline void masked_swap_run(S* ra, S* rb, S* ia, S* ib,
                            const std::uint8_t* ones, std::size_t n,
                            bool avx2) {
  if (avx2) return masked_swap_run_avx2(ra, rb, ia, ib, ones, n);
  masked_swap_run_scalar(ra, rb, ia, ib, ones, n);
}

template <typename S>
inline void masked_neg_run(S* r, S* im, const std::uint8_t* ones,
                           std::size_t n, bool avx2) {
  if (avx2) return masked_neg_run_avx2(r, im, ones, n);
  masked_neg_run_scalar(r, im, ones, n);
}

template <typename S>
inline double prob_run(const S* r, const S* im, std::size_t n, bool avx2) {
  return avx2 ? prob_run_avx2(r, im, n) : prob_run_scalar(r, im, n);
}

template <typename S>
inline double sum_run(const S* p, std::size_t n, bool avx2) {
  return avx2 ? sum_run_avx2(p, n) : sum_run_scalar(p, n);
}

template <typename S>
inline void reflect_run(S* r, S* im, std::size_t n, S cr, S ci, bool avx2) {
  if (avx2) return reflect_run_avx2(r, im, n, cr, ci);
  reflect_run_scalar(r, im, n, cr, ci);
}

// ---------------------------------------------------------------------------
// Iteration helpers.
// ---------------------------------------------------------------------------

// Blocked pair iteration for qubit q: decomposes the dim/2 pair indices into
// maximal CONTIGUOUS runs. fn(lo, n) receives a run where amplitudes
// [lo, lo+n) pair with [lo+bit, lo+bit+n); n <= 2^q, so runs below q = lane
// width degenerate to short segments the run kernels finish in their scalar
// tails (the n = 1..4 edge cases of the SIMD tests). Runs are dispatched in
// parallel chunks over the project ThreadPool above kParallelGrain pairs.
template <typename Fn>
void for_pair_runs(std::size_t dim, unsigned q, Fn&& fn) {
  const std::size_t half = dim >> 1;
  const std::size_t bit = std::size_t{1} << q;
  const std::size_t low_mask = bit - 1;
  auto body = [&](std::size_t glo, std::size_t ghi) {
    std::size_t g = glo;
    while (g < ghi) {
      const std::size_t low = g & low_mask;
      const std::size_t run = std::min(ghi - g, bit - low);
      const std::size_t lo = ((g & ~low_mask) << 1) | low;
      fn(lo, run);
      g += run;
    }
  };
  if (half <= kParallelGrain) {
    body(0, half);
  } else {
    util::parallel_for(0, half, kParallelGrain, body);
  }
}

// fn(f | want) for every subset f of `free`, 0 first.
template <typename Fn>
void for_subsets(std::size_t free, std::size_t want, Fn&& fn) {
  std::size_t f = 0;
  do {
    fn(f | want);
    f = (f - free) & free;
  } while (f != 0);
}

// Matching-set enumeration, the core of every pattern-controlled gate:
// visits exactly the basis indices i with (i & fixed) == want. They form
// contiguous runs [base, base + run) of length run = 2^(trailing free bits),
// one per subset f of the remaining free bits, stepped in O(1) by the
// subset-iteration identity f' = (f - free_high) & free_high — no per-qubit
// walk, and work proportional to the matching count, not to dim. When qubit
// 0 is fixed (run 1, every A3 oracle) `one(i)` runs inline per index;
// otherwise `runs(base, run, avx2)` gets each whole run for the vector
// kernels, with the SIMD mode read once per gate.
template <typename One, typename Runs>
void for_matching(std::size_t dim, std::size_t fixed, std::size_t want,
                  One&& one, Runs&& runs) {
  assert(fixed < dim && (want & ~fixed) == 0);
  const std::size_t run =
      fixed == 0 ? dim : std::size_t{1} << std::countr_zero(fixed);
  const std::size_t free_high = (dim - 1) & ~fixed & ~(run - 1);
  if (run == 1) {
    for_subsets(free_high, want, one);
    return;
  }
  const bool avx2 = active_simd_mode() == SimdMode::kAvx2;
  for_subsets(free_high, want,
              [&](std::size_t base) { runs(base, run, avx2); });
}

// Bits [first, first + count): an index register's mask.
constexpr std::size_t range_mask(unsigned first, unsigned count) {
  return ((std::size_t{1} << count) - 1) << first;
}

// A control pattern as (mask, want): i matches iff (i & mask) == want.
std::pair<std::size_t, std::size_t> pattern_of(
    std::span<const ControlTerm> controls) {
  std::size_t mask = 0;
  std::size_t want = 0;
  for (const ControlTerm& c : controls) {
    mask |= std::size_t{1} << c.qubit;
    if (c.value) want |= std::size_t{1} << c.qubit;
  }
  return {mask, want};
}

}  // namespace

template <typename Scalar>
StateVectorT<Scalar>::StateVectorT(unsigned num_qubits)
    : num_qubits_(num_qubits) {
  // Validate before the allocation: 2^31 amplitudes would already be a
  // 32 GiB request, so a bad count must fail with a diagnosis, not an
  // attempted multi-GiB allocation (or worse, a shift past 63 bits).
  if (num_qubits == 0 || num_qubits > 30) {
    throw std::invalid_argument(
        "StateVector: num_qubits must be in [1, 30] (16 GiB of amplitudes "
        "at 30), got " +
        std::to_string(num_qubits) +
        "; use the structured backend for larger index registers");
  }
  const std::size_t n = std::size_t{1} << num_qubits;
  re_.assign(n, Scalar(0));
  im_.assign(n, Scalar(0));
  re_[0] = Scalar(1);
}

template <typename Scalar>
void StateVectorT<Scalar>::reset() {
  set_basis_state(0);
}

template <typename Scalar>
void StateVectorT<Scalar>::set_basis_state(std::size_t basis) {
  assert(basis < dim());
  std::fill(re_.begin(), re_.end(), Scalar(0));
  std::fill(im_.begin(), im_.end(), Scalar(0));
  re_[basis] = Scalar(1);
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_h(unsigned q) {
  assert(q < num_qubits_);
  const bool avx2 = active_simd_mode() == SimdMode::kAvx2;
  Scalar* re = re_.data();
  Scalar* im = im_.data();
  const std::size_t bit = std::size_t{1} << q;
  for_pair_runs(dim(), q, [=](std::size_t lo, std::size_t n) {
    h_run(re + lo, re + lo + bit, im + lo, im + lo + bit, n, avx2);
  });
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_x(unsigned q) {
  assert(q < num_qubits_);
  const bool avx2 = active_simd_mode() == SimdMode::kAvx2;
  Scalar* re = re_.data();
  Scalar* im = im_.data();
  const std::size_t bit = std::size_t{1} << q;
  for_pair_runs(dim(), q, [=](std::size_t lo, std::size_t n) {
    swap_run(re + lo, re + lo + bit, n, avx2);
    swap_run(im + lo, im + lo + bit, n, avx2);
  });
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_z(unsigned q) {
  assert(q < num_qubits_);
  const bool avx2 = active_simd_mode() == SimdMode::kAvx2;
  Scalar* re = re_.data();
  Scalar* im = im_.data();
  const std::size_t bit = std::size_t{1} << q;
  for_pair_runs(dim(), q, [=](std::size_t lo, std::size_t n) {
    neg_run(re + lo + bit, im + lo + bit, n, avx2);
  });
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_t(unsigned q) {
  constexpr double c = std::numbers::sqrt2 / 2.0;
  apply_phase(q, Amplitude{c, c});
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_tdg(unsigned q) {
  constexpr double c = std::numbers::sqrt2 / 2.0;
  apply_phase(q, Amplitude{c, -c});
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_s(unsigned q) {
  apply_phase(q, Amplitude{0.0, 1.0});
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_sdg(unsigned q) {
  apply_phase(q, Amplitude{0.0, -1.0});
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_phase(unsigned q, Amplitude phase) {
  assert(q < num_qubits_);
  if (phase == Amplitude{-1.0, 0.0}) {  // Z: a negation, not a rotation
    apply_z(q);
    return;
  }
  const bool avx2 = active_simd_mode() == SimdMode::kAvx2;
  Scalar* re = re_.data();
  Scalar* im = im_.data();
  const std::size_t bit = std::size_t{1} << q;
  const Scalar pr = static_cast<Scalar>(phase.real());
  const Scalar pi = static_cast<Scalar>(phase.imag());
  for_pair_runs(dim(), q, [=](std::size_t lo, std::size_t n) {
    phase_run(re + lo + bit, im + lo + bit, n, pr, pi, avx2);
  });
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_single(unsigned q, Amplitude u00,
                                        Amplitude u01, Amplitude u10,
                                        Amplitude u11) {
  assert(q < num_qubits_);
  Scalar* re = re_.data();
  Scalar* im = im_.data();
  const std::size_t bit = std::size_t{1} << q;
  for_pair_runs(dim(), q, [=](std::size_t lo, std::size_t n) {
    for (std::size_t i0 = lo; i0 < lo + n; ++i0) {
      const std::size_t i1 = i0 + bit;
      const Amplitude a{static_cast<double>(re[i0]),
                        static_cast<double>(im[i0])};
      const Amplitude b{static_cast<double>(re[i1]),
                        static_cast<double>(im[i1])};
      const Amplitude r0 = u00 * a + u01 * b;
      const Amplitude r1 = u10 * a + u11 * b;
      re[i0] = static_cast<Scalar>(r0.real());
      im[i0] = static_cast<Scalar>(r0.imag());
      re[i1] = static_cast<Scalar>(r1.real());
      im[i1] = static_cast<Scalar>(r1.imag());
    }
  });
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_cnot(unsigned control, unsigned target) {
  assert(control < num_qubits_ && target < num_qubits_);
  if (control == target) return;  // paper's a == b => identity convention
  const std::size_t cbit = std::size_t{1} << control;
  swap_matching(cbit, cbit, std::size_t{1} << target);
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_cz(unsigned a, unsigned b) {
  assert(a < num_qubits_ && b < num_qubits_);
  if (a == b) return;
  const std::size_t both = (std::size_t{1} << a) | (std::size_t{1} << b);
  negate_matching(both, both);
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_swap(unsigned a, unsigned b) {
  if (a == b) return;
  apply_cnot(a, b);
  apply_cnot(b, a);
  apply_cnot(a, b);
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_mcx(std::span<const ControlTerm> controls,
                                     unsigned target) {
  assert(target < num_qubits_);
  const auto [mask, want] = pattern_of(controls);
  swap_matching(mask, want, std::size_t{1} << target);
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_mcz(std::span<const ControlTerm> controls) {
  const auto [mask, want] = pattern_of(controls);
  negate_matching(mask, want);
}

template <typename Scalar>
void StateVectorT<Scalar>::negate_matching(std::size_t mask,
                                           std::size_t want) {
  Scalar* re = re_.data();
  Scalar* im = im_.data();
  for_matching(
      dim(), mask, want,
      [=](std::size_t i) {
        re[i] = -re[i];
        im[i] = -im[i];
      },
      [=](std::size_t base, std::size_t n, bool avx2) {
        neg_run(re + base, im + base, n, avx2);
      });
}

template <typename Scalar>
void StateVectorT<Scalar>::swap_matching(std::size_t mask, std::size_t want,
                                         std::size_t tbit) {
  assert((mask & tbit) == 0 && tbit < dim());
  Scalar* re = re_.data();
  Scalar* im = im_.data();
  for_matching(
      dim(), mask | tbit, want,
      [=](std::size_t i) {
        std::swap(re[i], re[i | tbit]);
        std::swap(im[i], im[i | tbit]);
      },
      [=](std::size_t base, std::size_t n, bool avx2) {
        swap_run(re + base, re + base + tbit, n, avx2);
        swap_run(im + base, im + base + tbit, n, avx2);
      });
}

// The hot A3 ladder. A naive ladder streams the whole array once per qubit
// — at the dense wall that is 2k full passes over a multi-GiB/s-bound
// working set, and the ISA stops mattering. This version cuts the passes
// two ways, both bit-exact with the sequential ladder (qubit order is
// preserved and fusion keeps every intermediate rounding):
//
//   1. Cache tiles: every qubit whose 2^(q+1)-wide butterfly group fits in
//      an L1-sized tile is applied while the tile is resident — ONE memory
//      pass for the whole low sub-ladder.
//   2. Radix-4 fusion: consecutive qubits (q, q+1) combine into one pass
//      (h2_span), halving traffic for the high, streaming qubits too.
template <typename Scalar>
void StateVectorT<Scalar>::apply_h_range(unsigned first, unsigned count) {
  assert(first + count <= num_qubits_);
  if (count == 0) return;
  // Per-kernel profiling hook: both scalar instantiations resolve the same
  // site, so "quantum.h_range.{calls,ns}" aggregates float and double work.
  static telemetry::SpanSite site = telemetry::SpanSite::resolve(
      "quantum.h_range");
  telemetry::TraceSpan span(site);
  const bool avx2 = active_simd_mode() == SimdMode::kAvx2;
  Scalar* re = re_.data();
  Scalar* im = im_.data();
  const std::size_t n = dim();
  const unsigned last = first + count;

  // 2^12 doubles / 2^13 floats keep a tile's re+im working set at 64 KiB.
  const unsigned block_log =
      std::min<unsigned>(sizeof(Scalar) == 8 ? 12u : 13u, num_qubits_);
  const std::size_t block = std::size_t{1} << block_log;
  const unsigned low_end = std::min(last, block_log);

  if (first < low_end) {
    auto tile = [=](std::size_t lo, std::size_t hi) {
      for (std::size_t b0 = lo; b0 < hi; b0 += block) {
        // Run each component array's whole sub-ladder back to back: the re
        // and im planes are independent under H, so this reordering is
        // bit-exact and keeps one 32 KiB plane L1-hot across all passes.
        for (Scalar* arr : {re, im}) {
          for (unsigned q = first; q + 1 < low_end; q += 2) {
            h2_span(arr + b0, block, std::size_t{1} << q, avx2);
          }
        }
        const unsigned q = first + ((low_end - first) & ~1u);
        if (q < low_end) {
          const std::size_t bit = std::size_t{1} << q;
          for (std::size_t g = b0; g < b0 + block; g += 2 * bit) {
            h_run(re + g, re + g + bit, im + g, im + g + bit, bit, avx2);
          }
        }
      }
    };
    if (n <= kParallelGrain) {
      tile(0, n);
    } else {
      util::parallel_for(0, n, std::max(block, kParallelGrain), tile);
    }
  }

  unsigned q = std::max(first, low_end);
  for (; q + 1 < last; q += 2) {
    const std::size_t b1 = std::size_t{1} << q;
    const std::size_t group = 4 * b1;
    auto body = [=](std::size_t lo, std::size_t hi) {
      h2_span(re + lo, hi - lo, b1, avx2);
      h2_span(im + lo, hi - lo, b1, avx2);
    };
    // Chunk boundaries must fall on group boundaries (both powers of two).
    const std::size_t grain = std::max(group, kParallelGrain);
    if (n <= grain) {
      body(0, n);
    } else {
      util::parallel_for(0, n, grain, body);
    }
  }
  if (q < last) apply_h(q);
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_reflect_zero(unsigned first, unsigned count) {
  assert(first + count <= num_qubits_);
  // Branchless form of "negate every i with (i & mask) != 0": one streaming
  // negate-all pass, then flip the 2^(n-count) survivors of the zero block
  // back. The second pass costs dim / 2^count — negligible for A3's full
  // index-register reflections.
  const bool avx2 = active_simd_mode() == SimdMode::kAvx2;
  Scalar* re = re_.data();
  Scalar* im = im_.data();
  const std::size_t n = dim();
  auto body = [=](std::size_t lo, std::size_t hi) {
    neg_run(re + lo, im + lo, hi - lo, avx2);
  };
  if (n <= kParallelGrain) {
    body(0, n);
  } else {
    util::parallel_for(0, n, kParallelGrain, body);
  }
  negate_matching(range_mask(first, count), 0);
}

// 2|u><u| - I on the index register [0, count) in two streaming passes. The
// register is dim / 2^count sectors, one per value of the qubits above the
// index register, each a contiguous block of m = 2^count amplitudes; each
// reflects about its own mean, amp <- 2 * mean - amp. Pass 1 sums fixed
// chunks of min(m, kParallelGrain) amplitudes, and a sector's chunk sums add
// in index order, so the means depend on the register shape alone, never on
// how many threads ran the chunks. Pass 2 writes 2 * mean - amp.
template <typename Scalar>
void StateVectorT<Scalar>::apply_mean_reflection(unsigned first,
                                                 unsigned count) {
  if (first != 0) {
    throw std::invalid_argument(
        "StateVectorT::apply_mean_reflection: the index register must start "
        "at qubit 0, got first = " +
        std::to_string(first));
  }
  assert(count <= num_qubits_);
  const bool avx2 = active_simd_mode() == SimdMode::kAvx2;
  Scalar* re = re_.data();
  Scalar* im = im_.data();
  const std::size_t n = dim();
  const std::size_t sector = std::size_t{1} << count;
  const std::size_t chunk = std::min(sector, kParallelGrain);
  std::vector<Amplitude> sums(n / chunk);
  auto sum_body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      sums[c] = {sum_run(re + c * chunk, chunk, avx2),
                 sum_run(im + c * chunk, chunk, avx2)};
    }
  };
  if (n <= kParallelGrain) {
    sum_body(0, sums.size());
  } else {
    util::parallel_for(0, sums.size(), 1, sum_body);
  }
  // Sector s's centre 2 * mean_s overwrites sums[s]: it reads only
  // sums[s * per_sector ...], none of which an earlier sector overwrote.
  const std::size_t per_sector = sector / chunk;
  const double scale = 2.0 / static_cast<double>(sector);
  for (std::size_t s = 0; s < n / sector; ++s) {
    Amplitude acc = sums[s * per_sector];
    for (std::size_t c = 1; c < per_sector; ++c) {
      acc += sums[s * per_sector + c];
    }
    sums[s] = acc * scale;
  }
  auto reflect_body = [&](std::size_t lo, std::size_t hi) {
    while (lo < hi) {
      const std::size_t s = lo >> count;
      const std::size_t end = std::min(hi, (s + 1) << count);
      reflect_run(re + lo, im + lo, end - lo,
                  static_cast<Scalar>(sums[s].real()),
                  static_cast<Scalar>(sums[s].imag()), avx2);
      lo = end;
    }
  };
  if (n <= kParallelGrain) {
    reflect_body(0, n);
  } else {
    util::parallel_for(0, n, kParallelGrain, reflect_body);
  }
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_phase_flip_set(
    std::span<const std::uint64_t> marked) {
  for (std::uint64_t i : marked) {
    assert(i < dim());
    re_[i] = -re_[i];
    im_[i] = -im_[i];
  }
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_x_on_index(unsigned first, unsigned count,
                                            std::uint64_t index,
                                            unsigned target) {
  assert(first + count <= num_qubits_ && target < num_qubits_);
  assert(index < (std::uint64_t{1} << count));
  swap_matching(range_mask(first, count),
                static_cast<std::size_t>(index) << first,
                std::size_t{1} << target);
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_z_on_index(unsigned first, unsigned count,
                                            std::uint64_t index, unsigned h) {
  assert(first + count <= num_qubits_ && h < num_qubits_);
  assert(index < (std::uint64_t{1} << count));
  const std::size_t hbit = std::size_t{1} << h;
  negate_matching(range_mask(first, count) | hbit,
                  (static_cast<std::size_t>(index) << first) | hbit);
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_cx_on_index(unsigned first, unsigned count,
                                             std::uint64_t index, unsigned h,
                                             unsigned target) {
  assert(first + count <= num_qubits_);
  assert(h < num_qubits_ && target < num_qubits_ && h != target);
  assert(index < (std::uint64_t{1} << count));
  const std::size_t hbit = std::size_t{1} << h;
  swap_matching(range_mask(first, count) | hbit,
                (static_cast<std::size_t>(index) << first) | hbit,
                std::size_t{1} << target);
}

// A3's oracles over a run of bits. With the index register in the low bits,
// the amplitudes a run touches form one contiguous range per value of the
// qubits above it, so each oracle is a masked pass over those ranges: V_x
// swaps [off, off+len) with its h=1 twin for each l, W_y negates the h=1
// ranges, R_y swaps the h=1 ranges with their l=1 twins.
template <typename Scalar>
void StateVectorT<Scalar>::swap_on_index_run(unsigned count,
                                             std::uint64_t offset,
                                             std::span<const std::uint8_t> ones,
                                             std::size_t mask,
                                             std::size_t want,
                                             std::size_t tbit) {
  const std::size_t index_mask = range_mask(0, count);
  assert(count < num_qubits_ && tbit < dim());
  assert(((mask | tbit) & index_mask) == 0 && (mask & tbit) == 0);
  assert(offset + ones.size() <= index_mask + 1);
  const bool avx2 = active_simd_mode() == SimdMode::kAvx2;
  Scalar* re = re_.data() + offset;
  Scalar* im = im_.data() + offset;
  for_subsets((dim() - 1) & ~index_mask & ~mask & ~tbit, want,
              [&](std::size_t base) {
                masked_swap_run(re + base, re + base + tbit, im + base,
                                im + base + tbit, ones.data(), ones.size(),
                                avx2);
              });
}

template <typename Scalar>
void StateVectorT<Scalar>::negate_on_index_run(
    unsigned count, std::uint64_t offset, std::span<const std::uint8_t> ones,
    std::size_t mask, std::size_t want) {
  const std::size_t index_mask = range_mask(0, count);
  assert(count < num_qubits_ && (mask & index_mask) == 0);
  assert(offset + ones.size() <= index_mask + 1);
  const bool avx2 = active_simd_mode() == SimdMode::kAvx2;
  Scalar* re = re_.data() + offset;
  Scalar* im = im_.data() + offset;
  for_subsets((dim() - 1) & ~index_mask & ~mask, want, [&](std::size_t base) {
    masked_neg_run(re + base, im + base, ones.data(), ones.size(), avx2);
  });
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_x_on_index_run(
    unsigned count, std::uint64_t offset, std::span<const std::uint8_t> ones,
    unsigned target) {
  assert(target < num_qubits_);
  swap_on_index_run(count, offset, ones, 0, 0, std::size_t{1} << target);
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_z_on_index_run(
    unsigned count, std::uint64_t offset, std::span<const std::uint8_t> ones,
    unsigned h) {
  assert(h < num_qubits_);
  const std::size_t hbit = std::size_t{1} << h;
  negate_on_index_run(count, offset, ones, hbit, hbit);
}

template <typename Scalar>
void StateVectorT<Scalar>::apply_cx_on_index_run(
    unsigned count, std::uint64_t offset, std::span<const std::uint8_t> ones,
    unsigned h, unsigned target) {
  assert(h < num_qubits_ && target < num_qubits_ && h != target);
  const std::size_t hbit = std::size_t{1} << h;
  swap_on_index_run(count, offset, ones, hbit, hbit,
                    std::size_t{1} << target);
}

template <typename Scalar>
double StateVectorT<Scalar>::probability_one(unsigned q) const {
  assert(q < num_qubits_);
  const bool avx2 = active_simd_mode() == SimdMode::kAvx2;
  const Scalar* re = re_.data();
  const Scalar* im = im_.data();
  const std::size_t half = dim() >> 1;
  const std::size_t bit = std::size_t{1} << q;
  const std::size_t low_mask = bit - 1;
  // Serial run walk (a double accumulator is not safely shareable across
  // pool workers); the probe runs once per measurement, not per gate.
  double p = 0.0;
  std::size_t g = 0;
  while (g < half) {
    const std::size_t low = g & low_mask;
    const std::size_t run = std::min(half - g, bit - low);
    const std::size_t hi = (((g & ~low_mask) << 1) | low) | bit;
    p += prob_run(re + hi, im + hi, run, avx2);
    g += run;
  }
  return p;
}

template <typename Scalar>
bool StateVectorT<Scalar>::measure(unsigned q, util::Rng& rng) {
  const double p1 = probability_one(q);
  const bool outcome = rng.uniform01() < p1;
  const double keep_p = outcome ? p1 : 1.0 - p1;
  const double scale = keep_p > 0.0 ? 1.0 / std::sqrt(keep_p) : 0.0;
  const Scalar s = static_cast<Scalar>(scale);
  const bool avx2 = active_simd_mode() == SimdMode::kAvx2;
  Scalar* re = re_.data();
  Scalar* im = im_.data();
  const std::size_t bit = std::size_t{1} << q;
  for_pair_runs(dim(), q, [=](std::size_t lo, std::size_t n) {
    Scalar* keep_re = outcome ? re + lo + bit : re + lo;
    Scalar* keep_im = outcome ? im + lo + bit : im + lo;
    Scalar* drop_re = outcome ? re + lo : re + lo + bit;
    Scalar* drop_im = outcome ? im + lo : im + lo + bit;
    scale_run(keep_re, keep_im, n, s, avx2);
    std::fill(drop_re, drop_re + n, Scalar(0));
    std::fill(drop_im, drop_im + n, Scalar(0));
  });
  return outcome;
}

template <typename Scalar>
std::size_t StateVectorT<Scalar>::sample_basis(util::Rng& rng) const {
  double r = rng.uniform01();
  for (std::size_t i = 0; i < dim(); ++i) {
    const double a = static_cast<double>(re_[i]);
    const double b = static_cast<double>(im_[i]);
    r -= a * a + b * b;
    if (r <= 0.0) return i;
  }
  return dim() - 1;  // numeric tail; total mass ~1
}

template <typename Scalar>
double StateVectorT<Scalar>::norm() const {
  const bool avx2 = active_simd_mode() == SimdMode::kAvx2;
  return std::sqrt(prob_run(re_.data(), im_.data(), dim(), avx2));
}

template class StateVectorT<double>;
template class StateVectorT<float>;

}  // namespace qols::quantum
