// SIMD kernel edge cases: runtime dispatch resolution, the QOLS_NO_AVX2
// parsing rule, tiny registers whose strides sit below the vector width,
// non-multiple-of-lane tails, and scalar-vs-AVX2 bit-exactness on identical
// gate sequences.
//
// The dispatch contract: the AVX2 kernels perform exactly the same IEEE
// operations per element as the scalar reference (no FMA contraction, no
// reassociation of any single element's chain), so forcing kScalar and
// kAvx2 over the same inputs must produce BIT-IDENTICAL registers — EXPECT_EQ
// on raw components, no tolerance. That is what makes runtime dispatch safe:
// a machine without AVX2 replays a failure token to the same bits. The
// probability reductions (norm, probability_one) share one summation order on
// both paths too, so they are pinned with EXPECT_EQ as well.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "qols/core/grover_streamer.hpp"
#include "qols/lang/ldisj_instance.hpp"
#include "qols/quantum/state_vector.hpp"
#include "qols/stream/symbol_stream.hpp"
#include "qols/util/rng.hpp"

namespace {

using qols::quantum::cpu_supports_avx2;
using qols::quantum::SimdMode;
using qols::quantum::StateVectorT;
using qols::util::Rng;

/// Restores the requested dispatch mode on scope exit, so a failing test
/// cannot leak a forced mode into the rest of the suite.
class SimdModeGuard {
 public:
  SimdModeGuard() : saved_(qols::quantum::requested_simd_mode()) {}
  ~SimdModeGuard() { qols::quantum::set_simd_mode(saved_); }
  SimdModeGuard(const SimdModeGuard&) = delete;
  SimdModeGuard& operator=(const SimdModeGuard&) = delete;

 private:
  SimdMode saved_;
};

/// A fixed, asymmetry-breaking gate sequence touching every kernel family:
/// H (pair butterflies), T/phase (complex rotation), X (swap runs), Z
/// (negate runs), CZ, reflect-zero, H-range, and the A3 index fast paths.
template <typename Scalar>
void apply_mixed_sequence(StateVectorT<Scalar>& sv) {
  const unsigned n = sv.num_qubits();
  for (unsigned q = 0; q < n; ++q) sv.apply_h(q);
  for (unsigned q = 0; q < n; ++q) sv.apply_t(q % n);
  sv.apply_x(0);
  if (n >= 2) {
    sv.apply_z(1);
    sv.apply_cz(0, 1);
    sv.apply_cnot(1, 0);
    sv.apply_swap(0, n - 1);
  }
  sv.apply_reflect_zero(0, n);
  sv.apply_h_range(0, n);
  if (n >= 3) {
    sv.apply_x_on_index(0, n - 1, 1, n - 1);
    sv.apply_z_on_index(0, n - 1, 2, n - 1);
  }
  sv.apply_h_range(0, n);
}

/// norm() and every probability_one(q) of `sv` must be EXPECT_EQ-equal under
/// forced kScalar and forced kAvx2. Restores the requested mode, so callers
/// looping over modes keep theirs.
template <typename Scalar>
void expect_reductions_mode_independent(const StateVectorT<Scalar>& sv) {
  if (!cpu_supports_avx2()) return;
  const SimdMode saved = qols::quantum::requested_simd_mode();
  auto reductions = [&](SimdMode mode) {
    qols::quantum::set_simd_mode(mode);
    std::vector<double> out{sv.norm()};
    for (unsigned q = 0; q < sv.num_qubits(); ++q) {
      out.push_back(sv.probability_one(q));
    }
    return out;
  };
  const std::vector<double> scalar = reductions(SimdMode::kScalar);
  const std::vector<double> avx2 = reductions(SimdMode::kAvx2);
  qols::quantum::set_simd_mode(saved);
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(scalar[i], avx2[i])
        << "reduction " << i << " (0 = norm, q + 1 = probability_one(q))";
  }
}

template <typename Scalar>
void expect_bit_identical(const StateVectorT<Scalar>& a,
                          const StateVectorT<Scalar>& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (std::size_t i = 0; i < a.dim(); ++i) {
    ASSERT_EQ(a.re()[i], b.re()[i]) << "re[" << i << "]";
    ASSERT_EQ(a.im()[i], b.im()[i]) << "im[" << i << "]";
  }
  expect_reductions_mode_independent(a);
}

TEST(SimdDispatch, ActiveModeIsNeverAuto) {
  SimdModeGuard guard;
  qols::quantum::set_simd_mode(SimdMode::kAuto);
  const SimdMode active = qols::quantum::active_simd_mode();
  EXPECT_TRUE(active == SimdMode::kScalar || active == SimdMode::kAvx2);
  EXPECT_EQ(qols::quantum::requested_simd_mode(), SimdMode::kAuto);
}

TEST(SimdDispatch, ForcedModesResolveOrThrow) {
  SimdModeGuard guard;
  qols::quantum::set_simd_mode(SimdMode::kScalar);
  EXPECT_EQ(qols::quantum::active_simd_mode(), SimdMode::kScalar);
  if (cpu_supports_avx2()) {
    qols::quantum::set_simd_mode(SimdMode::kAvx2);
    EXPECT_EQ(qols::quantum::active_simd_mode(), SimdMode::kAvx2);
  } else {
    EXPECT_THROW(qols::quantum::set_simd_mode(SimdMode::kAvx2),
                 std::invalid_argument);
  }
}

TEST(SimdDispatch, EnvOverrideParsingRule) {
  // QOLS_NO_AVX2 disables AVX2 when non-null, non-empty and not "0". The
  // pure parser is exposed so the rule is testable without mutating the
  // process environment (which is read once, at first kernel dispatch).
  EXPECT_FALSE(qols::quantum::simd_env_disabled(nullptr));
  EXPECT_FALSE(qols::quantum::simd_env_disabled(""));
  EXPECT_FALSE(qols::quantum::simd_env_disabled("0"));
  EXPECT_TRUE(qols::quantum::simd_env_disabled("1"));
  EXPECT_TRUE(qols::quantum::simd_env_disabled("true"));
  EXPECT_TRUE(qols::quantum::simd_env_disabled("00"));  // not the literal "0"
  EXPECT_TRUE(qols::quantum::simd_env_disabled(" "));
}

template <typename Scalar>
void run_scalar_vs_avx2_tiny_registers() {
  // n = 1..5: every stride below (and just at) the vector width, for both
  // the in-register shuffle butterflies and their scalar reference. n = 5
  // additionally has a 32-element register — not a multiple of the blocked
  // kernels' larger internal strides, exercising tail handling.
  for (unsigned n = 1; n <= 5; ++n) {
    StateVectorT<Scalar> scalar(n);
    StateVectorT<Scalar> vectorized(n);
    qols::quantum::set_simd_mode(SimdMode::kScalar);
    apply_mixed_sequence(scalar);
    qols::quantum::set_simd_mode(SimdMode::kAvx2);
    apply_mixed_sequence(vectorized);
    expect_bit_identical(scalar, vectorized);
  }
}

TEST(SimdKernels, ScalarVsAvx2BitExactOnTinyRegistersDouble) {
  if (!cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  SimdModeGuard guard;
  run_scalar_vs_avx2_tiny_registers<double>();
}

TEST(SimdKernels, ScalarVsAvx2BitExactOnTinyRegistersFloat) {
  if (!cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  SimdModeGuard guard;
  run_scalar_vs_avx2_tiny_registers<float>();
}

template <typename Scalar>
void run_blocked_hrange_vs_sequential(unsigned n) {
  // The blocked/fused apply_h_range must be bit-identical to the naive
  // qubit-by-qubit ladder it replaced: the radix-4 fusion and L1 tiling
  // reorder independent additions only, never one element's rounding chain.
  for (unsigned first = 0; first < n; ++first) {
    for (unsigned count : {1u, 2u, 3u, n - first}) {
      if (first + count > n) continue;
      StateVectorT<Scalar> blocked(n);
      StateVectorT<Scalar> ladder(n);
      // Symmetry-breaking preparation on both registers.
      for (StateVectorT<Scalar>* sv : {&blocked, &ladder}) {
        for (unsigned q = 0; q < n; ++q) sv->apply_h(q);
        for (unsigned q = 0; q < n; ++q) sv->apply_t(q);
        sv->apply_x(0);
      }
      blocked.apply_h_range(first, count);
      for (unsigned q = first; q < first + count; ++q) ladder.apply_h(q);
      expect_bit_identical(blocked, ladder);
    }
  }
}

TEST(SimdKernels, BlockedHRangeMatchesSequentialLaddersSmall) {
  SimdModeGuard guard;
  for (const SimdMode mode : {SimdMode::kScalar, SimdMode::kAvx2}) {
    if (mode == SimdMode::kAvx2 && !cpu_supports_avx2()) continue;
    qols::quantum::set_simd_mode(mode);
    run_blocked_hrange_vs_sequential<double>(3);
    run_blocked_hrange_vs_sequential<double>(6);
    run_blocked_hrange_vs_sequential<float>(3);
    run_blocked_hrange_vs_sequential<float>(6);
  }
}

TEST(SimdKernels, BlockedHRangeMatchesSequentialAcrossTileBoundary) {
  // n spanning the L1 tile size (2^12 doubles / 2^13 floats): the low-qubit
  // tiled phase, the leftover odd qubit, and the high streaming phase all
  // activate, including registers larger than the serial grain (n = 15).
  SimdModeGuard guard;
  for (const SimdMode mode : {SimdMode::kScalar, SimdMode::kAvx2}) {
    if (mode == SimdMode::kAvx2 && !cpu_supports_avx2()) continue;
    qols::quantum::set_simd_mode(mode);
    for (unsigned n : {13u, 15u}) {
      StateVectorT<double> blocked(n);
      StateVectorT<double> ladder(n);
      for (StateVectorT<double>* sv : {&blocked, &ladder}) {
        for (unsigned q = 0; q < n; q += 2) sv->apply_h(q);
        sv->apply_t(0);
        sv->apply_x(n - 1);
      }
      blocked.apply_h_range(0, n);
      for (unsigned q = 0; q < n; ++q) ladder.apply_h(q);
      expect_bit_identical(blocked, ladder);
    }
    {
      StateVectorT<float> blocked(14);
      StateVectorT<float> ladder(14);
      for (StateVectorT<float>* sv : {&blocked, &ladder}) {
        for (unsigned q = 0; q < 14; q += 3) sv->apply_h(q);
        sv->apply_t(1);
      }
      blocked.apply_h_range(0, 14);
      for (unsigned q = 0; q < 14; ++q) ladder.apply_h(q);
      expect_bit_identical(blocked, ladder);
    }
  }
}

TEST(SimdKernels, DispatchAgreementThroughFullA3Run) {
  // End to end: the same word and seed through procedure A3 under forced
  // scalar and forced AVX2 dispatch must yield bit-identical amplitudes and
  // the identical decision — the replay-token portability guarantee.
  if (!cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  SimdModeGuard guard;
  Rng rng(8);
  auto inst = qols::lang::LDisjInstance::make_with_intersections(2, 1, rng);
  const std::string word = inst.render();

  auto run = [&](SimdMode mode, std::uint64_t seed) {
    qols::quantum::set_simd_mode(mode);
    qols::core::GroverStreamer::Options opts;
    opts.backend = "dense";
    qols::core::GroverStreamer a3{Rng(seed), opts};
    qols::stream::StringStream s(word);
    while (auto sym = s.next()) a3.feed(*sym);
    std::vector<qols::quantum::Amplitude> amps;
    const auto* backend = a3.simulation_backend();
    const std::uint64_t dim = std::uint64_t{1} << backend->num_qubits();
    for (std::uint64_t basis = 0; basis < dim; ++basis) {
      amps.push_back(backend->amplitude(basis));
    }
    const auto* dense = backend->dense_state();
    EXPECT_NE(dense, nullptr);
    if (dense != nullptr) expect_reductions_mode_independent(*dense);
    return std::pair{amps, a3.finish_output()};
  };

  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto scalar = run(SimdMode::kScalar, seed);
    const auto avx2 = run(SimdMode::kAvx2, seed);
    ASSERT_EQ(scalar.second, avx2.second) << "seed " << seed;
    ASSERT_EQ(scalar.first.size(), avx2.first.size());
    for (std::size_t i = 0; i < scalar.first.size(); ++i) {
      ASSERT_EQ(scalar.first[i].real(), avx2.first[i].real())
          << "basis " << i << " seed " << seed;
      ASSERT_EQ(scalar.first[i].imag(), avx2.first[i].imag())
          << "basis " << i << " seed " << seed;
    }
  }
}

}  // namespace
