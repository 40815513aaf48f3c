// Unit + property tests: the dense state-vector simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <future>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "qols/backend/dense_backend.hpp"
#include "qols/quantum/state_vector.hpp"
#include "qols/util/rng.hpp"
#include "qols/util/thread_pool.hpp"

namespace {

using qols::quantum::Amplitude;
using qols::quantum::ControlTerm;
using qols::quantum::SimdMode;
using qols::quantum::StateVector;
using qols::quantum::StateVectorT;
using qols::util::Rng;

constexpr double kTol = 1e-12;

TEST(StateVector, StartsInAllZeros) {
  StateVector sv(3);
  EXPECT_EQ(sv.dim(), 8u);
  EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0, kTol);
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_NEAR(std::abs(sv.amplitude(i)), 0.0, kTol);
  }
}

TEST(StateVector, RegisterHalvesAreCacheLineAligned) {
  // Kernel speed must not depend on where the heap happens to place a
  // register: both halves start on a 64-byte boundary at every size, and
  // stay there after a snapshot-style load.
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
  };
  for (unsigned n = 1; n <= 12; ++n) {
    StateVectorT<double> d(n);
    StateVectorT<float> f(n);
    EXPECT_TRUE(aligned(d.re().data()) && aligned(d.im().data())) << n;
    EXPECT_TRUE(aligned(f.re().data()) && aligned(f.im().data())) << n;
    const std::vector<double> re(d.dim(), 0.5), im(d.dim(), -0.5);
    d.load(re, im);
    EXPECT_TRUE(aligned(d.re().data()) && aligned(d.im().data())) << n;
    EXPECT_EQ(d.amplitude(d.dim() - 1), Amplitude(0.5, -0.5));
  }
}

TEST(StateVector, RejectsBadQubitCounts) {
  EXPECT_THROW(StateVector(0), std::invalid_argument);
  EXPECT_THROW(StateVector(31), std::invalid_argument);
  // Far past the ceiling: must diagnose, never attempt the allocation
  // (2^64 amplitudes) or shift past 63 bits.
  EXPECT_THROW(StateVector(64), std::invalid_argument);
  EXPECT_THROW(StateVector(255), std::invalid_argument);
}

TEST(StateVector, BadQubitCountDiagnosisNamesTheValueAndCeiling) {
  try {
    StateVector sv(42);
    FAIL() << "construction must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("42"), std::string::npos) << what;
    EXPECT_NE(what.find("[1, 30]"), std::string::npos) << what;
  }
}

TEST(StateVector, HadamardCreatesUniformPair) {
  StateVector sv(1);
  sv.apply_h(0);
  EXPECT_NEAR(sv.amplitude(0).real(), std::numbers::sqrt2 / 2, kTol);
  EXPECT_NEAR(sv.amplitude(1).real(), std::numbers::sqrt2 / 2, kTol);
}

TEST(StateVector, HadamardIsInvolution) {
  StateVector sv(4);
  sv.apply_h(2);
  sv.apply_h(2);
  EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0, kTol);
  EXPECT_NEAR(sv.norm(), 1.0, kTol);
}

TEST(StateVector, XFlipsBasisState) {
  StateVector sv(3);
  sv.apply_x(1);
  EXPECT_NEAR(std::abs(sv.amplitude(0b010)), 1.0, kTol);
}

TEST(StateVector, TEighthPowerIsIdentity) {
  StateVector sv(1);
  sv.apply_h(0);  // put amplitude on |1> so the phase is visible
  StateVector ref = sv;
  for (int i = 0; i < 8; ++i) sv.apply_t(0);
  EXPECT_NEAR(sv.fidelity(ref), 1.0, kTol);
  EXPECT_NEAR((sv.amplitude(1) - ref.amplitude(1)).real(), 0.0, kTol);
}

TEST(StateVector, TdgInvertsT) {
  StateVector sv(2);
  sv.apply_h(0);
  sv.apply_h(1);
  StateVector ref = sv;
  sv.apply_t(1);
  sv.apply_tdg(1);
  EXPECT_NEAR(sv.fidelity(ref), 1.0, kTol);
}

TEST(StateVector, SSquaredIsZ) {
  StateVector a(1), b(1);
  a.apply_h(0);
  b.apply_h(0);
  a.apply_s(0);
  a.apply_s(0);
  b.apply_z(0);
  EXPECT_NEAR(a.fidelity(b), 1.0, kTol);
  // Phases must agree exactly, not just up to global phase:
  EXPECT_NEAR(std::abs((a.amplitude(1) - b.amplitude(1))), 0.0, kTol);
}

TEST(StateVector, CnotEntanglesBellPair) {
  StateVector sv(2);
  sv.apply_h(0);
  sv.apply_cnot(0, 1);
  EXPECT_NEAR(std::norm(sv.amplitude(0b00)), 0.5, kTol);
  EXPECT_NEAR(std::norm(sv.amplitude(0b11)), 0.5, kTol);
  EXPECT_NEAR(std::norm(sv.amplitude(0b01)), 0.0, kTol);
  EXPECT_NEAR(std::norm(sv.amplitude(0b10)), 0.0, kTol);
}

TEST(StateVector, CnotSelfInverse) {
  Rng rng(5);
  StateVector sv(3);
  sv.apply_h(0);
  sv.apply_t(0);
  sv.apply_h(1);
  StateVector ref = sv;
  sv.apply_cnot(0, 2);
  sv.apply_cnot(0, 2);
  EXPECT_NEAR(sv.fidelity(ref), 1.0, kTol);
}

TEST(StateVector, CzIsSymmetric) {
  StateVector a(2), b(2);
  a.apply_h(0);
  a.apply_h(1);
  b.apply_h(0);
  b.apply_h(1);
  a.apply_cz(0, 1);
  b.apply_cz(1, 0);
  EXPECT_NEAR(std::abs(a.inner_product(b)), 1.0, kTol);
}

TEST(StateVector, SwapExchangesQubits) {
  StateVector sv(2);
  sv.apply_x(0);  // |01> (qubit 0 set)
  sv.apply_swap(0, 1);
  EXPECT_NEAR(std::abs(sv.amplitude(0b10)), 1.0, kTol);
}

TEST(StateVector, McxHonoursMixedPolarityPattern) {
  // Controls: q0 == 1, q1 == 0 -> flip q2.
  StateVector sv(3);
  sv.apply_x(0);  // state |001>
  const ControlTerm terms[] = {{0, true}, {1, false}};
  sv.apply_mcx(terms, 2);
  EXPECT_NEAR(std::abs(sv.amplitude(0b101)), 1.0, kTol);
  // Now break the pattern: q1 == 1 -> no flip.
  StateVector sv2(3);
  sv2.apply_x(0);
  sv2.apply_x(1);  // |011>
  sv2.apply_mcx(terms, 2);
  EXPECT_NEAR(std::abs(sv2.amplitude(0b011)), 1.0, kTol);
}

TEST(StateVector, MczFlipsOnlyMatchingStates) {
  StateVector sv(2);
  sv.apply_h(0);
  sv.apply_h(1);
  const ControlTerm terms[] = {{0, true}, {1, true}};
  sv.apply_mcz(terms);
  EXPECT_NEAR(sv.amplitude(0b11).real(), -0.5, kTol);
  EXPECT_NEAR(sv.amplitude(0b00).real(), 0.5, kTol);
  EXPECT_NEAR(sv.amplitude(0b01).real(), 0.5, kTol);
  EXPECT_NEAR(sv.amplitude(0b10).real(), 0.5, kTol);
}

TEST(StateVector, ReflectZeroMatchesDefinitionOfSk) {
  // S_k: |0> -> |0>, |i> -> -|i> on the index range.
  StateVector sv(3);
  sv.apply_h_range(0, 2);  // uniform on first two qubits
  sv.apply_reflect_zero(0, 2);
  EXPECT_NEAR(sv.amplitude(0b00).real(), 0.5, kTol);
  EXPECT_NEAR(sv.amplitude(0b01).real(), -0.5, kTol);
  EXPECT_NEAR(sv.amplitude(0b10).real(), -0.5, kTol);
  EXPECT_NEAR(sv.amplitude(0b11).real(), -0.5, kTol);
}

TEST(StateVector, GroverOneIterationOnFourItems) {
  // Textbook case: N=4, one marked item -> one Grover iteration finds it
  // with certainty. Index register = qubits 0..1, oracle workspace h = 2.
  const std::size_t marked = 0b10;
  StateVector sv(3);
  sv.apply_h_range(0, 2);
  // Phase oracle on the marked index (h stays |0>; use mcz on index pattern).
  const ControlTerm phase[] = {{0, (marked & 1) != 0}, {1, (marked & 2) != 0}};
  sv.apply_mcz(phase);
  // Diffusion.
  sv.apply_h_range(0, 2);
  sv.apply_reflect_zero(0, 2);
  sv.apply_h_range(0, 2);
  EXPECT_NEAR(std::norm(sv.amplitude(marked)), 1.0, 1e-10);
}

TEST(StateVector, IndexedOraclesMatchGenericGates) {
  // apply_x_on_index == mcx with a full index pattern.
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    StateVector a(5), b(5);
    // Random-ish product state.
    for (unsigned q = 0; q < 5; ++q) {
      a.apply_h(q);
      b.apply_h(q);
      if (rng.coin()) {
        a.apply_t(q);
        b.apply_t(q);
      }
    }
    const std::uint64_t idx = rng.below(8);  // 3-bit index register
    a.apply_x_on_index(0, 3, idx, 3);
    std::vector<ControlTerm> terms;
    for (unsigned q = 0; q < 3; ++q) terms.push_back({q, ((idx >> q) & 1) != 0});
    b.apply_mcx(terms, 3);
    ASSERT_NEAR(a.fidelity(b), 1.0, kTol);
  }
}

TEST(StateVector, IndexedPhaseMatchesGenericMcz) {
  Rng rng(10);
  StateVector a(5), b(5);
  for (unsigned q = 0; q < 5; ++q) {
    a.apply_h(q);
    b.apply_h(q);
  }
  const std::uint64_t idx = 5;
  a.apply_z_on_index(0, 3, idx, 4);
  std::vector<ControlTerm> terms;
  for (unsigned q = 0; q < 3; ++q) terms.push_back({q, ((idx >> q) & 1) != 0});
  terms.push_back({4, true});
  b.apply_mcz(terms);
  EXPECT_NEAR(a.fidelity(b), 1.0, kTol);
}

TEST(StateVector, IndexedCxMatchesGenericMcx) {
  Rng rng(11);
  StateVector a(6), b(6);
  for (unsigned q = 0; q < 6; ++q) {
    a.apply_h(q);
    b.apply_h(q);
  }
  const std::uint64_t idx = 9;  // 4-bit index register
  a.apply_cx_on_index(0, 4, idx, 4, 5);
  std::vector<ControlTerm> terms;
  for (unsigned q = 0; q < 4; ++q) terms.push_back({q, ((idx >> q) & 1) != 0});
  terms.push_back({4, true});
  b.apply_mcx(terms, 5);
  EXPECT_NEAR(a.fidelity(b), 1.0, kTol);
}

TEST(StateVector, ProbabilityOneMatchesAmplitudes) {
  StateVector sv(2);
  sv.apply_h(0);
  EXPECT_NEAR(sv.probability_one(0), 0.5, kTol);
  EXPECT_NEAR(sv.probability_one(1), 0.0, kTol);
}

TEST(StateVector, MeasureCollapsesAndNormalizes) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    StateVector sv(2);
    sv.apply_h(0);
    sv.apply_cnot(0, 1);  // Bell pair: outcomes perfectly correlated
    const bool m0 = sv.measure(0, rng);
    EXPECT_NEAR(sv.norm(), 1.0, kTol);
    const bool m1 = sv.measure(1, rng);
    EXPECT_EQ(m0, m1);
  }
}

TEST(StateVector, MeasurementFrequenciesMatchBornRule) {
  Rng rng(17);
  int ones = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    StateVector sv(1);
    sv.apply_h(0);
    sv.apply_t(0);
    sv.apply_h(0);  // P(1) = (1 - cos(pi/4)) / 2 ~ 0.146447
    if (sv.measure(0, rng)) ++ones;
  }
  const double expected = (1.0 - std::cos(std::numbers::pi / 4)) / 2.0;
  EXPECT_NEAR(ones / static_cast<double>(kTrials), expected, 0.01);
}

TEST(StateVector, SampleBasisMatchesDistribution) {
  Rng rng(19);
  StateVector sv(2);
  sv.apply_h(0);  // mass 1/2 on |00> and |01>
  int c0 = 0, c1 = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto b = sv.sample_basis(rng);
    ASSERT_TRUE(b == 0 || b == 1);
    (b == 0 ? c0 : c1)++;
  }
  EXPECT_NEAR(c0 / 20000.0, 0.5, 0.02);
  EXPECT_NEAR(c1 / 20000.0, 0.5, 0.02);
}

// Property sweep: random Clifford+T circuits preserve the norm, across
// register sizes including ones that cross the parallel-kernel threshold.
class NormPreservation : public ::testing::TestWithParam<unsigned> {};

TEST_P(NormPreservation, RandomCircuitKeepsUnitNorm) {
  const unsigned qubits = GetParam();
  Rng rng(1234 + qubits);
  StateVector sv(qubits);
  for (int step = 0; step < 200; ++step) {
    const unsigned q = static_cast<unsigned>(rng.below(qubits));
    switch (rng.below(4)) {
      case 0:
        sv.apply_h(q);
        break;
      case 1:
        sv.apply_t(q);
        break;
      case 2: {
        unsigned r = static_cast<unsigned>(rng.below(qubits));
        sv.apply_cnot(q, r);  // q == r allowed: identity convention
        break;
      }
      case 3:
        sv.apply_reflect_zero(0, qubits);
        break;
    }
  }
  EXPECT_NEAR(sv.norm(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NormPreservation,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 12u, 15u, 16u));

// ---------------------------------------------------------------------------
// The matching-set kernels (index oracles, MCX, MCZ) against a naive
// full-scan reference: every (first, count, index, target/h) on registers of
// 1-7 qubits, including index registers that start above qubit 0 and targets
// below them, plus random control patterns. Swaps and sign flips are exact,
// so every component must be EXPECT_EQ-equal, in both precisions and under
// both forced dispatch paths.

/// Restores the requested dispatch mode on scope exit.
class SimdModeGuard {
 public:
  SimdModeGuard() : saved_(qols::quantum::requested_simd_mode()) {}
  ~SimdModeGuard() { qols::quantum::set_simd_mode(saved_); }
  SimdModeGuard(const SimdModeGuard&) = delete;
  SimdModeGuard& operator=(const SimdModeGuard&) = delete;

 private:
  SimdMode saved_;
};

std::vector<SimdMode> forced_modes() {
  std::vector<SimdMode> modes{SimdMode::kScalar};
  if (qols::quantum::cpu_supports_avx2()) modes.push_back(SimdMode::kAvx2);
  return modes;
}

/// Naive reference register: SoA copies plus full-scan gates that test the
/// predicate on every basis index.
template <typename Scalar>
struct NaiveRegister {
  std::vector<Scalar> re, im;

  /// Swaps i and i | tbit for every i with bit tbit clear and match(i).
  template <typename Match>
  void swap_where(std::size_t tbit, Match match) {
    for (std::size_t i = 0; i < re.size(); ++i) {
      if ((i & tbit) == 0 && match(i)) {
        std::swap(re[i], re[i | tbit]);
        std::swap(im[i], im[i | tbit]);
      }
    }
  }
  template <typename Match>
  void negate_where(Match match) {
    for (std::size_t i = 0; i < re.size(); ++i) {
      if (match(i)) {
        re[i] = -re[i];
        im[i] = -im[i];
      }
    }
  }
};

/// A register of distinct random components (any swap or sign error shows),
/// and its naive twin.
template <typename Scalar>
std::pair<StateVectorT<Scalar>, NaiveRegister<Scalar>> random_pair(
    unsigned n, Rng& rng) {
  NaiveRegister<Scalar> ref;
  for (std::size_t i = 0; i < (std::size_t{1} << n); ++i) {
    ref.re.push_back(static_cast<Scalar>(rng.uniform01() - 0.5));
    ref.im.push_back(static_cast<Scalar>(rng.uniform01() - 0.5));
  }
  StateVectorT<Scalar> sv(n);
  sv.load(ref.re, ref.im);
  return {std::move(sv), std::move(ref)};
}

template <typename Scalar>
void expect_same(const StateVectorT<Scalar>& sv,
                 const NaiveRegister<Scalar>& ref, const std::string& what) {
  for (std::size_t i = 0; i < sv.dim(); ++i) {
    EXPECT_EQ(sv.re()[i], ref.re[i]) << what << " re[" << i << "]";
    EXPECT_EQ(sv.im()[i], ref.im[i]) << what << " im[" << i << "]";
  }
}

template <typename Scalar>
class MatchingKernels : public ::testing::Test {};
using Scalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(MatchingKernels, Scalars);

TYPED_TEST(MatchingKernels, IndexOraclesMatchFullScanEverywhere) {
  using Scalar = TypeParam;
  SimdModeGuard guard;
  Rng rng(31);
  for (const SimdMode mode : forced_modes()) {
    qols::quantum::set_simd_mode(mode);
    for (unsigned n = 1; n <= 7; ++n) {
      for (unsigned first = 0; first <= n; ++first) {
        for (unsigned count = 0; first + count <= n; ++count) {
          const std::size_t field = (std::size_t{1} << count) - 1;
          for (std::uint64_t index = 0; index <= field; ++index) {
            auto on_index = [=](std::size_t i) {
              return ((i >> first) & field) == index;
            };
            for (unsigned t = 0; t < n; ++t) {
              if (t >= first && t < first + count) continue;
              const std::size_t tbit = std::size_t{1} << t;
              const std::string at =
                  "mode=" + std::to_string(static_cast<int>(mode)) +
                  " n=" + std::to_string(n) +
                  " first=" + std::to_string(first) +
                  " count=" + std::to_string(count) +
                  " index=" + std::to_string(index) +
                  " t=" + std::to_string(t);
              {
                auto [sv, ref] = random_pair<Scalar>(n, rng);
                sv.apply_x_on_index(first, count, index, t);
                ref.swap_where(tbit, on_index);
                expect_same(sv, ref, "x_on_index " + at);
              }
              {
                auto [sv, ref] = random_pair<Scalar>(n, rng);
                sv.apply_z_on_index(first, count, index, t);
                ref.negate_where(
                    [&](std::size_t i) { return on_index(i) && (i & tbit); });
                expect_same(sv, ref, "z_on_index " + at);
              }
              for (unsigned h = 0; h < n; ++h) {
                if (h == t || (h >= first && h < first + count)) continue;
                const std::size_t hbit = std::size_t{1} << h;
                auto [sv, ref] = random_pair<Scalar>(n, rng);
                sv.apply_cx_on_index(first, count, index, h, t);
                ref.swap_where(tbit, [&](std::size_t i) {
                  return on_index(i) && (i & hbit);
                });
                expect_same(sv, ref,
                            "cx_on_index h=" + std::to_string(h) + " " + at);
              }
              if (::testing::Test::HasFailure()) return;
            }
          }
        }
      }
    }
  }
}

TYPED_TEST(MatchingKernels, RandomControlPatternsMatchFullScan) {
  using Scalar = TypeParam;
  SimdModeGuard guard;
  Rng rng(37);
  for (const SimdMode mode : forced_modes()) {
    qols::quantum::set_simd_mode(mode);
    for (unsigned n = 1; n <= 7; ++n) {
      for (int trial = 0; trial < 200; ++trial) {
        // A random subset of qubits with random polarities; for MCX the
        // target is drawn first and kept out of the pattern.
        const unsigned target = static_cast<unsigned>(rng.below(n));
        std::vector<ControlTerm> terms;
        for (unsigned q = 0; q < n; ++q) {
          if (rng.coin()) terms.push_back({q, rng.coin()});
        }
        auto holds = [&](std::size_t i) {
          for (const ControlTerm& c : terms) {
            if ((((i >> c.qubit) & 1) != 0) != c.value) return false;
          }
          return true;
        };
        const std::string at = "mode=" +
                               std::to_string(static_cast<int>(mode)) +
                               " n=" + std::to_string(n) +
                               " trial=" + std::to_string(trial);
        {
          auto [sv, ref] = random_pair<Scalar>(n, rng);
          sv.apply_mcz(terms);
          ref.negate_where(holds);
          expect_same(sv, ref, "mcz " + at);
        }
        std::erase_if(terms,
                      [&](const ControlTerm& c) { return c.qubit == target; });
        {
          auto [sv, ref] = random_pair<Scalar>(n, rng);
          sv.apply_mcx(terms, target);
          ref.swap_where(std::size_t{1} << target, holds);
          expect_same(sv, ref,
                      "mcx target=" + std::to_string(target) + " " + at);
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// A3's oracles over a run of streamed bits against the same bits applied one
// by one through apply_{x,z,cx}_on_index, component for component: the run
// kernels are masked swaps and sign flips, so the two must be bit-identical
// in both precisions and both SimdModes.
template <typename Scalar>
class IndexRunKernels : public ::testing::Test {};
TYPED_TEST_SUITE(IndexRunKernels, Scalars);

template <typename Scalar>
void expect_same_state(const StateVectorT<Scalar>& a,
                       const StateVectorT<Scalar>& b, const std::string& what) {
  for (std::size_t i = 0; i < a.dim(); ++i) {
    EXPECT_EQ(a.re()[i], b.re()[i]) << what << " re[" << i << "]";
    EXPECT_EQ(a.im()[i], b.im()[i]) << what << " im[" << i << "]";
  }
}

TYPED_TEST(IndexRunKernels, RunsMatchPerBitGates) {
  using Scalar = TypeParam;
  SimdModeGuard guard;
  Rng rng(41);
  for (const SimdMode mode : forced_modes()) {
    qols::quantum::set_simd_mode(mode);
    for (unsigned k = 1; k <= 6; ++k) {
      const unsigned count = 2 * k;
      const std::uint64_t m = std::uint64_t{1} << count;
      for (int trial = 0; trial < 24; ++trial) {
        // Shapes: empty, one bit, a run ending exactly at m, and random.
        std::uint64_t off = rng.below(m + 1);
        std::uint64_t len = 0;
        switch (trial % 4) {
          case 0:
            break;
          case 1:
            off = rng.below(m);
            len = 1;
            break;
          case 2:
            len = m - off;
            break;
          default:
            len = rng.below(m - off + 1);
            break;
        }
        // A3's density (~1/4 ones) and a denser mask on alternate trials.
        const std::uint64_t one_in = trial % 2 == 0 ? 4 : 2;
        std::vector<std::uint8_t> ones(len);
        for (auto& b : ones) b = rng.below(one_in) == 0 ? 1 : 0;
        // A3's roles (h = 2k, l = 2k+1), then the two tail qubits swapped.
        for (const unsigned h : {count, count + 1}) {
          const unsigned t = h == count ? count + 1 : count;
          const std::string at =
              "mode=" + std::to_string(static_cast<int>(mode)) +
              " k=" + std::to_string(k) + " off=" + std::to_string(off) +
              " len=" + std::to_string(len) + " h=" + std::to_string(h);
          const StateVectorT<Scalar> start =
              random_pair<Scalar>(count + 2, rng).first;
          {
            StateVectorT<Scalar> a = start;
            StateVectorT<Scalar> b = start;
            a.apply_x_on_index_run(count, off, ones, h);
            for (std::size_t i = 0; i < len; ++i) {
              if (ones[i] != 0) b.apply_x_on_index(0, count, off + i, h);
            }
            expect_same_state(a, b, "x run " + at);
          }
          {
            StateVectorT<Scalar> a = start;
            StateVectorT<Scalar> b = start;
            a.apply_z_on_index_run(count, off, ones, h);
            for (std::size_t i = 0; i < len; ++i) {
              if (ones[i] != 0) b.apply_z_on_index(0, count, off + i, h);
            }
            expect_same_state(a, b, "z run " + at);
          }
          {
            StateVectorT<Scalar> a = start;
            StateVectorT<Scalar> b = start;
            a.apply_cx_on_index_run(count, off, ones, h, t);
            for (std::size_t i = 0; i < len; ++i) {
              if (ones[i] != 0) b.apply_cx_on_index(0, count, off + i, h, t);
            }
            expect_same_state(a, b, "cx run " + at);
          }
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

// Grover's diffusion as a sector mean reflection (apply_mean_reflection, the
// dense backend's diffusion) against the H form U_k S_k U_k. The two are
// equal in exact arithmetic, so they are compared to a tolerance; the SIMD
// paths and the thread count must not change a bit.
template <typename Scalar>
class MeanReflection : public ::testing::Test {};
TYPED_TEST_SUITE(MeanReflection, Scalars);

template <typename Scalar>
void apply_h_form(StateVectorT<Scalar>& sv, unsigned count) {
  sv.apply_h_range(0, count);
  sv.apply_reflect_zero(0, count);
  sv.apply_h_range(0, count);
}

TYPED_TEST(MeanReflection, MatchesHadamardForm) {
  using Scalar = TypeParam;
  SimdModeGuard guard;
  Rng rng(43);
  for (const SimdMode mode : forced_modes()) {
    qols::quantum::set_simd_mode(mode);
    for (unsigned k = 1; k <= 8; ++k) {
      const unsigned count = 2 * k;
      // A3's shape (2k index qubits, h and l above), non-uniform components
      // in [-1/2, 1/2].
      const StateVectorT<Scalar> start =
          random_pair<Scalar>(count + 2, rng).first;
      StateVectorT<Scalar> mean = start;
      StateVectorT<Scalar> h_form = start;
      mean.apply_mean_reflection(0, count);
      apply_h_form(h_form, count);
      // Double: 1e-12. Float: each of the H form's 2 * count
      // butterfly stages rounds once per component, and the reflection
      // rounds twice more, each by at most eps times a magnitude below 1.
      const double tol =
          std::is_same_v<Scalar, double>
              ? 1e-12
              : (2.0 * count + 2.0) *
                    static_cast<double>(std::numeric_limits<float>::epsilon());
      for (std::size_t i = 0; i < start.dim(); ++i) {
        ASSERT_NEAR(mean.re()[i], h_form.re()[i], tol)
            << "mode=" << static_cast<int>(mode) << " k=" << k << " re[" << i
            << "]";
        ASSERT_NEAR(mean.im()[i], h_form.im()[i], tol)
            << "mode=" << static_cast<int>(mode) << " k=" << k << " im[" << i
            << "]";
      }
    }
  }
}

TYPED_TEST(MeanReflection, ScalarAndAvx2AreBitEqual) {
  using Scalar = TypeParam;
  if (!qols::quantum::cpu_supports_avx2()) GTEST_SKIP() << "no AVX2";
  SimdModeGuard guard;
  Rng rng(47);
  // Sectors of 1..2^8 amplitudes (lane tails included) under 1-10 qubits,
  // and one 2^16-amplitude sector summed in fixed chunks across the grain.
  std::vector<std::pair<unsigned, unsigned>> shapes;
  for (unsigned count = 0; count <= 8; ++count) {
    for (unsigned n = std::max(count, 1u); n <= count + 2; ++n) {
      shapes.emplace_back(n, count);
    }
  }
  shapes.emplace_back(17, 16);
  for (const auto& [n, count] : shapes) {
    const StateVectorT<Scalar> start = random_pair<Scalar>(n, rng).first;
    StateVectorT<Scalar> scalar = start;
    StateVectorT<Scalar> avx2 = start;
    qols::quantum::set_simd_mode(SimdMode::kScalar);
    scalar.apply_mean_reflection(0, count);
    qols::quantum::set_simd_mode(SimdMode::kAvx2);
    avx2.apply_mean_reflection(0, count);
    expect_same_state(scalar, avx2,
                      "n=" + std::to_string(n) +
                          " count=" + std::to_string(count));
    if (::testing::Test::HasFailure()) return;
  }
}

// Above the parallel grain the sums run on the global pool. From one of the
// pool's own workers parallel_for runs inline, so that is the one-thread
// result; from the test thread the pool's workers join in (on a one-CPU
// host the pool has one worker and both runs are inline).
TYPED_TEST(MeanReflection, ThreadCountDoesNotChangeABit) {
  using Scalar = TypeParam;
  Rng rng(53);
  for (const unsigned count : {12u, 16u}) {
    const StateVectorT<Scalar> start = random_pair<Scalar>(18, rng).first;
    StateVectorT<Scalar> pooled = start;
    StateVectorT<Scalar> inline_run = start;
    pooled.apply_mean_reflection(0, count);
    std::promise<void> done;
    qols::util::ThreadPool::global().submit([&] {
      inline_run.apply_mean_reflection(0, count);
      done.set_value();
    });
    done.get_future().get();
    expect_same_state(pooled, inline_run, "count=" + std::to_string(count));
  }
}

TEST(MeanReflection, SubRangeIsRejected) {
  StateVector sv(6);
  EXPECT_THROW(sv.apply_mean_reflection(1, 4), std::invalid_argument);
  qols::backend::DenseBackend dense(6);
  EXPECT_THROW(dense.apply_grover_diffusion(1, 4),
               qols::backend::UnsupportedOperation);
  qols::backend::DenseBackendF dense_f(6);
  EXPECT_THROW(dense_f.apply_grover_diffusion(1, 4),
               qols::backend::UnsupportedOperation);
  EXPECT_NO_THROW(dense.apply_grover_diffusion(0, 4));
}

}  // namespace
