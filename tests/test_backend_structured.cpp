// Unit tests: StructuredBackend — operation-level agreement with the dense
// reference, the class-representation invariants (I1-I3 in the header), and
// the UnsupportedOperation boundary. Both backends are driven through the
// QuantumBackend interface the way A3 drives them: every oracle is an
// apply_on_index_run, a single streamed 1-bit a run of one byte (fire()).
// The structured side's apply_phase_flip_set — E19's one-call stand-in for
// a repetition's V_x W_y V_x round — is checked against that round on the
// dense side.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "qols/backend/dense_backend.hpp"
#include "qols/backend/structured_backend.hpp"
#include "qols/util/rng.hpp"

namespace {

using qols::backend::Amplitude;
using qols::backend::DenseBackend;
using qols::backend::IndexOp;
using qols::backend::QuantumBackend;
using qols::backend::StructuredBackend;
using qols::backend::UnsupportedOperation;
using qols::util::Rng;

constexpr unsigned kIndexWidth = 4;   // m = 16 indices
constexpr unsigned kQubits = 6;       // + h + l tail
constexpr std::uint64_t kDim = std::uint64_t{1} << kQubits;
constexpr unsigned kH = kIndexWidth;      // A3's oracle workspace h
constexpr unsigned kL = kIndexWidth + 1;  // A3's result qubit l

/// One A3 oracle on one index, the way GroverStreamer applies a streamed
/// 1-bit: a one-byte apply_on_index_run.
void fire(QuantumBackend& b, IndexOp op, std::uint64_t idx, unsigned h = kH,
          unsigned target = kL) {
  static constexpr std::uint8_t kFires = 1;
  b.apply_on_index_run(op, kIndexWidth, idx, {&kFires, 1}, h, target);
}

/// A3's V_x W_y V_x round with x = y = `marked`: with h = 0 on entry it
/// negates exactly the marked indices, which is what
/// StructuredBackend::apply_phase_flip_set does for sector-0 basis states.
void flip_marked(QuantumBackend& b, const std::vector<std::uint64_t>& marked) {
  for (const IndexOp op : {IndexOp::kX, IndexOp::kZ, IndexOp::kX}) {
    for (const std::uint64_t idx : marked) fire(b, op, idx);
  }
}

void expect_states_equal(const QuantumBackend& a, const QuantumBackend& b,
                         double tol = 1e-12) {
  for (std::uint64_t basis = 0; basis < kDim; ++basis) {
    const Amplitude aa = a.amplitude(basis);
    const Amplitude ab = b.amplitude(basis);
    ASSERT_NEAR(aa.real(), ab.real(), tol) << "basis " << basis;
    ASSERT_NEAR(aa.imag(), ab.imag(), tol) << "basis " << basis;
  }
}

TEST(StructuredBackend, StartsInBasisZero) {
  StructuredBackend s(kQubits, kIndexWidth);
  EXPECT_EQ(s.num_qubits(), kQubits);
  EXPECT_EQ(s.index_width(), kIndexWidth);
  EXPECT_EQ(s.amplitude(0), (Amplitude{1.0, 0.0}));
  for (std::uint64_t b = 1; b < kDim; ++b) {
    ASSERT_EQ(s.amplitude(b), (Amplitude{0.0, 0.0})) << b;
  }
  EXPECT_NEAR(s.norm(), 1.0, 1e-15);
}

TEST(StructuredBackend, HRangePreparesUniformAndInverts) {
  // Only the preparation direction is offered: A3 never maps the uniform
  // state back, so a second H range is refused instead of inverting.
  StructuredBackend s(kQubits, kIndexWidth);
  s.apply_h_range(0, kIndexWidth);
  // Invariant I3: the uniform state is one class.
  EXPECT_EQ(s.class_count(), 1u);
  const double amp = 1.0 / 4.0;  // 1/sqrt(16)
  for (std::uint64_t i = 0; i < 16; ++i) {
    ASSERT_NEAR(s.amplitude(i).real(), amp, 1e-15);
  }
  EXPECT_NEAR(s.norm(), 1.0, 1e-12);
  EXPECT_THROW(s.apply_h_range(0, kIndexWidth), UnsupportedOperation);
  EXPECT_EQ(s.class_count(), 1u);  // state untouched by the rejection
}

TEST(StructuredBackend, GroverIterationMatchesDense) {
  StructuredBackend s(kQubits, kIndexWidth);
  DenseBackend d(kQubits);
  const std::vector<std::uint64_t> marked = {3, 7, 11};
  s.apply_h_range(0, kIndexWidth);
  d.apply_h_range(0, kIndexWidth);
  for (int it = 0; it < 5; ++it) {
    s.apply_phase_flip_set(marked);
    flip_marked(d, marked);
    s.apply_grover_diffusion(0, kIndexWidth);
    d.apply_grover_diffusion(0, kIndexWidth);
  }
  expect_states_equal(s, d);
  // Invariant I3: marked vs unmarked is exactly two classes.
  EXPECT_EQ(s.class_count(), 2u);
  EXPECT_LE(s.peak_class_count(), 4u);
  EXPECT_EQ(s.explicit_index_count(), marked.size());
}

TEST(StructuredBackend, A3FastPathsMatchDense) {
  StructuredBackend s(kQubits, kIndexWidth);
  DenseBackend d(kQubits);
  for (QuantumBackend* b : {static_cast<QuantumBackend*>(&s),
                            static_cast<QuantumBackend*>(&d)}) {
    b->apply_h_range(0, kIndexWidth);
    // A V_x / W_y / V_z round plus step 4, in the shapes A3 emits.
    for (std::uint64_t idx : {0ull, 5ull, 9ull}) fire(*b, IndexOp::kX, idx);
    for (std::uint64_t idx : {5ull, 6ull}) fire(*b, IndexOp::kZ, idx);
    for (std::uint64_t idx : {0ull, 5ull, 9ull}) fire(*b, IndexOp::kX, idx);
    b->apply_grover_diffusion(0, kIndexWidth);
    fire(*b, IndexOp::kX, 5);
    fire(*b, IndexOp::kCX, 5);
  }
  expect_states_equal(s, d);
  EXPECT_NEAR(s.probability_one(kL), d.probability_one(kL), 1e-12);
  EXPECT_NEAR(s.probability_one(kH), d.probability_one(kH), 1e-12);
}

TEST(StructuredBackend, MeasurementAgreesWithDenseSeedForSeed) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    StructuredBackend s(kQubits, kIndexWidth);
    DenseBackend d(kQubits);
    const std::vector<std::uint64_t> marked = {1, 4};
    s.apply_h_range(0, kIndexWidth);
    d.apply_h_range(0, kIndexWidth);
    s.apply_phase_flip_set(marked);
    flip_marked(d, marked);
    for (QuantumBackend* b : {static_cast<QuantumBackend*>(&s),
                              static_cast<QuantumBackend*>(&d)}) {
      b->apply_grover_diffusion(0, kIndexWidth);
      for (std::uint64_t idx : marked) {
        fire(*b, IndexOp::kX, idx);
        fire(*b, IndexOp::kCX, idx);
      }
    }
    Rng rs(seed), rd(seed);
    const bool outcome_s = s.measure(kL, rs);
    const bool outcome_d = d.measure(kL, rd);
    ASSERT_EQ(outcome_s, outcome_d) << "seed " << seed;
    ASSERT_NEAR(s.norm(), 1.0, 1e-12);
    expect_states_equal(s, d);
  }
}

TEST(StructuredBackend, RandomizedSupportedSequencesMatchDense) {
  Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    StructuredBackend s(kQubits, kIndexWidth);
    DenseBackend d(kQubits);
    s.apply_h_range(0, kIndexWidth);
    d.apply_h_range(0, kIndexWidth);
    for (int op = 0; op < 40; ++op) {
      const std::uint64_t idx = rng.below(16);
      const unsigned tail = kIndexWidth + static_cast<unsigned>(rng.below(2));
      const auto kind = rng.below(4);
      for (QuantumBackend* b : {static_cast<QuantumBackend*>(&s),
                                static_cast<QuantumBackend*>(&d)}) {
        switch (kind) {
          case 0:
            fire(*b, IndexOp::kX, idx, tail);
            break;
          case 1:
            fire(*b, IndexOp::kZ, idx, tail);
            break;
          case 2:
            fire(*b, IndexOp::kCX, idx);
            break;
          case 3:
            b->apply_grover_diffusion(0, kIndexWidth);
            break;
        }
      }
    }
    expect_states_equal(s, d);
    ASSERT_NEAR(s.norm(), 1.0, 1e-9) << "trial " << trial;
    // The class count never explodes: these ops touch O(1) indices each.
    ASSERT_LE(s.peak_class_count(), 64u);
  }
}

TEST(StructuredBackend, IndexRunsMatchPerIndexCalls) {
  // apply_on_index_run over a run against the same set bits fired as
  // one-byte runs -- GroverStreamer's per-symbol path -- exactly: the
  // structured backend's per-index loop, and the dense backend's masked
  // kernels reached through the backend interface.
  Rng rng(43);
  const std::uint64_t m = std::uint64_t{1} << kIndexWidth;
  for (int trial = 0; trial < 30; ++trial) {
    StructuredBackend s_run(kQubits, kIndexWidth);
    StructuredBackend s_bit(kQubits, kIndexWidth);
    DenseBackend d_run(kQubits);
    DenseBackend d_bit(kQubits);
    for (QuantumBackend* b : std::initializer_list<QuantumBackend*>{
             &s_run, &s_bit, &d_run, &d_bit}) {
      b->apply_h_range(0, kIndexWidth);
    }
    for (int run = 0; run < 12; ++run) {
      const std::uint64_t off = rng.below(m + 1);
      std::vector<std::uint8_t> ones(rng.below(m - off + 1));
      for (auto& bit : ones) bit = rng.coin() ? 1 : 0;
      const auto op = static_cast<IndexOp>(rng.below(3));
      for (QuantumBackend* b : {static_cast<QuantumBackend*>(&s_run),
                                static_cast<QuantumBackend*>(&d_run)}) {
        b->apply_on_index_run(op, kIndexWidth, off, ones, kH, kL);
      }
      for (QuantumBackend* b : {static_cast<QuantumBackend*>(&s_bit),
                                static_cast<QuantumBackend*>(&d_bit)}) {
        for (std::size_t i = 0; i < ones.size(); ++i) {
          if (ones[i] != 0) fire(*b, op, off + i);
        }
      }
      if (run % 4 == 3) {
        for (QuantumBackend* b : std::initializer_list<QuantumBackend*>{
                 &s_run, &s_bit, &d_run, &d_bit}) {
          b->apply_grover_diffusion(0, kIndexWidth);
        }
      }
    }
    expect_states_equal(s_run, s_bit, 0.0);
    expect_states_equal(d_run, d_bit, 0.0);
    expect_states_equal(s_run, d_run);
    if (HasFatalFailure()) return;
  }
}

TEST(StructuredBackend, ManyDiffusionsKeepClassCountBounded) {
  StructuredBackend s(kQubits, kIndexWidth);
  s.apply_h_range(0, kIndexWidth);
  const std::vector<std::uint64_t> marked = {6};
  for (int it = 0; it < 1000; ++it) {
    s.apply_phase_flip_set(marked);
    s.apply_grover_diffusion(0, kIndexWidth);
    ASSERT_LE(s.class_count(), 3u);
  }
  EXPECT_NEAR(s.norm(), 1.0, 1e-9);
}

TEST(StructuredBackend, UnsupportedOperationsThrow) {
  StructuredBackend s(kQubits, kIndexWidth);
  s.apply_h_range(0, kIndexWidth);
  EXPECT_THROW(s.apply_h_range(0, 2), UnsupportedOperation);  // sub-range
  Rng rng(1);
  EXPECT_THROW(s.measure(0, rng), UnsupportedOperation);  // index measurement
  // An oracle whose target is an index-register qubit.
  EXPECT_THROW(s.apply_x_on_index(0, kIndexWidth, 3, 1), UnsupportedOperation);
  // H range on a state that is not an index-0 product state.
  s.apply_phase_flip_set(std::vector<std::uint64_t>{5});
  EXPECT_THROW(s.apply_h_range(0, kIndexWidth), UnsupportedOperation);
}

TEST(StructuredBackend, HRangeRejectsMultiIndexConcentration) {
  // Regression: a state whose support is {0, 1} (a two-member class after a
  // collapse) is NOT an index-0 product state; apply_h_range must throw,
  // never silently emit an unnormalized state.
  StructuredBackend s(kQubits, kIndexWidth);
  s.apply_h_range(0, kIndexWidth);
  s.apply_x_on_index(0, kIndexWidth, 0, kIndexWidth);
  s.apply_x_on_index(0, kIndexWidth, 1, kIndexWidth);  // class {0,1}, h=1
  // Find a seed measuring h = 1 so only the {0,1} class survives.
  bool exercised = false;
  for (std::uint64_t seed = 0; seed < 64 && !exercised; ++seed) {
    StructuredBackend t(kQubits, kIndexWidth);
    t.apply_h_range(0, kIndexWidth);
    t.apply_x_on_index(0, kIndexWidth, 0, kIndexWidth);
    t.apply_x_on_index(0, kIndexWidth, 1, kIndexWidth);
    Rng rng(seed);
    if (!t.measure(kIndexWidth, rng)) continue;
    exercised = true;
    ASSERT_NEAR(t.norm(), 1.0, 1e-12);
    EXPECT_THROW(t.apply_h_range(0, kIndexWidth), UnsupportedOperation);
    EXPECT_NEAR(t.norm(), 1.0, 1e-12);  // state untouched by the rejection
  }
  EXPECT_TRUE(exercised);
}

TEST(StructuredBackend, ConstructionValidatesTheSplit) {
  EXPECT_THROW(StructuredBackend(4, 0), std::invalid_argument);
  EXPECT_THROW(StructuredBackend(4, 4), std::invalid_argument);
  EXPECT_THROW(StructuredBackend(60, 59), std::invalid_argument);
  EXPECT_NO_THROW(StructuredBackend(58, 56));  // 56 index qubits: fine
}

TEST(StructuredBackend, LargeIndexRegisterStaysExact) {
  // k = 20 equivalent: 40 index qubits, far beyond any dense register.
  const unsigned w = 40;
  StructuredBackend s(w + 2, w);
  s.apply_h_range(0, w);
  EXPECT_EQ(s.class_count(), 1u);
  const double amp = std::pow(2.0, -20.0);  // 1/sqrt(2^40), exact in binary
  EXPECT_DOUBLE_EQ(s.amplitude(123456789).real(), amp);
  const std::vector<std::uint64_t> marked = {std::uint64_t{1} << 39};
  for (int it = 0; it < 100; ++it) {
    s.apply_phase_flip_set(marked);
    s.apply_grover_diffusion(0, w);
  }
  EXPECT_NEAR(s.norm(), 1.0, 1e-9);
  EXPECT_LE(s.class_count(), 3u);
  EXPECT_EQ(s.explicit_index_count(), 1u);
}

}  // namespace
