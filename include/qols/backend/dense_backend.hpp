#pragma once
// DenseBackend: the QuantumBackend adapter over the exact dense StateVector.
// Reference semantics for every other backend — the differential suite
// (tests/test_backend_differential.cpp) pins StructuredBackend against it.
//
// The adapter is a template on the amplitude scalar, mirroring
// quantum::StateVectorT: DenseBackend (double) is the reference; the float
// instantiation is the opt-in fast mode selected through
// quantum::Precision::kSingle at the factory (registry.hpp). Float-mode
// decisions match double exactly under the precision contract
// (docs/ARCHITECTURE.md); amplitudes carry per-gate-count rounding, which is
// why dense_state() — the double-reference escape hatch — returns nullptr
// for the float instantiation.
//
// Cost model: the H range and the diffusion are streaming O(2^n) passes (the
// diffusion a sector mean reflection); a run of oracle bits is one masked
// sequential pass of 2^{n - index width} contiguous ranges; memory is
// 16 bytes * 2^n for double and 8 bytes * 2^n for float, which caps the
// feasible A3 depth at k ~ 10-14 (2k+2 <= 30 qubits).

#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "qols/backend/quantum_backend.hpp"
#include "qols/telemetry/registry.hpp"

namespace qols::backend {

template <typename Scalar>
class DenseBackendT final : public QuantumBackend {
 public:
  /// |0...0> on `num_qubits` (1..30; StateVector validates).
  explicit DenseBackendT(unsigned num_qubits) : state_(num_qubits) {}

  std::string_view id() const noexcept override { return "dense"; }
  quantum::Precision precision() const noexcept override {
    return std::is_same_v<Scalar, float> ? quantum::Precision::kSingle
                                         : quantum::Precision::kDouble;
  }
  unsigned num_qubits() const noexcept override {
    return state_.num_qubits();
  }

  void apply_h_range(unsigned first, unsigned count) override {
    state_.apply_h_range(first, count);
  }
  void apply_grover_diffusion(unsigned first, unsigned count) override {
    static telemetry::SpanSite site =
        telemetry::SpanSite::resolve("quantum.diffusion");
    telemetry::TraceSpan span(site);
    if (first != 0) {
      throw UnsupportedOperation(
          "Grover diffusion on a sub-range of the index register");
    }
    // U_k S_k U_k as the sector mean reflection amp -> 2 * mean - amp, the
    // algorithm StructuredBackend uses: two passes instead of two H ladders
    // around a reflect-zero. It agrees with the H form to rounding, not bit
    // for bit; gate-level circuits still spell the diffusion out in H gates.
    state_.apply_mean_reflection(first, count);
  }
  void apply_on_index_run(IndexOp op, unsigned count, std::uint64_t offset,
                          std::span<const std::uint8_t> ones, unsigned h,
                          unsigned target) override {
    switch (op) {
      case IndexOp::kX:
        state_.apply_x_on_index_run(count, offset, ones, h);
        break;
      case IndexOp::kZ:
        state_.apply_z_on_index_run(count, offset, ones, h);
        break;
      case IndexOp::kCX:
        state_.apply_cx_on_index_run(count, offset, ones, h, target);
        break;
    }
  }

  void serialize_state(util::serde::ByteWriter& w) const override {
    w.u32(state_.num_qubits());
    for (const Scalar v : state_.re()) put_scalar(w, v);
    for (const Scalar v : state_.im()) put_scalar(w, v);
  }
  void restore_state(util::serde::ByteReader& r) override {
    if (r.u32() != state_.num_qubits()) {
      throw util::serde::DecodeError("dense backend: qubit count mismatch");
    }
    std::vector<Scalar> re(state_.dim());
    std::vector<Scalar> im(state_.dim());
    for (Scalar& v : re) v = get_scalar(r);
    for (Scalar& v : im) v = get_scalar(r);
    state_.load(re, im);
  }

  double probability_one(unsigned q) const override {
    return state_.probability_one(q);
  }
  bool measure(unsigned q, util::Rng& rng) override {
    return state_.measure(q, rng);
  }
  Amplitude amplitude(std::uint64_t basis) const override {
    return state_.amplitude(static_cast<std::size_t>(basis));
  }
  double norm() const override { return state_.norm(); }

  const quantum::StateVector* dense_state() const noexcept override {
    if constexpr (std::is_same_v<Scalar, double>) {
      return &state_;
    } else {
      return nullptr;  // float register is not the double reference type
    }
  }

  /// The typed register, for precision-aware consumers (tests).
  const quantum::StateVectorT<Scalar>& typed_state() const noexcept {
    return state_;
  }

 private:
  // Scalars travel as their own IEEE width: a float snapshot restored into a
  // float backend is bit-identical, and the width mismatch between modes is
  // caught by the payload-length check, never silently converted.
  static void put_scalar(util::serde::ByteWriter& w, Scalar v) {
    if constexpr (std::is_same_v<Scalar, double>) {
      w.f64(v);
    } else {
      w.f32(v);
    }
  }
  static Scalar get_scalar(util::serde::ByteReader& r) {
    if constexpr (std::is_same_v<Scalar, double>) {
      return r.f64();
    } else {
      return r.f32();
    }
  }

  quantum::StateVectorT<Scalar> state_;
};

/// The reference (double) adapter — the type the rest of the library names.
using DenseBackend = DenseBackendT<double>;
/// The opt-in float fast mode.
using DenseBackendF = DenseBackendT<float>;

}  // namespace qols::backend
