#pragma once
// Pluggable quantum-simulation backends.
//
// GroverStreamer (procedure A3) talks to the quantum register through this
// interface instead of a concrete StateVector, so the same streamed gate
// schedule can run against
//   - DenseBackend: the exact 2^n-amplitude simulator (qols/quantum/
//     state_vector.hpp) — the reference semantics, feasible to 2k+2 <= 30
//     qubits;
//   - StructuredBackend: a symmetry-aware simulator that stores one
//     amplitude vector per *equivalence class* of index-register basis
//     states, making every A3 operation cost O(#classes) instead of
//     O(2^{2k}) and lifting the feasible k well past the dense wall.
//
// The operation set is exactly what A3 needs: the index-register preparation
// H^{x2k}, the per-symbol V_x/W_y/R_y fast paths and their per-run form
// (one call per run of streamed data bits), the U_k S_k U_k Grover
// diffusion (a single composite call so both backends can apply
// 2|u><u| - I directly, as a mean reflection), pattern-controlled gates,
// last-qubit measurement and an amplitude/probability probe for
// differential testing.
//
// A backend that cannot represent the result of an operation throws
// UnsupportedOperation instead of silently computing the wrong state; the
// dense backend supports everything except a Grover diffusion on an index
// register that does not start at qubit 0.

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "qols/quantum/state_vector.hpp"
#include "qols/util/rng.hpp"
#include "qols/util/serde.hpp"

namespace qols::backend {

using quantum::Amplitude;
using quantum::ControlTerm;

/// Thrown when a backend is asked for an operation outside its representable
/// set (e.g. a Hadamard on one index-register qubit of the structured
/// backend). Indicates a caller bug or a backend/workload mismatch —
/// DenseBackend throws it only for a diffusion with first != 0.
class UnsupportedOperation : public std::logic_error {
 public:
  explicit UnsupportedOperation(const std::string& what)
      : std::logic_error("backend: unsupported operation: " + what) {}
};

/// Which of A3's index-controlled oracles apply_on_index_run applies.
enum class IndexOp : std::uint8_t {
  kX,   ///< V_x: X on h                 (apply_x_on_index)
  kZ,   ///< W_y: phase flip if h == 1   (apply_z_on_index)
  kCX,  ///< R_y: X on target if h == 1  (apply_cx_on_index)
};

/// Abstract quantum register: everything procedure A3 applies or observes.
/// Qubits are little-endian (qubit q is bit q of a basis index), matching
/// StateVector. The register starts in |0...0>.
class QuantumBackend {
 public:
  virtual ~QuantumBackend() = default;

  /// Registry id of the concrete backend ("dense", "structured").
  virtual std::string_view id() const noexcept = 0;

  /// Amplitude precision this instance simulates with. kDouble unless the
  /// backend was built with an explicit float request (dense only; the
  /// structured backend is double-only and ignores the request — see
  /// registry.cpp).
  virtual quantum::Precision precision() const noexcept {
    return quantum::Precision::kDouble;
  }

  virtual unsigned num_qubits() const noexcept = 0;

  /// Back to |0...0>.
  virtual void reset() = 0;

  // --- single-qubit gates --------------------------------------------------
  virtual void apply_h(unsigned q) = 0;
  virtual void apply_x(unsigned q) = 0;
  virtual void apply_z(unsigned q) = 0;

  // --- pattern-controlled gates --------------------------------------------
  /// X on `target` conditioned on every ControlTerm holding.
  virtual void apply_mcx(std::span<const ControlTerm> controls,
                         unsigned target) = 0;
  /// Phase flip (-1) on basis states satisfying every ControlTerm.
  virtual void apply_mcz(std::span<const ControlTerm> controls) = 0;

  // --- structured operators of procedure A3 --------------------------------
  /// Hadamard on each qubit in [first, first+count): U_k on the index
  /// register.
  virtual void apply_h_range(unsigned first, unsigned count) = 0;

  /// S_k on [first, first+count): |i> -> -|i> for i != 0, |0> -> |0>.
  virtual void apply_reflect_zero(unsigned first, unsigned count) = 0;

  /// The full Grover diffusion U_k S_k U_k = 2|u><u| - I on
  /// [first, first+count), exposed as one composite so backends apply it as
  /// a reflection about each sector's mean (structured: O(#classes); dense:
  /// two streaming passes) without a general mid-state Hadamard transform.
  /// Both backends require first == 0 and throw UnsupportedOperation
  /// otherwise.
  virtual void apply_grover_diffusion(unsigned first, unsigned count) = 0;

  /// Diagonal +-1 oracle given by its marked set: negates the amplitude of
  /// every listed basis state (full-register basis indices).
  virtual void apply_phase_flip_set(std::span<const std::uint64_t> marked) = 0;

  /// V_x fast path: X on `target` conditioned on the index register
  /// [first, first+count) being exactly |index>.
  virtual void apply_x_on_index(unsigned first, unsigned count,
                                std::uint64_t index, unsigned target) = 0;

  /// W_y fast path: phase flip conditioned on index register == |index> AND
  /// qubit `h` == 1.
  virtual void apply_z_on_index(unsigned first, unsigned count,
                                std::uint64_t index, unsigned h) = 0;

  /// R_y fast path: X on `target` conditioned on index register == |index>
  /// AND qubit `h` == 1.
  virtual void apply_cx_on_index(unsigned first, unsigned count,
                                 std::uint64_t index, unsigned h,
                                 unsigned target) = 0;

  /// A3's oracle over a run of streamed data bits: for every i with
  /// ones[i] != 0 (ones holds 0/1 bytes), `op` on index offset + i of the
  /// index register [0, count) — X on h, Z conditioned on h, or X on
  /// `target` conditioned on h (`target` is read only by kCX). Requires
  /// offset + ones.size() <= 2^count. The default loops the per-index calls
  /// above over the set bytes; the dense backend overrides it with one
  /// masked pass over contiguous amplitude ranges, bit-identical to that
  /// loop.
  virtual void apply_on_index_run(IndexOp op, unsigned count,
                                  std::uint64_t offset,
                                  std::span<const std::uint8_t> ones,
                                  unsigned h, unsigned target) {
    for (std::size_t i = 0; i < ones.size(); ++i) {
      if (ones[i] == 0) continue;
      const std::uint64_t index = offset + i;
      switch (op) {
        case IndexOp::kX:
          apply_x_on_index(0, count, index, h);
          break;
        case IndexOp::kZ:
          apply_z_on_index(0, count, index, h);
          break;
        case IndexOp::kCX:
          apply_cx_on_index(0, count, index, h, target);
          break;
      }
    }
  }

  // --- snapshot / restore --------------------------------------------------
  /// Serializes the register for recognizer snapshot/restore. The payload is
  /// backend-specific; restore_state() on a freshly constructed backend of
  /// the same type, geometry and (for dense) precision reads it back
  /// bit-identically — amplitudes travel as raw IEEE bit patterns, never
  /// re-rounded. The defaults are the honest refusal: a backend that cannot
  /// round-trip its representation throws UnsupportedOperation instead of
  /// producing a lossy snapshot.
  virtual void serialize_state(util::serde::ByteWriter& w) const {
    (void)w;
    throw UnsupportedOperation("state serialization (" + std::string(id()) +
                               ")");
  }
  virtual void restore_state(util::serde::ByteReader& r) {
    (void)r;
    throw UnsupportedOperation("state restore (" + std::string(id()) + ")");
  }

  // --- measurement / probes ------------------------------------------------
  /// P[measuring qubit q yields 1].
  virtual double probability_one(unsigned q) const = 0;

  /// Projective measurement of qubit q; collapses and renormalizes. Draws
  /// exactly one uniform01() from `rng` (identical consumption across
  /// backends, so decisions are seed-for-seed comparable).
  virtual bool measure(unsigned q, util::Rng& rng) = 0;

  /// Amplitude of one computational basis state — the differential-testing
  /// probe. O(1) for the structured backend.
  virtual Amplitude amplitude(std::uint64_t basis) const = 0;

  /// L2 norm of the state (1 up to rounding; tested invariant).
  virtual double norm() const = 0;

  /// Escape hatch for dense-only consumers (gate-level replay comparisons):
  /// the underlying double-precision StateVector, or nullptr for non-dense
  /// backends AND for the float-precision dense backend (its register is not
  /// the double reference type; probe it through amplitude()).
  virtual const quantum::StateVector* dense_state() const noexcept {
    return nullptr;
  }
};

}  // namespace qols::backend
