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
// The interface is exactly what GroverStreamer calls, one way per
// operation of A3: the index-register preparation H^{x2k}
// (apply_h_range), the streamed V_x/W_y/R_y oracles (apply_on_index_run,
// which takes a run of data bits; a single 1-bit is a run of one), the
// U_k S_k U_k Grover diffusion (apply_grover_diffusion, one composite call
// so both backends apply 2|u><u| - I directly, as a mean reflection),
// snapshot/restore, and the last-qubit probability and measurement. The
// amplitude(), norm() and dense_state() probes exist for differential
// testing. Gate-level kernels (single-qubit and pattern-controlled gates,
// per-index oracles, reflect-zero) live on the concrete types --
// quantum::StateVectorT and StructuredBackend -- for the callers that hold
// those types directly.
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

/// Thrown when a backend is asked for an operation outside its representable
/// set (e.g. an H range over part of the structured backend's index
/// register, or a measurement of one of its index qubits). Indicates a
/// caller bug or a backend/workload mismatch — DenseBackend throws it only
/// for a diffusion with first != 0.
class UnsupportedOperation : public std::logic_error {
 public:
  explicit UnsupportedOperation(const std::string& what)
      : std::logic_error("backend: unsupported operation: " + what) {}
};

/// Which of A3's index-controlled oracles apply_on_index_run applies.
enum class IndexOp : std::uint8_t {
  kX,   ///< V_x: X on h
  kZ,   ///< W_y: phase flip if h == 1
  kCX,  ///< R_y: X on target if h == 1
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

  // --- the operators of procedure A3 ----------------------------------------
  /// H^{x count} on [first, first+count): A3's step 1, U_k applied to the
  /// index register in |0...0>.
  virtual void apply_h_range(unsigned first, unsigned count) = 0;

  /// A3's oracle over a run of streamed data bits: for every i with
  /// ones[i] != 0 (ones holds 0/1 bytes), `op` on index offset + i of the
  /// index register [0, count) -- X on h (V_x), a phase flip conditioned on
  /// h == 1 (W_y), or X on `target` conditioned on h == 1 (R_y; `target` is
  /// read only by kCX). Requires offset + ones.size() <= 2^count. The one
  /// oracle entry point: a single streamed 1-bit is a one-byte run.
  virtual void apply_on_index_run(IndexOp op, unsigned count,
                                  std::uint64_t offset,
                                  std::span<const std::uint8_t> ones,
                                  unsigned h, unsigned target) = 0;

  /// The Grover diffusion U_k S_k U_k = 2|u><u| - I on [first, first+count),
  /// one composite call so backends apply it as a reflection about each
  /// sector's mean (structured: O(#classes); dense: two streaming passes)
  /// without a general mid-state Hadamard transform. Both backends require
  /// first == 0 and throw UnsupportedOperation otherwise.
  virtual void apply_grover_diffusion(unsigned first, unsigned count) = 0;

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
