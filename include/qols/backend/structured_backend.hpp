#pragma once
// StructuredBackend: symmetry-aware simulation of the A3 register.
//
// Representation. The register is split at construction into an *index
// register* of `index_width` qubits [0, w) — 2k qubits for A3 — and a small
// *tail* [w, n) — A3's oracle workspace h and result l. Throughout A3 the
// state always has the form
//
//   |psi> = sum_i |i> (x) v_{c(i)},     i in [0, 2^w),
//
// where v_c is a 2^{n-w}-dimensional tail vector shared by every index in
// equivalence class c: the uniform preparation makes all indices identical,
// each streamed oracle bit moves exactly one index between classes, and the
// diffusion 2|u><u| - I acts sector-wise (it never distinguishes indices
// inside a class). The backend stores one AmpClass per equivalence class:
// its shared tail-amplitude vector, its cardinality, and its membership —
// either an explicit hash set or the designated *rest* class holding the
// complement of every explicit set.
//
// Invariants (checked by tests/test_backend_structured.cpp):
//   I1  classes partition [0, 2^w): exactly one rest class; explicit member
//       sets are disjoint; counts sum to 2^w.
//   I2  amplitude(i | c << w) = classes[class_of(i)].amp[c] — the probe is
//       O(#classes).
//   I3  after every operation, no two classes carry bit-identical amplitude
//       vectors (coalesce() merges them), so #classes measures the true
//       symmetry of the state: a uniform state is 1 class, a Grover state
//       with t marked items is <= 2 + O(1) classes.
//
// Cost model. Per-symbol A3 oracles (V_x/W_y/R_y on one index) cost
// O(#classes) plus O(1) amortized hash updates; the Grover diffusion and
// measurement cost O(#classes * 2^{n-w}) — *independent of 2^{2k}*. Memory
// is O(#explicitly tracked indices), i.e. O(set bits streamed so far) when
// streaming and O(t) when driving whole Grover iterations through
// apply_phase_flip_set, which is what lets experiment E19 run k = 14..20
// (28-40 index qubits, a dense-infeasible 2^{30}..2^{42}-amplitude state).
//
// Beyond the QuantumBackend interface, the per-index oracles
// apply_{x,z,cx}_on_index and apply_phase_flip_set are public members of
// the concrete type: apply_on_index_run loops the first three, and
// experiment E19 holds a StructuredBackend directly to drive whole Grover
// repetitions at k = 14..20 through them.
//
// Shapes that would break the class form throw UnsupportedOperation; A3
// never needs them: an H range on part of the index register or on a state
// that is not an index-0 product state, an oracle or diffusion on a
// sub-range of the index register, an oracle whose h/target is an index
// qubit, and measuring an index qubit.

#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "qols/backend/quantum_backend.hpp"

namespace qols::backend {

class StructuredBackend final : public QuantumBackend {
 public:
  /// |0...0> with index register [0, index_width) and tail
  /// [index_width, num_qubits). Requires 1 <= index_width < num_qubits,
  /// index_width <= 58 and a tail of at most 16 qubits.
  StructuredBackend(unsigned num_qubits, unsigned index_width);

  std::string_view id() const noexcept override { return "structured"; }
  unsigned num_qubits() const noexcept override { return num_qubits_; }
  unsigned index_width() const noexcept { return index_width_; }

  /// Only the preparation direction: an index-0 product state becomes the
  /// uniform superposition (one class).
  void apply_h_range(unsigned first, unsigned count) override;
  /// Loops apply_{x,z,cx}_on_index over the set bytes of the run.
  void apply_on_index_run(IndexOp op, unsigned count, std::uint64_t offset,
                          std::span<const std::uint8_t> ones, unsigned h,
                          unsigned target) override;
  void apply_grover_diffusion(unsigned first, unsigned count) override;

  // --- concrete-type operations (experiment E19) ---------------------------
  /// Diagonal +-1 oracle given by its marked set: negates the amplitude of
  /// every listed basis state (full-register basis indices). One call stands
  /// for a whole repetition's V_x W_y V_x round.
  void apply_phase_flip_set(std::span<const std::uint64_t> marked);
  /// V_x on one index: X on tail qubit `target` iff the index register
  /// [first, first+count) -- which must be all of it -- is |index>.
  void apply_x_on_index(unsigned first, unsigned count, std::uint64_t index,
                        unsigned target);
  /// W_y on one index: phase flip iff index register == |index> and tail
  /// qubit `h` == 1.
  void apply_z_on_index(unsigned first, unsigned count, std::uint64_t index,
                        unsigned h);
  /// R_y on one index: X on tail qubit `target` iff index register ==
  /// |index> and tail qubit `h` == 1.
  void apply_cx_on_index(unsigned first, unsigned count, std::uint64_t index,
                         unsigned h, unsigned target);

  /// Class-list serialization: per class the shared sector vector, count,
  /// rest flag and the member set (sorted, so snapshots of equal states are
  /// byte-identical regardless of hash-set iteration order).
  void serialize_state(util::serde::ByteWriter& w) const override;
  void restore_state(util::serde::ByteReader& r) override;

  double probability_one(unsigned q) const override;
  bool measure(unsigned q, util::Rng& rng) override;
  Amplitude amplitude(std::uint64_t basis) const override;
  double norm() const override;

  /// Number of amplitude classes right now (invariant I3 makes this the
  /// true symmetry count; the per-operation cost driver).
  std::size_t class_count() const noexcept { return classes_.size(); }
  /// High-water mark of class_count() since construction.
  std::size_t peak_class_count() const noexcept { return peak_classes_; }
  /// Indices currently tracked explicitly (the memory driver).
  std::size_t explicit_index_count() const noexcept;

 private:
  struct AmpClass {
    std::vector<Amplitude> amp;  ///< 2^{tail} shared sector amplitudes
    std::uint64_t count = 0;     ///< indices in the class
    bool is_rest = false;        ///< complement of all explicit member sets
    std::unordered_set<std::uint64_t> members;  ///< empty iff is_rest
  };

  std::size_t find_class(std::uint64_t index) const;
  /// Splits `index` into a singleton class (no-op if already one) and
  /// returns its position in classes_.
  std::size_t isolate(std::uint64_t index);
  /// Restores invariant I3: merges identical-amplitude classes, drops empty
  /// ones.
  void coalesce();
  void require_full_index_range(unsigned first, unsigned count,
                                const char* op) const;
  /// Validates q is a tail qubit; returns its bit within a sector.
  unsigned tail_bit(unsigned q, const char* op) const;
  double sector_norm(const AmpClass& c) const;

  unsigned num_qubits_;
  unsigned index_width_;
  unsigned tail_width_;
  std::uint64_t index_size_;  ///< 2^{index_width}
  std::size_t sectors_;       ///< 2^{tail_width}
  std::vector<AmpClass> classes_;
  std::size_t peak_classes_ = 1;
};

}  // namespace qols::backend
