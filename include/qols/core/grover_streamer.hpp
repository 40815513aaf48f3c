#pragma once
// Procedure A3 (proof of Theorem 3.4): the quantum heart of the online
// machine. Streams the Buhrman-Cleve-Wigderson protocol over the repeated
// input:
//
//   1. |phi> <- H^{x2k} |0>  (uniform superposition on the 2k index qubits)
//   2. pick j uniform in {0, ..., 2^k - 1}
//   3. for repetitions i = 1..j:  |phi> <- U_k S_k U_k V_z(i) W_y(i) V_x(i)
//      (one Grover iteration per repetition; V/W gates are emitted bit by
//      bit as the input streams past)
//   4. on repetition j+1:  |phi> <- R_y(j+1) V_x(j+1)
//   5. measure the last qubit; output 1 - outcome.
//
// Register layout: qubits [0, 2k) = index register, qubit 2k = h (the oracle
// workspace), qubit 2k+1 = l (the AND result R_y writes). Each streamed bit
// fixes the *entire* index register, so its gate touches O(1) amplitudes and
// the per-symbol cost of the simulation is constant. A run of data bits
// between separators addresses consecutive indices, so feed_chunk hands the
// whole run to the backend as one call (QuantumBackend::apply_on_index_run):
// on the dense register that is one masked sequential pass per run instead
// of a call per 1-bit.
//
// Simulation runs through a pluggable backend::QuantumBackend chosen per
// instance (see qols/backend/registry.hpp): the dense StateVector while
// k <= max_sim_k, the symmetry-aware structured backend past the dense wall
// up to max_structured_k, and — beyond every ceiling — an explicit
// *not simulated* status (finish_output() == kNotSimulated) instead of a
// silently absent decision.
//
// Gate-level mode: the same per-bit schedule is additionally lowered to the
// paper's {H, T, CNOT} alphabet through a CircuitBuilder writing to any
// GateSink (count, tape, or immediate application), with 2k compiler
// ancillas above the data register. This realizes Definition 2.3's output
// tape literally.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "qols/backend/quantum_backend.hpp"
#include "qols/gates/builder.hpp"
#include "qols/stream/symbol_stream.hpp"
#include "qols/util/rng.hpp"

namespace qols::core {

class GroverStreamer {
 public:
  struct Options {
    /// Simulate the register (needed for decisions/probabilities).
    bool simulate = true;
    /// If set, also lower every operation to {H,T,CNOT} into this sink.
    gates::GateSink* gate_sink = nullptr;
    /// Backend id ("dense", "structured"), or empty/"auto" to pick per k —
    /// the QOLS_BACKEND environment override applies only when empty.
    /// Unknown ids throw std::invalid_argument at construction.
    std::string backend{};
    /// Largest k the dense simulator will instantiate (2k+2 qubits).
    unsigned max_sim_k = 10;
    /// Largest k the structured backend is auto-selected for; past this the
    /// run is reported as not simulated.
    unsigned max_structured_k = 16;
    /// Amplitude precision request, forwarded to the backend factory.
    /// kSingle selects the dense float fast mode; the structured backend is
    /// double-only and ignores it. Decisions, accept counts, and space
    /// reports are precision-invariant (the contract tested by
    /// tests/test_precision_differential.cpp); only amplitudes differ,
    /// within the documented per-gate-count tolerance.
    quantum::Precision precision = quantum::Precision::kDouble;
  };

  /// finish_output() value when the register could not be simulated (k
  /// beyond every backend ceiling): the caller must surface the missing
  /// decision instead of treating the word as decided.
  static constexpr int kNotSimulated = -1;

  explicit GroverStreamer(util::Rng rng);
  GroverStreamer(util::Rng rng, Options opts);

  /// Consumes one symbol of the word (same stream as A1/A2). A data 1-bit
  /// that fires an oracle reaches the register as a one-byte
  /// QuantumBackend::apply_on_index_run, the only oracle entry point.
  void feed(stream::Symbol s);

  /// Consumes a run of symbols; identical register evolution, RNG
  /// consumption and gates_applied() to per-symbol feeding. The chunk is
  /// split at separators, and each data run (clipped at the block's end) is
  /// one apply_on_index_run call over the whole run -- the per-symbol path
  /// is the same call on runs of one byte. The post-measurement tail is
  /// ignored wholesale. Gate-level mode (a gate sink) stays bit by bit.
  void feed_chunk(std::span<const stream::Symbol> chunk);

  /// A3's output: 1 if the measured ancilla was 0 ("looks disjoint"),
  /// 0 otherwise, kNotSimulated if the register exceeded every backend
  /// ceiling. Performs the projective measurement using this streamer's
  /// RNG. Call once, after the stream ends.
  int finish_output();

  /// Exact P[measuring l yields 1] for this run's j — i.e. this run's
  /// rejection probability on consistent intersecting inputs, equal to
  /// sin^2((2j+1) theta). Available before finish_output().
  double probability_output_zero() const;

  /// True iff a simulating run was requested but no backend could cover k.
  bool not_simulated() const noexcept { return overflow_; }

  /// The Grover iteration count drawn in step 2 (after the prefix is read).
  std::optional<std::uint64_t> chosen_j() const noexcept {
    return active_ ? std::optional<std::uint64_t>(j_) : std::nullopt;
  }

  /// Qubits of the data register (2k+2), excluding compiler ancillas.
  std::uint64_t qubits_used() const noexcept {
    return active_ ? 2ULL * k_ + 2 : 0;
  }
  /// Compiler ancillas on top (gate-level mode only).
  std::uint64_t ancilla_qubits_used() const noexcept;

  /// Classical work bits: the prefix counter, j, repetition and offset
  /// counters — O(k) total.
  std::uint64_t classical_bits_used() const noexcept;

  /// The same accounting as classical_bits_used() for a hypothetical run at
  /// depth k — the single source of truth for A3's classical footprint
  /// (experiment E19 reports it for runs it drives at backend level).
  static std::uint64_t classical_bits_for(unsigned k) noexcept;

  /// Total {H,T,CNOT} gates emitted (gate-level mode only).
  std::uint64_t gates_emitted() const noexcept;

  /// Backend operations applied to the register this run (H-range prep,
  /// per-bit V/W gates, diffusions). Plain tally for telemetry attribution;
  /// NOT part of the snapshot wire format — a revived session restarts it.
  std::uint64_t gates_applied() const noexcept { return gates_applied_; }

  /// Serializes the full streamer state — control fields, RNG, and the
  /// backend register via QuantumBackend::serialize_state. Refuses (throws
  /// backend::UnsupportedOperation) in gate-level mode: the external
  /// GateSink's position cannot be captured here.
  void snapshot_to(util::serde::ByteWriter& w) const;
  /// Inverse of snapshot_to on a freshly constructed streamer; rebuilds the
  /// backend from its recorded id/precision and restores its register
  /// bit-identically. Refuses when this streamer has a gate sink configured.
  void restore_from(util::serde::ByteReader& r);

  /// The simulating backend, or nullptr (not simulating / not yet active).
  const backend::QuantumBackend* simulation_backend() const noexcept {
    return backend_.get();
  }

  /// Read-only view of the dense register when the dense backend is active
  /// (tests, gate-level replay comparisons); nullptr otherwise.
  const quantum::StateVector* state() const noexcept {
    return backend_ ? backend_->dense_state() : nullptr;
  }

 private:
  void on_bit(bool bit);
  /// A run of data bits of the current block (no separator).
  void on_run(std::span<const stream::Symbol> run);
  void on_sep();
  /// The oracle the current block applies per 1-bit; none in step 4's
  /// z-block.
  std::optional<backend::IndexOp> block_op() const noexcept;
  /// Gate-level mode: the controls "index register == |idx>" (plus h == 1
  /// when `with_h`), built in the reused terms_ buffer.
  std::span<const quantum::ControlTerm> index_terms(std::uint64_t idx,
                                                    bool with_h);
  void apply_diffusion();

  util::Rng rng_;
  Options opts_;

  bool in_prefix_ = true;
  unsigned k_ = 0;
  bool active_ = false;   // simulating (shape plausible, k within range)
  bool overflow_ = false; // k exceeded every ceiling: cannot simulate honestly

  std::uint64_t m_ = 0;     // 2^{2k}
  std::uint64_t j_ = 0;     // Grover iterations to run
  std::uint64_t rep_ = 0;   // 0-based repetition index
  unsigned block_ = 0;      // 0 = x, 1 = y, 2 = z
  std::uint64_t off_ = 0;   // offset within the current block
  bool done_ = false;       // step 4 finished; ignore the rest
  std::uint64_t gates_applied_ = 0;  // telemetry only; never serialized

  std::unique_ptr<backend::QuantumBackend> backend_;
  std::unique_ptr<gates::CircuitBuilder> builder_;
  std::vector<quantum::ControlTerm> terms_;  // index_terms() scratch
};

}  // namespace qols::core
