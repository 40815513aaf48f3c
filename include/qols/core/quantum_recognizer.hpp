#pragma once
// The paper's main construction (Theorem 3.4 / Corollary 3.5): a quantum
// online machine deciding L_DISJ with O(log n) classical bits + O(log n)
// qubits.
//
// Composition rule (Section 3.2): run A1, A2, A3 in parallel on the stream;
//   - A1 = 0 (shape broken)          -> reject
//   - A1 = 1, A2 = 0 (inconsistent)  -> reject
//   - A1 = A2 = 1                    -> accept iff A3 outputs 1.
//
// Guarantees, phrased for membership in L_DISJ:
//   - w in L_DISJ     => accepted with probability 1   (perfect completeness)
//   - w not in L_DISJ => rejected with probability >= 1/4 (one-sided error)
//
// Flipping accept/reject turns this machine into the OQRSPACE(log n)
// recognizer of the *complement* language, which is how Theorem 3.4 states
// it (Definition 2.3's one-sided classes put the error on the accept side).
// Corollary 3.5 (bounded error 2/3 for both L_DISJ and its complement)
// follows by running independent copies — see AmplifiedRecognizer.

#include <cstdint>
#include <memory>
#include <optional>

#include "qols/core/grover_streamer.hpp"
#include "qols/core/validator_front.hpp"
#include "qols/machine/online_recognizer.hpp"

namespace qols::core {

class QuantumOnlineRecognizer final : public machine::OnlineRecognizer {
 public:
  struct Options {
    /// Forwarded to the A3 streamer (backend selection, gate-level
    /// lowering etc.).
    GroverStreamer::Options a3;
  };

  /// Three-valued decision: kNotSimulated flags that A1/A2 passed but A3's
  /// register exceeded every simulation backend's ceiling, so no honest
  /// accept/reject exists for this run.
  enum class Verdict { kAccept, kReject, kNotSimulated };

  explicit QuantumOnlineRecognizer(std::uint64_t seed);
  QuantumOnlineRecognizer(std::uint64_t seed, Options opts);

  void feed(stream::Symbol s) override;
  /// Chunked ingestion: A1/A2/A3 each consume the run in bulk (they are
  /// independent machines running in parallel on the same tape, so feeding
  /// order across them is immaterial). Bit-identical to per-symbol feeding.
  void feed_chunk(std::span<const stream::Symbol> chunk) override;
  bool finish() override;
  void reset(std::uint64_t seed) override;
  machine::SpaceReport space_used() const override;
  std::string name() const override { return "quantum"; }
  bool fully_simulated() const override { return !a3_->not_simulated(); }
  /// Serializes A1, A2 and A3 including the quantum register (via the
  /// backend's serialize_state). Gate-level mode refuses
  /// (machine::UnsupportedSnapshot): the external sink's tape cannot travel.
  std::vector<std::uint8_t> snapshot() const override;
  void restore(std::span<const std::uint8_t> bytes) override;

  /// The explicit three-valued decision; finish() maps kNotSimulated to
  /// reject (never claim membership on a word the machine could not run).
  Verdict verdict();

  /// Exact acceptance probability of THIS run (fixed coin flips j and t,
  /// exact measurement statistics): 0 if A1/A2 already rejected or if the
  /// register could not be simulated (consistent with verdict()), else
  /// P[l measures 0]. Usable instead of finish() for low-variance
  /// experiment estimates. Does not collapse the state.
  double exact_acceptance_probability();

  /// The verdict for the complement language (Theorem 3.4's machine).
  bool finish_complement() { return !finish(); }

  const GroverStreamer& a3() const noexcept { return *a3_; }
  const lang::StructureValidator& a1() const noexcept { return front_.a1(); }
  const fingerprint::EqualityChecker& a2() const noexcept {
    return front_.a2();
  }

 private:
  Options opts_;
  ValidatorFront front_;  // A1 and A2
  std::unique_ptr<GroverStreamer> a3_;
  bool finished_ = false;
};

}  // namespace qols::core
