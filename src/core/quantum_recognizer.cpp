#include "qols/core/quantum_recognizer.hpp"

namespace qols::core {

QuantumOnlineRecognizer::QuantumOnlineRecognizer(std::uint64_t seed)
    : QuantumOnlineRecognizer(seed, Options{}) {}

QuantumOnlineRecognizer::QuantumOnlineRecognizer(std::uint64_t seed,
                                                 Options opts)
    : opts_(opts) {
  reset(seed);
}

void QuantumOnlineRecognizer::reset(std::uint64_t seed) {
  util::Rng rng(seed);
  // Independent child generators: A2's evaluation point and A3's iteration
  // count / measurement must not be correlated.
  front_.reset(rng);
  a3_ = std::make_unique<GroverStreamer>(rng.split(), opts_.a3);
  finished_ = false;
}

void QuantumOnlineRecognizer::feed(stream::Symbol s) {
  front_.feed(s);
  a3_->feed(s);
}

void QuantumOnlineRecognizer::feed_chunk(
    std::span<const stream::Symbol> chunk) {
  front_.feed_chunk(chunk);
  a3_->feed_chunk(chunk);
}

bool QuantumOnlineRecognizer::finish() { return verdict() == Verdict::kAccept; }

QuantumOnlineRecognizer::Verdict QuantumOnlineRecognizer::verdict() {
  finished_ = true;
  if (!front_.passed()) return Verdict::kReject;
  const int out = a3_->finish_output();
  if (out == GroverStreamer::kNotSimulated) return Verdict::kNotSimulated;
  return out == 1 ? Verdict::kAccept : Verdict::kReject;
}

double QuantumOnlineRecognizer::exact_acceptance_probability() {
  finished_ = true;
  if (!front_.passed()) return 0.0;
  // Consistent with verdict()/finish(): a run whose register could not be
  // simulated contributes no acceptance mass (an un-run A3 must not read as
  // a certain accept).
  if (a3_->not_simulated()) return 0.0;
  return 1.0 - a3_->probability_output_zero();
}

machine::SpaceReport QuantumOnlineRecognizer::space_used() const {
  machine::SpaceReport r;
  r.classical_bits =
      front_.classical_bits_used() + a3_->classical_bits_used();
  r.qubits = a3_->qubits_used() + a3_->ancilla_qubits_used();
  return r;
}

std::vector<std::uint8_t> QuantumOnlineRecognizer::snapshot() const {
  util::serde::ByteWriter w;
  machine::snapshot_header(w, /*kind_tag=*/5);
  try {
    front_.snapshot_to(w);
    a3_->snapshot_to(w);
  } catch (const backend::UnsupportedOperation& e) {
    // Translate the backend-layer refusal (gate-level mode, or a backend
    // without state serialization) into the recognizer-layer contract.
    throw machine::UnsupportedSnapshot(e.what());
  }
  w.b(finished_);
  return w.take();
}

void QuantumOnlineRecognizer::restore(std::span<const std::uint8_t> bytes) {
  util::serde::ByteReader r(bytes);
  // On any error the recognizer is left reset (seed 0), never half restored:
  // A1/A2 restored next to an A3 whose cursor and register disagree would
  // let the next data bit index past the register.
  try {
    machine::check_snapshot_header(r, /*kind_tag=*/5, "quantum");
    front_.restore_from(r);
    a3_->restore_from(r);
    finished_ = r.b();
    r.expect_exhausted();
  } catch (const backend::UnsupportedOperation& e) {
    reset(0);
    throw machine::UnsupportedSnapshot(e.what());
  } catch (...) {
    reset(0);
    throw;
  }
}

}  // namespace qols::core
