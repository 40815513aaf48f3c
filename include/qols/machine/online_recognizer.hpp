#pragma once
// The online-machine abstraction shared by the quantum recognizer (Theorem
// 3.4) and every classical baseline (Proposition 3.7 and the small-space
// strategies of experiment E10).
//
// An OnlineRecognizer consumes the one-way input symbol by symbol and then
// commits to accept/reject. Its SpaceReport is the *conceptual* work-memory
// footprint of the machine it models — counters, fingerprints, buffers,
// qubits — not the footprint of the host process (the simulator may use
// scratch memory that a real machine would not, e.g. the dense state vector
// standing in for physical qubits).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "qols/stream/symbol_stream.hpp"
#include "qols/util/serde.hpp"

namespace qols::machine {

/// Thrown by snapshot()/restore() when a recognizer (or its configured mode,
/// e.g. gate-level lowering into an external sink) cannot round-trip its
/// state. The honest refusal: callers that need snapshots — session eviction,
/// fuzz property P7 — surface it instead of silently re-running the prefix.
class UnsupportedSnapshot : public std::logic_error {
 public:
  explicit UnsupportedSnapshot(const std::string& what)
      : std::logic_error("recognizer: unsupported snapshot: " + what) {}
};

/// Work-memory footprint of a recognizer, split per the paper's model:
/// classical work-tape bits and quantum register qubits.
struct SpaceReport {
  std::uint64_t classical_bits = 0;
  std::uint64_t qubits = 0;

  std::uint64_t total() const noexcept { return classical_bits + qubits; }
};

/// One-pass streaming decision procedure.
class OnlineRecognizer {
 public:
  virtual ~OnlineRecognizer() = default;

  /// Consumes the next input symbol.
  virtual void feed(stream::Symbol s) = 0;

  /// Consumes a run of consecutive input symbols. Semantically identical to
  /// feeding each symbol in order — same decisions, same SpaceReport, same
  /// RNG consumption — and freely interleavable with feed(). The default
  /// loops feed(); recognizers with a vectorizable hot path override it so
  /// the per-symbol virtual dispatch disappears from the ingestion loop.
  virtual void feed_chunk(std::span<const stream::Symbol> chunk) {
    for (const stream::Symbol s : chunk) feed(s);
  }

  /// Declares end of input; returns the accept/reject decision. May involve
  /// the machine's final coin flips / measurement. Call at most once per
  /// stream; reset() rearms the recognizer.
  virtual bool finish() = 0;

  /// Rearms for a fresh input with a fresh random seed.
  virtual void reset(std::uint64_t seed) = 0;

  /// Peak conceptual work memory used on the last input.
  virtual SpaceReport space_used() const = 0;

  /// Short human-readable identifier for tables ("quantum", "block", ...).
  virtual std::string name() const = 0;

  /// False when the machine's decision procedure could not actually be run
  /// on the last input (e.g. the quantum register exceeded every simulation
  /// backend's ceiling), so finish()'s value is a placeholder rather than
  /// the modeled machine's answer. Experiment drivers surface this count
  /// explicitly (ExperimentResult::not_simulated) instead of letting such
  /// trials pass as ordinary decisions.
  virtual bool fully_simulated() const { return true; }

  /// Serializes the complete mid-stream state — control fields, RNG streams,
  /// fingerprints, quantum registers — into a versioned byte buffer. The
  /// contract (fuzz property P7): restore() into a *fresh* recognizer of the
  /// same kind and configuration, then feed the remaining suffix; decision,
  /// fully_simulated() and space_used() are exactly what an uninterrupted
  /// run would have produced. Throws UnsupportedSnapshot when the state
  /// cannot be captured (default, and e.g. gate-level quantum mode).
  virtual std::vector<std::uint8_t> snapshot() const {
    throw UnsupportedSnapshot("snapshot (" + name() + ")");
  }

  /// Loads a snapshot() buffer, replacing this recognizer's entire state —
  /// including any construction-time seed. Throws util::serde::DecodeError
  /// on malformed bytes, wrong recognizer kind, or mismatched geometry:
  /// a configuration that differs from this instance's, or a restored
  /// position or buffer the machine could not have reached (e.g. a buffer
  /// whose size disagrees with the restored k), so no later feed() can
  /// index past its memory.
  virtual void restore(std::span<const std::uint8_t> bytes) {
    (void)bytes;
    throw UnsupportedSnapshot("restore (" + name() + ")");
  }
};

/// Snapshot wire format: "QS" magic, format version, then a recognizer-kind
/// tag (1 = classical-block, 2 = classical-full, 3 = classical-sampling,
/// 4 = classical-bloom, 5 = quantum) followed by the kind-specific payload.
inline constexpr std::uint8_t kSnapshotMagic0 = 'Q';
inline constexpr std::uint8_t kSnapshotMagic1 = 'S';
inline constexpr std::uint8_t kSnapshotVersion = 1;

/// Writes the common snapshot header.
void snapshot_header(util::serde::ByteWriter& w, std::uint8_t kind_tag);

/// Validates magic, version and kind tag; throws util::serde::DecodeError
/// naming `who` on any mismatch.
void check_snapshot_header(util::serde::ByteReader& r, std::uint8_t kind_tag,
                           const char* who);

/// Symbols moved per transport hop by run_stream: large enough to amortize
/// the two virtual calls per hop, small enough to stay in L1 (4 KiB).
inline constexpr std::size_t kRunStreamChunk = 4096;

/// Streams `input` through `rec` (which must be freshly reset) and returns
/// the decision. Transport is chunked: symbols move in kRunStreamChunk-sized
/// spans (next_chunk -> feed_chunk), so the per-symbol cost is the
/// recognizers' actual work, not call dispatch. Decisions are bit-identical
/// to the historical per-symbol loop.
bool run_stream(stream::SymbolStream& input, OnlineRecognizer& rec);

/// Fact 2.2: log2 of the number of distinct configurations an OPTM with
/// |Sigma| tape symbols and |Q| control states can reach on inputs of length
/// n using s work-tape cells:  log2(n * s * |Sigma|^s * |Q|).
double log2_configuration_bound(double n, double s, double alphabet,
                                double states) noexcept;

}  // namespace qols::machine
