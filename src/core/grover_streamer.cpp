#include "qols/core/grover_streamer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>

#include "qols/backend/registry.hpp"
#include "qols/telemetry/registry.hpp"

namespace qols::core {

using quantum::ControlTerm;
using stream::Symbol;

GroverStreamer::GroverStreamer(util::Rng rng)
    : GroverStreamer(rng, Options{}) {}

GroverStreamer::GroverStreamer(util::Rng rng, Options opts)
    : rng_(rng), opts_(std::move(opts)) {
  // Fail fast on a misspelled backend id instead of mid-stream.
  if (!opts_.backend.empty() && opts_.backend != backend::kAutoBackendId &&
      backend::BackendRegistry::global().find(opts_.backend) == nullptr) {
    throw std::invalid_argument("GroverStreamer: unknown backend '" +
                                opts_.backend + "'");
  }
}

void GroverStreamer::feed(Symbol s) {
  cursor_.step(s, lang::kPrefixCeiling, *this);
}

void GroverStreamer::feed_chunk(std::span<const Symbol> chunk) {
  cursor_.walk(chunk, lang::kPrefixCeiling, *this);
}

bool GroverStreamer::on_activate() {
  const unsigned k = cursor_.k;
  std::optional<std::string> backend_id;
  if (opts_.simulate) {
    const std::string requested =
        !opts_.backend.empty()
            ? opts_.backend
            : backend::env_backend_override().value_or(std::string{});
    backend_id = backend::resolve_backend_id(requested, k, opts_.max_sim_k,
                                             opts_.max_structured_k);
    if (!backend_id) {
      overflow_ = true;  // no backend covers k: explicitly not simulated
      return false;
    }
  } else if (k > opts_.max_sim_k) {
    // Non-simulating modes keep the historical max_sim_k envelope for
    // counters and the gate compiler.
    overflow_ = true;
    return false;
  }
  j_ = rng_.below(std::uint64_t{1} << k);
  const unsigned data_qubits = 2 * k + 2;
  if (backend_id) {
    backend_ =
        backend::make_backend(*backend_id, data_qubits, 2 * k, opts_.precision);
    backend_->apply_h_range(0, 2 * k);
    ++gates_applied_;
  }
  if (opts_.gate_sink != nullptr) {
    // mcz_pattern over 2k+1 terms needs 2k ancillas.
    builder_ = std::make_unique<gates::CircuitBuilder>(*opts_.gate_sink,
                                                       data_qubits, 2 * k);
    builder_->h_range(0, 2 * k);
  }
  return true;
}

std::optional<backend::IndexOp> GroverStreamer::block_op() const noexcept {
  if (cursor_.rep < j_) {
    // Grover phase: V_x on the x-block, W_y on the y-block, V_z on the
    // z-block.
    return cursor_.block == 1 ? backend::IndexOp::kZ : backend::IndexOp::kX;
  }
  // Step 4 (repetition j+1): V_x on the x-block, R_y on the y-block; its
  // z-block is never reached (on_separator ends the run after the y-block).
  if (cursor_.block == 0) return backend::IndexOp::kX;
  if (cursor_.block == 1) return backend::IndexOp::kCX;
  return std::nullopt;
}

void GroverStreamer::on_bit(std::uint64_t idx, bool bit) {
  // A 1-bit is a run of one.
  static constexpr Symbol kFires = Symbol::kOne;
  if (bit) on_run(idx, &kFires, 1);
}

void GroverStreamer::on_run(std::uint64_t start, const Symbol* data,
                            std::uint64_t len) {
  const auto op = block_op();
  if (!op) return;
  const auto ones =
      static_cast<std::uint64_t>(std::count(data, data + len, Symbol::kOne));
  if (ones == 0) return;
  const unsigned h = 2 * cursor_.k;
  const unsigned l = h + 1;
  if (backend_) {
    // Symbol's byte values make the run its own 0/1 mask.
    backend_->apply_on_index_run(
        *op, h, start, {reinterpret_cast<const std::uint8_t*>(data), len}, h,
        l);
    gates_applied_ += ones;
  }
  if (!builder_) return;
  for (std::uint64_t i = 0; i < len; ++i) {
    if (data[i] != Symbol::kOne) continue;
    switch (*op) {
      case backend::IndexOp::kX:
        builder_->mcx_pattern(index_terms(start + i, false), h);
        break;
      case backend::IndexOp::kZ:
        builder_->mcz_pattern(index_terms(start + i, true));
        break;
      case backend::IndexOp::kCX:
        builder_->mcx_pattern(index_terms(start + i, true), l);
        break;
    }
  }
}

std::span<const ControlTerm> GroverStreamer::index_terms(std::uint64_t idx,
                                                         bool with_h) {
  const unsigned k = cursor_.k;
  terms_.clear();
  for (unsigned q = 0; q < 2 * k; ++q) {
    terms_.push_back({q, ((idx >> q) & 1) != 0});
  }
  if (with_h) terms_.push_back({2 * k, true});
  return terms_;
}

void GroverStreamer::on_separator() {
  if (cursor_.rep >= j_) {
    // Step 4 ends with its y-block: the register now carries
    // sum beta_i |i>|x_i>|x_i&y_i>.
    if (cursor_.block == 1) cursor_.stopped = true;
    return;
  }
  // A full (x#y#x#) repetition inside the Grover phase: apply the diffusion
  // U_k S_k U_k.
  if (cursor_.block == 2) apply_diffusion();
}

void GroverStreamer::apply_diffusion() {
  if (backend_) {
    backend_->apply_grover_diffusion(0, 2 * cursor_.k);
    ++gates_applied_;
  }
  if (builder_) {
    const unsigned n = 2 * cursor_.k;
    builder_->h_range(0, n);
    builder_->reflect_zero(0, n);  // -S_k; global phase, unobservable
    builder_->h_range(0, n);
  }
}

double GroverStreamer::probability_output_zero() const {
  if (!backend_) return 0.0;
  return backend_->probability_one(2 * cursor_.k + 1);
}

int GroverStreamer::finish_output() {
  // Flush this run's gate tally into the process-wide counter. Observability
  // only: the measurement below is taken before/independently of the add.
  static telemetry::Counter& gates_total =
      telemetry::MetricsRegistry::global().counter("quantum.gates_total");
  gates_total.add(gates_applied_);
  if (overflow_) return kNotSimulated;  // no backend covered k
  if (!backend_) return 1;  // simulation not requested or inactive: inert
  const bool b = backend_->measure(2 * cursor_.k + 1, rng_);
  return b ? 0 : 1;
}

std::uint64_t GroverStreamer::ancilla_qubits_used() const noexcept {
  return builder_ ? builder_->ancillas_high_water() : 0;
}

std::uint64_t GroverStreamer::classical_bits_for(unsigned k) noexcept {
  const std::uint64_t kk = k;
  // k counter, j (k bits), repetition counter (k+1), block id (2), offset
  // counter (2k+1), done/active flags.
  return std::bit_width(kk + 1) + kk + (kk + 1) + 2 + (2 * kk + 1) + 2;
}

std::uint64_t GroverStreamer::classical_bits_used() const noexcept {
  if (!cursor_.active) return 8;
  return classical_bits_for(cursor_.k);
}

std::uint64_t GroverStreamer::gates_emitted() const noexcept {
  return builder_ ? builder_->gates_emitted() : 0;
}

void GroverStreamer::snapshot_to(util::serde::ByteWriter& w) const {
  if (builder_ != nullptr || opts_.gate_sink != nullptr) {
    // The emitted-gate tape lives in the caller's sink; a snapshot that
    // silently dropped it would replay the stream with half the output
    // missing.
    throw backend::UnsupportedOperation("snapshot in gate-level mode");
  }
  for (const std::uint64_t s : rng_.state()) w.u64(s);
  w.b(cursor_.in_prefix);
  w.u32(cursor_.k);
  w.b(cursor_.active);
  w.b(overflow_);
  w.u64(cursor_.m);
  w.u64(j_);
  w.u64(cursor_.rep);
  w.u32(cursor_.block);
  w.u64(cursor_.off);
  w.b(cursor_.stopped);
  w.b(backend_ != nullptr);
  if (backend_) {
    const std::string_view id = backend_->id();
    w.u8(static_cast<std::uint8_t>(id.size()));
    for (const char c : id) w.u8(static_cast<std::uint8_t>(c));
    w.u8(static_cast<std::uint8_t>(backend_->precision()));
    backend_->serialize_state(w);
  }
}

void GroverStreamer::restore_from(util::serde::ByteReader& r) {
  if (opts_.gate_sink != nullptr) {
    throw backend::UnsupportedOperation("restore into gate-level mode");
  }
  std::array<std::uint64_t, 4> state;
  for (auto& s : state) s = r.u64();
  rng_.set_state(state);
  cursor_.in_prefix = r.b();
  cursor_.k = r.u32();
  cursor_.active = r.b();
  overflow_ = r.b();
  cursor_.m = r.u64();
  j_ = r.u64();
  cursor_.rep = r.u64();
  cursor_.block = r.u32();
  cursor_.off = r.u64();
  cursor_.stopped = r.b();
  const bool has_backend = r.b();
  cursor_.check(lang::kPrefixCeiling, "grover streamer");
  // A3's own rules: the walk stops at m, j < 2^k was drawn at activation,
  // the Grover phase ends at repetition j, and only activation builds a
  // backend.
  const bool reachable =
      cursor_.off <= cursor_.m &&
      (cursor_.active
           ? j_ < std::uint64_t{1} << cursor_.k && cursor_.rep <= j_
           : !has_backend);
  if (!reachable) {
    throw util::serde::DecodeError("grover streamer: state out of range");
  }
  backend_.reset();
  builder_.reset();
  if (has_backend) {
    std::string id(r.u8(), '\0');
    for (char& c : id) c = static_cast<char>(r.u8());
    const auto precision = static_cast<quantum::Precision>(r.u8());
    // make_backend validates the id and geometry; a corrupt id string
    // surfaces as invalid_argument, not undefined behavior.
    const unsigned k = cursor_.k;
    backend_ = backend::make_backend(id, 2 * k + 2, 2 * k, precision);
    backend_->restore_state(r);
  }
}

}  // namespace qols::core
