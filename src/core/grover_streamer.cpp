#include "qols/core/grover_streamer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

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
  if (in_prefix_) {
    if (s == Symbol::kOne) {
      ++k_;
      return;
    }
    if (s == Symbol::kSep && k_ >= 1) {
      in_prefix_ = false;
      std::optional<std::string> backend_id;
      if (opts_.simulate) {
        const std::string requested =
            !opts_.backend.empty() ? opts_.backend
                                   : backend::env_backend_override().value_or(
                                         std::string{});
        backend_id = backend::resolve_backend_id(
            requested, k_, opts_.max_sim_k, opts_.max_structured_k);
        if (!backend_id) {
          overflow_ = true;  // no backend covers k: explicitly not simulated
          return;
        }
      } else if (k_ > opts_.max_sim_k) {
        // Non-simulating modes keep the historical max_sim_k envelope for
        // counters and the gate compiler.
        overflow_ = true;
        return;
      }
      m_ = std::uint64_t{1} << (2 * k_);
      j_ = rng_.below(std::uint64_t{1} << k_);
      const unsigned data_qubits = 2 * k_ + 2;
      if (backend_id) {
        backend_ = backend::make_backend(*backend_id, data_qubits, 2 * k_,
                                         opts_.precision);
        backend_->apply_h_range(0, 2 * k_);
        ++gates_applied_;
      }
      if (opts_.gate_sink != nullptr) {
        // mcz_pattern over 2k+1 terms needs 2k ancillas.
        builder_ = std::make_unique<gates::CircuitBuilder>(
            *opts_.gate_sink, data_qubits, 2 * k_);
        builder_->h_range(0, 2 * k_);
      }
      active_ = true;
      return;
    }
    // Shape already broken; A1 rejects the word. Become inert.
    in_prefix_ = false;
    return;
  }
  if (!active_ || done_) return;
  if (s == Symbol::kSep) {
    on_sep();
  } else {
    on_bit(s == Symbol::kOne);
  }
}

void GroverStreamer::feed_chunk(std::span<const Symbol> chunk) {
  std::size_t i = 0;
  const std::size_t n = chunk.size();
  while (i < n) {
    if (!in_prefix_ && (!active_ || done_)) return;  // inert for the rest
    if (in_prefix_ || builder_ != nullptr) {
      // The prefix is O(k) symbols; gate-level mode lowers bit by bit.
      feed(chunk[i]);
      ++i;
      continue;
    }
    if (chunk[i] == Symbol::kSep) {
      on_sep();
      ++i;
      continue;
    }
    const std::size_t j = stream::find_sep(chunk.data(), i + 1, n);
    on_run(chunk.subspan(i, j - i));
    i = j;
  }
}

std::optional<backend::IndexOp> GroverStreamer::block_op() const noexcept {
  if (rep_ < j_) {
    // Grover phase: V_x on the x-block, W_y on the y-block, V_z on the
    // z-block.
    return block_ == 1 ? backend::IndexOp::kZ : backend::IndexOp::kX;
  }
  // Step 4 (repetition j+1): V_x on the x-block, R_y on the y-block; its
  // z-block is never reached (on_sep ends the run after the y-block).
  if (block_ == 0) return backend::IndexOp::kX;
  if (block_ == 1) return backend::IndexOp::kCX;
  return std::nullopt;
}

void GroverStreamer::on_run(std::span<const Symbol> run) {
  const std::uint64_t room = m_ > off_ ? m_ - off_ : 0;
  if (run.size() > room) {
    run = run.first(room);
    done_ = true;  // as in on_bit: the first bit past m freezes the register
  }
  const auto op = block_op();
  if (backend_ && op) {
    const auto ones = static_cast<std::uint64_t>(
        std::count(run.begin(), run.end(), Symbol::kOne));
    if (ones != 0) {
      // Symbol's byte values make the run its own 0/1 mask.
      backend_->apply_on_index_run(
          *op, 2 * k_, off_,
          {reinterpret_cast<const std::uint8_t*>(run.data()), run.size()},
          2 * k_, 2 * k_ + 1);
      gates_applied_ += ones;
    }
  }
  off_ += run.size();
}

std::span<const ControlTerm> GroverStreamer::index_terms(std::uint64_t idx,
                                                         bool with_h) {
  terms_.clear();
  for (unsigned q = 0; q < 2 * k_; ++q) {
    terms_.push_back({q, ((idx >> q) & 1) != 0});
  }
  if (with_h) terms_.push_back({2 * k_, true});
  return terms_;
}

void GroverStreamer::on_bit(bool bit) {
  if (off_ >= m_) {
    // Overlong block: word is malformed, A1 rejects. Freeze the register.
    done_ = true;
    return;
  }
  const std::uint64_t idx = off_;
  ++off_;
  if (!bit) return;
  const auto op = block_op();
  if (!op) return;

  const unsigned h = 2 * k_;
  const unsigned l = 2 * k_ + 1;
  if (backend_) {
    ++gates_applied_;
    // The same entry point as on_run: this 1-bit is a run of one.
    static constexpr std::uint8_t kFires = 1;
    backend_->apply_on_index_run(*op, 2 * k_, idx, {&kFires, 1}, h, l);
  }
  if (builder_) {
    switch (*op) {
      case backend::IndexOp::kX:
        builder_->mcx_pattern(index_terms(idx, false), h);
        break;
      case backend::IndexOp::kZ:
        builder_->mcz_pattern(index_terms(idx, true));
        break;
      case backend::IndexOp::kCX:
        builder_->mcx_pattern(index_terms(idx, true), l);
        break;
    }
  }
}

void GroverStreamer::on_sep() {
  // End of the current block.
  const bool grover_phase = rep_ < j_;
  if (!grover_phase && block_ == 1) {
    // Step 4 complete: the register now carries sum beta_i |i>|x_i>|x_i&y_i>.
    done_ = true;
    return;
  }
  if (block_ == 2) {
    // Completed a full (x#y#x#) repetition inside the Grover phase:
    // apply the diffusion U_k S_k U_k.
    if (grover_phase) apply_diffusion();
    ++rep_;
    block_ = 0;
  } else {
    ++block_;
  }
  off_ = 0;
}

void GroverStreamer::apply_diffusion() {
  if (backend_) {
    backend_->apply_grover_diffusion(0, 2 * k_);
    ++gates_applied_;
  }
  if (builder_) {
    builder_->h_range(0, 2 * k_);
    builder_->reflect_zero(0, 2 * k_);  // -S_k; global phase, unobservable
    builder_->h_range(0, 2 * k_);
  }
}

double GroverStreamer::probability_output_zero() const {
  if (!backend_) return 0.0;
  return backend_->probability_one(2 * k_ + 1);
}

int GroverStreamer::finish_output() {
  // Flush this run's gate tally into the process-wide counter. Observability
  // only: the measurement below is taken before/independently of the add.
  static telemetry::Counter& gates_total =
      telemetry::MetricsRegistry::global().counter("quantum.gates_total");
  gates_total.add(gates_applied_);
  if (overflow_) return kNotSimulated;  // no backend covered k
  if (!active_ || !backend_) return 1;  // simulation not requested: inert
  const bool b = backend_->measure(2 * k_ + 1, rng_);
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
  if (!active_) return 8;
  return classical_bits_for(k_);
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
  w.b(in_prefix_);
  w.u32(k_);
  w.b(active_);
  w.b(overflow_);
  w.u64(m_);
  w.u64(j_);
  w.u64(rep_);
  w.u32(block_);
  w.u64(off_);
  w.b(done_);
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
  in_prefix_ = r.b();
  k_ = r.u32();
  active_ = r.b();
  overflow_ = r.b();
  m_ = r.u64();
  j_ = r.u64();
  rep_ = r.u64();
  block_ = r.u32();
  off_ = r.u64();
  done_ = r.b();
  backend_.reset();
  builder_.reset();
  if (r.b()) {
    std::string id(r.u8(), '\0');
    for (char& c : id) c = static_cast<char>(r.u8());
    const auto precision = static_cast<quantum::Precision>(r.u8());
    if (k_ == 0 || k_ > 29) {
      throw util::serde::DecodeError("grover streamer: bad k for backend");
    }
    // make_backend validates the id and geometry; a corrupt id string
    // surfaces as invalid_argument, not undefined behavior.
    backend_ = backend::make_backend(id, 2 * k_ + 2, 2 * k_, precision);
    backend_->restore_state(r);
  }
}

}  // namespace qols::core
