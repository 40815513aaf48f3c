#include "qols/core/classical_recognizers.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace qols::core {

using stream::Symbol;

namespace {

// Shared chunk driver for the recognizers' own body logic (A1/A2 consume the
// chunk separately, in bulk): per-symbol through the prefix, then the body
// split into separators (rare, per symbol) and data runs (bulk). All state
// transitions happen inside the callbacks, so chunk boundaries can never
// diverge from per-symbol feeding.
template <typename OwnSymbol, typename BodyRun>
void drive_chunk(std::span<const Symbol> chunk, const bool& in_prefix,
                 const bool& active, OwnSymbol&& on_own_symbol,
                 BodyRun&& on_body_run) {
  std::size_t i = 0;
  const std::size_t n = chunk.size();
  while (i < n && in_prefix) on_own_symbol(chunk[i++]);
  if (!active) return;  // body ignores the rest (bad shape or k out of range)
  while (i < n) {
    if (chunk[i] == Symbol::kSep) {
      on_own_symbol(chunk[i]);
      ++i;
      continue;
    }
    const std::size_t j = stream::find_sep(chunk.data(), i + 1, n);
    on_body_run(chunk.data() + i, j - i);
    i = j;
  }
}

// Snapshot kind tags (see machine/online_recognizer.hpp).
constexpr std::uint8_t kTagBlock = 1;
constexpr std::uint8_t kTagFull = 2;
constexpr std::uint8_t kTagSampling = 3;
constexpr std::uint8_t kTagBloom = 4;

void put_bitvec(util::serde::ByteWriter& w, const util::BitVec& v) {
  w.u64(v.size());
  w.u64_vec(v.words());
}

util::BitVec get_bitvec(util::serde::ByteReader& r) {
  const std::uint64_t n = r.u64();
  std::vector<std::uint64_t> words = r.u64_vec();
  try {
    return util::BitVec::from_words(static_cast<std::size_t>(n),
                                    std::move(words));
  } catch (const std::invalid_argument& e) {
    throw util::serde::DecodeError(e.what());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ClassicalBlockRecognizer (Proposition 3.7)
// ---------------------------------------------------------------------------

ClassicalBlockRecognizer::ClassicalBlockRecognizer(std::uint64_t seed) {
  reset(seed);
}

void ClassicalBlockRecognizer::reset(std::uint64_t seed) {
  util::Rng rng(seed);
  a1_ = lang::StructureValidator();
  a2_ = std::make_unique<fingerprint::EqualityChecker>(rng.split());
  in_prefix_ = true;
  k_ = 0;
  active_ = false;
  m_ = 0;
  block_len_ = 0;
  rep_ = 0;
  block_ = 0;
  off_ = 0;
  buffer_ = util::BitVec();
  found_ = false;
}

void ClassicalBlockRecognizer::feed(Symbol s) {
  a1_.feed(s);
  a2_->feed(s);
  on_own_symbol(s);
}

void ClassicalBlockRecognizer::on_own_symbol(Symbol s) {
  if (in_prefix_) {
    if (s == Symbol::kOne && k_ < 20) {
      ++k_;
      return;
    }
    in_prefix_ = false;
    if (s == Symbol::kSep && k_ >= 1 && k_ <= 15) {
      active_ = true;
      m_ = std::uint64_t{1} << (2 * k_);
      block_len_ = std::uint64_t{1} << k_;
      buffer_ = util::BitVec(block_len_);
    }
    return;
  }
  if (!active_) return;
  on_body_symbol(s);
}

void ClassicalBlockRecognizer::feed_chunk(std::span<const Symbol> chunk) {
  a1_.feed_chunk(chunk);
  a2_->feed_chunk(chunk);
  drive_chunk(
      chunk, in_prefix_, active_, [this](Symbol s) { on_own_symbol(s); },
      [this](const Symbol* d, std::uint64_t len) { on_body_run(d, len); });
}

void ClassicalBlockRecognizer::on_body_symbol(Symbol s) {
  if (s == Symbol::kSep) {
    if (block_ == 2) {
      ++rep_;
      block_ = 0;
    } else {
      ++block_;
    }
    off_ = 0;
    return;
  }
  const bool bit = (s == Symbol::kOne);
  const std::uint64_t idx = off_++;
  if (idx >= m_ || rep_ >= block_len_) return;  // malformed; A1 rejects
  // Repetition r owns the index window [r*2^k, (r+1)*2^k).
  const std::uint64_t window_lo = rep_ * block_len_;
  if (idx < window_lo || idx >= window_lo + block_len_) return;
  const std::uint64_t slot = idx - window_lo;
  if (block_ == 0) {
    buffer_.set(slot, bit);
  } else if (block_ == 1) {
    if (bit && buffer_.get(slot)) found_ = true;
  }
}

void ClassicalBlockRecognizer::on_body_run(const Symbol* data,
                                           std::uint64_t len) {
  // Bit-identical to len on_body_symbol calls: off_ always advances; only
  // the run's overlap with this repetition's window [r*2^k, (r+1)*2^k) is
  // read or written, and z-blocks touch nothing.
  const std::uint64_t start = off_;
  off_ += len;
  if (rep_ >= block_len_ || block_ == 2) return;
  const std::uint64_t window_lo = rep_ * block_len_;
  const std::uint64_t window_hi = window_lo + block_len_;
  const std::uint64_t lo = std::max(start, window_lo);
  const std::uint64_t hi = std::min({start + len, window_hi, m_});
  if (block_ == 0) {
    for (std::uint64_t idx = lo; idx < hi; ++idx) {
      buffer_.set(idx - window_lo, data[idx - start] == Symbol::kOne);
    }
  } else if (block_ == 1) {
    for (std::uint64_t idx = lo; idx < hi; ++idx) {
      if (data[idx - start] == Symbol::kOne && buffer_.get(idx - window_lo)) {
        found_ = true;
      }
    }
  }
}

bool ClassicalBlockRecognizer::finish() {
  if (!a1_.finish()) return false;
  if (!a2_->passed()) return false;
  return !found_;
}

machine::SpaceReport ClassicalBlockRecognizer::space_used() const {
  machine::SpaceReport r;
  const std::uint64_t counters =
      active_ ? (std::uint64_t{k_} + 1) + (2 * k_ + 1) + 4 : 8;
  r.classical_bits = a1_.classical_bits_used() + a2_->classical_bits_used() +
                     buffer_.size() + counters + 1;  // +1 found flag
  r.qubits = 0;
  return r;
}

std::vector<std::uint8_t> ClassicalBlockRecognizer::snapshot() const {
  util::serde::ByteWriter w;
  machine::snapshot_header(w, kTagBlock);
  a1_.snapshot_to(w);
  a2_->snapshot_to(w);
  w.b(in_prefix_);
  w.u32(k_);
  w.b(active_);
  w.u64(m_);
  w.u64(block_len_);
  w.u64(rep_);
  w.u32(block_);
  w.u64(off_);
  put_bitvec(w, buffer_);
  w.b(found_);
  return w.take();
}

void ClassicalBlockRecognizer::restore(std::span<const std::uint8_t> bytes) {
  util::serde::ByteReader r(bytes);
  machine::check_snapshot_header(r, kTagBlock, "classical-block");
  a1_.restore_from(r);
  a2_->restore_from(r);
  in_prefix_ = r.b();
  k_ = r.u32();
  active_ = r.b();
  m_ = r.u64();
  block_len_ = r.u64();
  rep_ = r.u64();
  block_ = r.u32();
  off_ = r.u64();
  buffer_ = get_bitvec(r);
  found_ = r.b();
  r.expect_exhausted();
}

// ---------------------------------------------------------------------------
// ClassicalFullRecognizer
// ---------------------------------------------------------------------------

ClassicalFullRecognizer::ClassicalFullRecognizer(std::uint64_t seed) {
  reset(seed);
}

void ClassicalFullRecognizer::reset(std::uint64_t seed) {
  util::Rng rng(seed);
  a1_ = lang::StructureValidator();
  a2_ = std::make_unique<fingerprint::EqualityChecker>(rng.split());
  in_prefix_ = true;
  k_ = 0;
  active_ = false;
  m_ = 0;
  rep_ = 0;
  block_ = 0;
  off_ = 0;
  x_ = util::BitVec();
  found_ = false;
}

void ClassicalFullRecognizer::feed(Symbol s) {
  a1_.feed(s);
  a2_->feed(s);
  on_own_symbol(s);
}

void ClassicalFullRecognizer::on_own_symbol(Symbol s) {
  if (in_prefix_) {
    if (s == Symbol::kOne && k_ < 20) {
      ++k_;
      return;
    }
    in_prefix_ = false;
    if (s == Symbol::kSep && k_ >= 1 && k_ <= 12) {
      active_ = true;
      m_ = std::uint64_t{1} << (2 * k_);
      x_ = util::BitVec(m_);
    }
    return;
  }
  if (!active_) return;
  if (s == Symbol::kSep) {
    if (block_ == 2) {
      ++rep_;
      block_ = 0;
    } else {
      ++block_;
    }
    off_ = 0;
    return;
  }
  const bool bit = (s == Symbol::kOne);
  const std::uint64_t idx = off_++;
  if (idx >= m_) return;
  if (rep_ == 0 && block_ == 0) {
    x_.set(idx, bit);
  } else if (rep_ == 0 && block_ == 1) {
    if (bit && x_.get(idx)) found_ = true;
  }
}

void ClassicalFullRecognizer::feed_chunk(std::span<const Symbol> chunk) {
  a1_.feed_chunk(chunk);
  a2_->feed_chunk(chunk);
  drive_chunk(
      chunk, in_prefix_, active_, [this](Symbol s) { on_own_symbol(s); },
      [this](const Symbol* d, std::uint64_t len) { on_body_run(d, len); });
}

void ClassicalFullRecognizer::on_body_run(const Symbol* data,
                                          std::uint64_t len) {
  // Only repetition 0 reads or writes x; later repetitions are counter
  // arithmetic (A2 carries the consistency burden there).
  const std::uint64_t start = off_;
  off_ += len;
  if (rep_ != 0) return;
  const std::uint64_t hi = std::min(start + len, m_);
  if (block_ == 0) {
    for (std::uint64_t idx = start; idx < hi; ++idx) {
      x_.set(idx, data[idx - start] == Symbol::kOne);
    }
  } else if (block_ == 1) {
    for (std::uint64_t idx = start; idx < hi; ++idx) {
      if (data[idx - start] == Symbol::kOne && x_.get(idx)) found_ = true;
    }
  }
}

bool ClassicalFullRecognizer::finish() {
  if (!a1_.finish()) return false;
  if (!a2_->passed()) return false;
  return !found_;
}

machine::SpaceReport ClassicalFullRecognizer::space_used() const {
  machine::SpaceReport r;
  r.classical_bits = a1_.classical_bits_used() + a2_->classical_bits_used() +
                     x_.size() + (2ULL * k_ + 1) + 4;
  r.qubits = 0;
  return r;
}

std::vector<std::uint8_t> ClassicalFullRecognizer::snapshot() const {
  util::serde::ByteWriter w;
  machine::snapshot_header(w, kTagFull);
  a1_.snapshot_to(w);
  a2_->snapshot_to(w);
  w.b(in_prefix_);
  w.u32(k_);
  w.b(active_);
  w.u64(m_);
  w.u64(rep_);
  w.u32(block_);
  w.u64(off_);
  put_bitvec(w, x_);
  w.b(found_);
  return w.take();
}

void ClassicalFullRecognizer::restore(std::span<const std::uint8_t> bytes) {
  util::serde::ByteReader r(bytes);
  machine::check_snapshot_header(r, kTagFull, "classical-full");
  a1_.restore_from(r);
  a2_->restore_from(r);
  in_prefix_ = r.b();
  k_ = r.u32();
  active_ = r.b();
  m_ = r.u64();
  rep_ = r.u64();
  block_ = r.u32();
  off_ = r.u64();
  x_ = get_bitvec(r);
  found_ = r.b();
  r.expect_exhausted();
}

// ---------------------------------------------------------------------------
// ClassicalSamplingRecognizer
// ---------------------------------------------------------------------------

ClassicalSamplingRecognizer::ClassicalSamplingRecognizer(std::uint64_t seed,
                                                         std::uint64_t budget)
    : rng_(seed), budget_(budget) {
  reset(seed);
}

void ClassicalSamplingRecognizer::reset(std::uint64_t seed) {
  rng_ = util::Rng(seed);
  a1_ = lang::StructureValidator();
  a2_ = std::make_unique<fingerprint::EqualityChecker>(rng_.split());
  in_prefix_ = true;
  k_ = 0;
  active_ = false;
  m_ = 0;
  rep_ = 0;
  block_ = 0;
  off_ = 0;
  indices_.clear();
  xbits_.clear();
  cursor_ = 0;
  found_ = false;
}

void ClassicalSamplingRecognizer::draw_indices() {
  indices_.clear();
  for (std::uint64_t i = 0; i < budget_; ++i) indices_.push_back(rng_.below(m_));
  std::sort(indices_.begin(), indices_.end());
  indices_.erase(std::unique(indices_.begin(), indices_.end()), indices_.end());
  xbits_.assign(indices_.size(), false);
  cursor_ = 0;
}

void ClassicalSamplingRecognizer::feed(Symbol s) {
  a1_.feed(s);
  a2_->feed(s);
  on_own_symbol(s);
}

void ClassicalSamplingRecognizer::on_own_symbol(Symbol s) {
  if (in_prefix_) {
    if (s == Symbol::kOne && k_ < 20) {
      ++k_;
      return;
    }
    in_prefix_ = false;
    if (s == Symbol::kSep && k_ >= 1 && k_ <= 15) {
      active_ = true;
      m_ = std::uint64_t{1} << (2 * k_);
      draw_indices();
    }
    return;
  }
  if (!active_) return;
  if (s == Symbol::kSep) {
    if (block_ == 2) {
      ++rep_;
      block_ = 0;
      draw_indices();  // fresh sample each repetition
    } else {
      ++block_;
      cursor_ = 0;
    }
    off_ = 0;
    return;
  }
  const bool bit = (s == Symbol::kOne);
  const std::uint64_t idx = off_++;
  if (idx >= m_) return;
  if (block_ == 0) {
    while (cursor_ < indices_.size() && indices_[cursor_] < idx) ++cursor_;
    if (cursor_ < indices_.size() && indices_[cursor_] == idx) {
      xbits_[cursor_] = bit;
    }
  } else if (block_ == 1) {
    while (cursor_ < indices_.size() && indices_[cursor_] < idx) ++cursor_;
    if (cursor_ < indices_.size() && indices_[cursor_] == idx) {
      if (bit && xbits_[cursor_]) found_ = true;
    }
  }
}

void ClassicalSamplingRecognizer::feed_chunk(std::span<const Symbol> chunk) {
  a1_.feed_chunk(chunk);
  a2_->feed_chunk(chunk);
  drive_chunk(
      chunk, in_prefix_, active_, [this](Symbol s) { on_own_symbol(s); },
      [this](const Symbol* d, std::uint64_t len) { on_body_run(d, len); });
}

void ClassicalSamplingRecognizer::on_body_run(const Symbol* data,
                                              std::uint64_t len) {
  // The sorted sample turns a run into a cursor sweep: only sampled indices
  // inside [start, end) are visited. The cursor lands one lower-bound step
  // ahead of the per-symbol path's resting point, which is unobservable —
  // it only ever advances monotonically until the next block boundary
  // resets it.
  const std::uint64_t start = off_;
  off_ += len;
  if (block_ >= 2) return;
  const std::uint64_t end = std::min(start + len, m_);
  if (start >= end) return;
  while (cursor_ < indices_.size() && indices_[cursor_] < start) ++cursor_;
  if (block_ == 0) {
    while (cursor_ < indices_.size() && indices_[cursor_] < end) {
      xbits_[cursor_] = data[indices_[cursor_] - start] == Symbol::kOne;
      ++cursor_;
    }
  } else {
    while (cursor_ < indices_.size() && indices_[cursor_] < end) {
      if (data[indices_[cursor_] - start] == Symbol::kOne &&
          xbits_[cursor_]) {
        found_ = true;
      }
      ++cursor_;
    }
  }
}

bool ClassicalSamplingRecognizer::finish() {
  if (!a1_.finish()) return false;
  if (!a2_->passed()) return false;
  return !found_;
}

machine::SpaceReport ClassicalSamplingRecognizer::space_used() const {
  machine::SpaceReport r;
  // Each sampled index costs 2k bits plus 1 remembered bit of x.
  const std::uint64_t per_sample = 2ULL * k_ + 1;
  r.classical_bits = a1_.classical_bits_used() + a2_->classical_bits_used() +
                     budget_ * per_sample + (2ULL * k_ + 1) + 4;
  r.qubits = 0;
  return r;
}

std::vector<std::uint8_t> ClassicalSamplingRecognizer::snapshot() const {
  util::serde::ByteWriter w;
  machine::snapshot_header(w, kTagSampling);
  for (const std::uint64_t s : rng_.state()) w.u64(s);
  w.u64(budget_);
  a1_.snapshot_to(w);
  a2_->snapshot_to(w);
  w.b(in_prefix_);
  w.u32(k_);
  w.b(active_);
  w.u64(m_);
  w.u64(rep_);
  w.u32(block_);
  w.u64(off_);
  w.u64_vec(indices_);
  w.u64(xbits_.size());
  for (const bool bit : xbits_) w.b(bit);
  w.u64(cursor_);
  w.b(found_);
  return w.take();
}

void ClassicalSamplingRecognizer::restore(std::span<const std::uint8_t> bytes) {
  util::serde::ByteReader r(bytes);
  machine::check_snapshot_header(r, kTagSampling, "classical-sample");
  std::array<std::uint64_t, 4> state;
  for (auto& s : state) s = r.u64();
  rng_.set_state(state);
  // budget is construction-time configuration; a snapshot from a
  // differently-budgeted recognizer is a caller error, not a state to adopt.
  if (r.u64() != budget_) {
    throw util::serde::DecodeError("classical-sample: budget mismatch");
  }
  a1_.restore_from(r);
  a2_->restore_from(r);
  in_prefix_ = r.b();
  k_ = r.u32();
  active_ = r.b();
  m_ = r.u64();
  rep_ = r.u64();
  block_ = r.u32();
  off_ = r.u64();
  indices_ = r.u64_vec();
  const std::uint64_t nbits = r.u64();
  if (nbits != indices_.size()) {
    throw util::serde::DecodeError("classical-sample: sample size mismatch");
  }
  xbits_.assign(static_cast<std::size_t>(nbits), false);
  for (std::size_t i = 0; i < xbits_.size(); ++i) xbits_[i] = r.b();
  cursor_ = r.u64();
  if (cursor_ > indices_.size()) {
    throw util::serde::DecodeError("classical-sample: cursor out of range");
  }
  found_ = r.b();
  r.expect_exhausted();
}

// ---------------------------------------------------------------------------
// ClassicalBloomRecognizer
// ---------------------------------------------------------------------------

ClassicalBloomRecognizer::ClassicalBloomRecognizer(std::uint64_t seed,
                                                   std::uint64_t filter_bits,
                                                   unsigned num_hashes)
    : filter_bits_(filter_bits), num_hashes_(num_hashes) {
  // A 0-bit filter has no well-defined hash range (hash() reduces modulo
  // filter_bits_); reject it here instead of dividing by zero mid-stream.
  if (filter_bits_ == 0) {
    throw std::invalid_argument(
        "ClassicalBloomRecognizer: filter_bits must be >= 1");
  }
  reset(seed);
}

void ClassicalBloomRecognizer::reset(std::uint64_t seed) {
  seed_ = seed;
  util::Rng rng(seed);
  a1_ = lang::StructureValidator();
  a2_ = std::make_unique<fingerprint::EqualityChecker>(rng.split());
  in_prefix_ = true;
  k_ = 0;
  active_ = false;
  m_ = 0;
  rep_ = 0;
  block_ = 0;
  off_ = 0;
  filter_ = util::BitVec();
  hit_ = false;
}

std::uint64_t ClassicalBloomRecognizer::hash(std::uint64_t index,
                                             unsigned which) const noexcept {
  // Independent hash functions derived from the run seed via SplitMix64.
  util::SplitMix64 h(seed_ ^ (index * 0x9e3779b97f4a7c15ULL) ^
                     (std::uint64_t{which} << 32));
  return h.next() % filter_bits_;
}

void ClassicalBloomRecognizer::feed(Symbol s) {
  a1_.feed(s);
  a2_->feed(s);
  on_own_symbol(s);
}

void ClassicalBloomRecognizer::on_own_symbol(Symbol s) {
  if (in_prefix_) {
    if (s == Symbol::kOne && k_ < 20) {
      ++k_;
      return;
    }
    in_prefix_ = false;
    if (s == Symbol::kSep && k_ >= 1 && k_ <= 15) {
      active_ = true;
      m_ = std::uint64_t{1} << (2 * k_);
      filter_ = util::BitVec(filter_bits_);
    }
    return;
  }
  if (!active_) return;
  if (s == Symbol::kSep) {
    if (block_ == 2) {
      ++rep_;
      block_ = 0;
    } else {
      ++block_;
    }
    off_ = 0;
    return;
  }
  const bool bit = (s == Symbol::kOne);
  const std::uint64_t idx = off_++;
  if (idx >= m_ || rep_ != 0) return;  // the filter is built once
  if (block_ == 0) {
    if (bit) {
      for (unsigned h = 0; h < num_hashes_; ++h) filter_.set(hash(idx, h), true);
    }
  } else if (block_ == 1) {
    if (bit) {
      bool all = true;
      for (unsigned h = 0; h < num_hashes_; ++h) {
        if (!filter_.get(hash(idx, h))) {
          all = false;
          break;
        }
      }
      if (all) hit_ = true;
    }
  }
}

void ClassicalBloomRecognizer::feed_chunk(std::span<const Symbol> chunk) {
  a1_.feed_chunk(chunk);
  a2_->feed_chunk(chunk);
  drive_chunk(
      chunk, in_prefix_, active_, [this](Symbol s) { on_own_symbol(s); },
      [this](const Symbol* d, std::uint64_t len) { on_body_run(d, len); });
}

void ClassicalBloomRecognizer::on_body_run(const Symbol* data,
                                           std::uint64_t len) {
  // The filter is built (block 0) and probed (block 1) in repetition 0
  // only, and only one-bits hash — later repetitions cost nothing.
  const std::uint64_t start = off_;
  off_ += len;
  if (rep_ != 0) return;
  const std::uint64_t hi = std::min(start + len, m_);
  if (block_ == 0) {
    for (std::uint64_t idx = start; idx < hi; ++idx) {
      if (data[idx - start] != Symbol::kOne) continue;
      for (unsigned h = 0; h < num_hashes_; ++h) filter_.set(hash(idx, h), true);
    }
  } else if (block_ == 1) {
    for (std::uint64_t idx = start; idx < hi; ++idx) {
      if (data[idx - start] != Symbol::kOne) continue;
      bool all = true;
      for (unsigned h = 0; h < num_hashes_; ++h) {
        if (!filter_.get(hash(idx, h))) {
          all = false;
          break;
        }
      }
      if (all) hit_ = true;
    }
  }
}

bool ClassicalBloomRecognizer::finish() {
  if (!a1_.finish()) return false;
  if (!a2_->passed()) return false;
  return !hit_;
}

machine::SpaceReport ClassicalBloomRecognizer::space_used() const {
  machine::SpaceReport r;
  r.classical_bits = a1_.classical_bits_used() + a2_->classical_bits_used() +
                     filter_.size() + (2ULL * k_ + 1) + 4;
  r.qubits = 0;
  return r;
}

std::vector<std::uint8_t> ClassicalBloomRecognizer::snapshot() const {
  util::serde::ByteWriter w;
  machine::snapshot_header(w, kTagBloom);
  w.u64(seed_);
  w.u64(filter_bits_);
  w.u32(num_hashes_);
  a1_.snapshot_to(w);
  a2_->snapshot_to(w);
  w.b(in_prefix_);
  w.u32(k_);
  w.b(active_);
  w.u64(m_);
  w.u64(rep_);
  w.u32(block_);
  w.u64(off_);
  put_bitvec(w, filter_);
  w.b(hit_);
  return w.take();
}

void ClassicalBloomRecognizer::restore(std::span<const std::uint8_t> bytes) {
  util::serde::ByteReader r(bytes);
  machine::check_snapshot_header(r, kTagBloom, "classical-bloom");
  // seed_ travels with the snapshot (the filter's contents hash under it);
  // the filter geometry is construction-time configuration and must match.
  const std::uint64_t seed = r.u64();
  if (r.u64() != filter_bits_ || r.u32() != num_hashes_) {
    throw util::serde::DecodeError("classical-bloom: filter geometry mismatch");
  }
  seed_ = seed;
  a1_.restore_from(r);
  a2_->restore_from(r);
  in_prefix_ = r.b();
  k_ = r.u32();
  active_ = r.b();
  m_ = r.u64();
  rep_ = r.u64();
  block_ = r.u32();
  off_ = r.u64();
  filter_ = get_bitvec(r);
  hit_ = r.b();
  r.expect_exhausted();
}

}  // namespace qols::core
