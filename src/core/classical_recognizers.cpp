#include "qols/core/classical_recognizers.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <stdexcept>
#include <string>

namespace qols::core {

using stream::Symbol;
using util::serde::DecodeError;

namespace {

void put_bitvec(util::serde::ByteWriter& w, const util::BitVec& v) {
  w.u64(v.size());
  w.u64_vec(v.words());
}

// Reads a bit vector whose size the restored cursor fixes: any other size
// would let a later data bit index past it.
util::BitVec get_bitvec(util::serde::ByteReader& r, std::uint64_t expected,
                        const char* who) {
  const std::uint64_t n = r.u64();
  std::vector<std::uint64_t> words = r.u64_vec();
  if (n != expected) {
    throw DecodeError(std::string(who) +
                      ": buffer size disagrees with the cursor");
  }
  try {
    return util::BitVec::from_words(static_cast<std::size_t>(n),
                                    std::move(words));
  } catch (const std::invalid_argument& e) {
    throw DecodeError(e.what());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ClassicalMachine: the front, the cursor and the found flag
// ---------------------------------------------------------------------------

template <typename S>
void ClassicalMachine<S>::reset(std::uint64_t seed) {
  util::Rng rng(seed);
  front_.reset(rng);
  cursor_ = lang::BlockCursor{};
  found_ = false;
  self().reset_memory(seed, rng);
}

template <typename S>
void ClassicalMachine<S>::feed(Symbol s) {
  front_.feed(s);
  cursor_.step(s, S::kMaxK, *this);
}

template <typename S>
void ClassicalMachine<S>::feed_chunk(std::span<const Symbol> chunk) {
  front_.feed_chunk(chunk);
  cursor_.walk(chunk, S::kMaxK, *this);
}

template <typename S>
bool ClassicalMachine<S>::finish() {
  return front_.passed() && !found_;
}

template <typename S>
machine::SpaceReport ClassicalMachine<S>::space_used() const {
  machine::SpaceReport r;
  r.classical_bits = front_.classical_bits_used() + self().memory_bits();
  r.qubits = 0;
  return r;
}

// Layout (kind tag in the header): strategy config, A1, A2, the cursor,
// strategy memory, the found flag.
template <typename S>
std::vector<std::uint8_t> ClassicalMachine<S>::snapshot() const {
  util::serde::ByteWriter w;
  machine::snapshot_header(w, S::kTag);
  self().put_config(w);
  front_.snapshot_to(w);
  cursor_.snapshot_to(w, S::kBlockLenSlot);
  self().put_memory(w);
  w.b(found_);
  return w.take();
}

template <typename S>
void ClassicalMachine<S>::restore(std::span<const std::uint8_t> bytes) {
  util::serde::ByteReader r(bytes);
  try {
    machine::check_snapshot_header(r, S::kTag, S::kName);
    self().get_config(r);
    front_.restore_from(r);
    cursor_.restore_from(r, S::kMaxK, S::kBlockLenSlot, S::kName);
    self().get_memory(r);
    found_ = r.b();
    r.expect_exhausted();
  } catch (const DecodeError&) {
    // A half-restored machine could hold a cursor its memory disagrees
    // with; leave a fresh one instead, so a caller that keeps feeding after
    // the error cannot index past the memory.
    reset(0);
    throw;
  }
}

// ---------------------------------------------------------------------------
// ClassicalBlockRecognizer (Proposition 3.7)
// ---------------------------------------------------------------------------

void ClassicalBlockRecognizer::step_bit(std::uint64_t idx, bool bit) {
  // Repetition r owns the index window [r*2^k, (r+1)*2^k).
  const std::uint64_t len = buffer_.size();
  if (cursor_.rep >= len) return;  // malformed; A1 rejects
  const std::uint64_t window_lo = cursor_.rep * len;
  if (idx < window_lo || idx >= window_lo + len) return;
  const std::uint64_t slot = idx - window_lo;
  if (cursor_.block == 0) {
    buffer_.set(slot, bit);
  } else if (cursor_.block == 1) {
    if (bit && buffer_.get(slot)) found_ = true;
  }
}

void ClassicalBlockRecognizer::step_run(std::uint64_t start,
                                        const Symbol* data,
                                        std::uint64_t len) {
  // Only the run's overlap with this repetition's window is read or
  // written, and z-blocks touch nothing.
  const std::uint64_t block_len = buffer_.size();
  if (cursor_.rep >= block_len || cursor_.block == 2) return;
  const std::uint64_t window_lo = cursor_.rep * block_len;
  const std::uint64_t lo = std::max(start, window_lo);
  const std::uint64_t hi = std::min(start + len, window_lo + block_len);
  if (cursor_.block == 0) {
    for (std::uint64_t idx = lo; idx < hi; ++idx) {
      buffer_.set(idx - window_lo, data[idx - start] == Symbol::kOne);
    }
  } else {
    for (std::uint64_t idx = lo; idx < hi; ++idx) {
      if (data[idx - start] == Symbol::kOne && buffer_.get(idx - window_lo)) {
        found_ = true;
      }
    }
  }
}

std::uint64_t ClassicalBlockRecognizer::memory_bits() const noexcept {
  const unsigned k = cursor_.k;
  const std::uint64_t counters =
      cursor_.active ? (std::uint64_t{k} + 1) + (2 * k + 1) + 4 : 8;
  return buffer_.size() + counters + 1;  // +1 found flag
}

void ClassicalBlockRecognizer::put_memory(util::serde::ByteWriter& w) const {
  put_bitvec(w, buffer_);
}

void ClassicalBlockRecognizer::get_memory(util::serde::ByteReader& r) {
  buffer_ = get_bitvec(r, cursor_.block_len(), kName);
}

// ---------------------------------------------------------------------------
// ClassicalFullRecognizer
// ---------------------------------------------------------------------------

void ClassicalFullRecognizer::step_bit(std::uint64_t idx, bool bit) {
  if (cursor_.rep != 0) return;
  if (cursor_.block == 0) {
    x_.set(idx, bit);
  } else if (cursor_.block == 1) {
    if (bit && x_.get(idx)) found_ = true;
  }
}

void ClassicalFullRecognizer::step_run(std::uint64_t start, const Symbol* data,
                                       std::uint64_t len) {
  if (cursor_.rep != 0) return;
  if (cursor_.block == 0) {
    for (std::uint64_t i = 0; i < len; ++i) {
      x_.set(start + i, data[i] == Symbol::kOne);
    }
  } else if (cursor_.block == 1) {
    for (std::uint64_t i = 0; i < len; ++i) {
      if (data[i] == Symbol::kOne && x_.get(start + i)) found_ = true;
    }
  }
}

void ClassicalFullRecognizer::put_memory(util::serde::ByteWriter& w) const {
  put_bitvec(w, x_);
}

void ClassicalFullRecognizer::get_memory(util::serde::ByteReader& r) {
  x_ = get_bitvec(r, cursor_.m, kName);
}

// ---------------------------------------------------------------------------
// ClassicalSamplingRecognizer
// ---------------------------------------------------------------------------

void ClassicalSamplingRecognizer::reset_memory(std::uint64_t,
                                               const util::Rng& rng) {
  rng_ = rng;
  indices_.clear();
  xbits_.clear();
  cursor_pos_ = 0;
}

void ClassicalSamplingRecognizer::draw_indices() {
  indices_.clear();
  for (std::uint64_t i = 0; i < budget_; ++i) {
    indices_.push_back(rng_.below(cursor_.m));
  }
  std::sort(indices_.begin(), indices_.end());
  indices_.erase(std::unique(indices_.begin(), indices_.end()), indices_.end());
  xbits_.assign(indices_.size(), false);
  cursor_pos_ = 0;
}

void ClassicalSamplingRecognizer::on_block_end() {
  if (cursor_.block == 2) {
    draw_indices();
  } else {
    cursor_pos_ = 0;
  }
}

void ClassicalSamplingRecognizer::step_bit(std::uint64_t idx, bool bit) {
  if (cursor_.block >= 2) return;
  while (cursor_pos_ < indices_.size() && indices_[cursor_pos_] < idx) {
    ++cursor_pos_;
  }
  if (cursor_pos_ == indices_.size() || indices_[cursor_pos_] != idx) return;
  if (cursor_.block == 0) {
    xbits_[cursor_pos_] = bit;
  } else if (bit && xbits_[cursor_pos_]) {
    found_ = true;
  }
}

void ClassicalSamplingRecognizer::step_run(std::uint64_t start,
                                           const Symbol* data,
                                           std::uint64_t len) {
  // Only sampled indices inside [start, end) are visited, and the sweep
  // rests where step_bit leaves it after bit end-1 (on that index if it is
  // sampled), so a snapshot cannot tell the two paths apart.
  if (cursor_.block >= 2) return;
  const std::uint64_t end = start + len;
  while (cursor_pos_ < indices_.size() && indices_[cursor_pos_] < start) {
    ++cursor_pos_;
  }
  for (; cursor_pos_ < indices_.size() && indices_[cursor_pos_] < end;
       ++cursor_pos_) {
    const bool bit = data[indices_[cursor_pos_] - start] == Symbol::kOne;
    if (cursor_.block == 0) {
      xbits_[cursor_pos_] = bit;
    } else if (bit && xbits_[cursor_pos_]) {
      found_ = true;
    }
  }
  if (cursor_pos_ > 0 && indices_[cursor_pos_ - 1] == end - 1) --cursor_pos_;
}

std::uint64_t ClassicalSamplingRecognizer::memory_bits() const noexcept {
  // Each sampled index costs 2k bits plus 1 remembered bit of x.
  return budget_ * (2ULL * cursor_.k + 1) + cursor_.counter_bits();
}

void ClassicalSamplingRecognizer::put_config(util::serde::ByteWriter& w) const {
  for (const std::uint64_t s : rng_.state()) w.u64(s);
  w.u64(budget_);
}

void ClassicalSamplingRecognizer::get_config(util::serde::ByteReader& r) {
  std::array<std::uint64_t, 4> state;
  for (auto& s : state) s = r.u64();
  rng_.set_state(state);
  // budget is construction-time configuration; a snapshot from a
  // differently-budgeted recognizer is a caller error, not a state to adopt.
  if (r.u64() != budget_) {
    throw DecodeError("classical-sample: budget mismatch");
  }
}

void ClassicalSamplingRecognizer::put_memory(util::serde::ByteWriter& w) const {
  w.u64_vec(indices_);
  w.u64(xbits_.size());
  for (const bool bit : xbits_) w.b(bit);
  w.u64(cursor_pos_);
}

void ClassicalSamplingRecognizer::get_memory(util::serde::ByteReader& r) {
  indices_ = r.u64_vec();
  // A sample is at most budget distinct sorted indices inside [0, m) (none
  // while inactive, where m = 0).
  const bool sample_ok =
      indices_.size() <= budget_ &&
      std::adjacent_find(indices_.begin(), indices_.end(),
                         std::greater_equal<>()) == indices_.end() &&
      (indices_.empty() || indices_.back() < cursor_.m);
  if (!sample_ok) {
    throw DecodeError("classical-sample: sample outside the cursor's m");
  }
  const std::uint64_t nbits = r.u64();
  if (nbits != indices_.size()) {
    throw DecodeError("classical-sample: sample size mismatch");
  }
  xbits_.assign(static_cast<std::size_t>(nbits), false);
  for (std::size_t i = 0; i < xbits_.size(); ++i) xbits_[i] = r.b();
  cursor_pos_ = r.u64();
  if (cursor_pos_ > indices_.size()) {
    throw DecodeError("classical-sample: cursor out of range");
  }
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

void ClassicalBloomRecognizer::reset_memory(std::uint64_t seed,
                                            const util::Rng&) {
  seed_ = seed;
  filter_ = util::BitVec();
}

std::uint64_t ClassicalBloomRecognizer::hash(std::uint64_t index,
                                             unsigned which) const noexcept {
  // Independent hash functions derived from the run seed via SplitMix64.
  util::SplitMix64 h(seed_ ^ (index * 0x9e3779b97f4a7c15ULL) ^
                     (std::uint64_t{which} << 32));
  return h.next() % filter_bits_;
}

void ClassicalBloomRecognizer::insert(std::uint64_t idx) {
  for (unsigned h = 0; h < num_hashes_; ++h) filter_.set(hash(idx, h), true);
}

bool ClassicalBloomRecognizer::maybe_present(std::uint64_t idx) const {
  for (unsigned h = 0; h < num_hashes_; ++h) {
    if (!filter_.get(hash(idx, h))) return false;
  }
  return true;
}

void ClassicalBloomRecognizer::step_bit(std::uint64_t idx, bool bit) {
  if (!bit || cursor_.rep != 0) return;  // the filter is built once
  if (cursor_.block == 0) {
    insert(idx);
  } else if (cursor_.block == 1 && maybe_present(idx)) {
    found_ = true;
  }
}

void ClassicalBloomRecognizer::step_run(std::uint64_t start,
                                        const Symbol* data,
                                        std::uint64_t len) {
  if (cursor_.rep != 0 || cursor_.block == 2) return;
  for (std::uint64_t i = 0; i < len; ++i) {
    if (data[i] != Symbol::kOne) continue;
    if (cursor_.block == 0) {
      insert(start + i);
    } else if (maybe_present(start + i)) {
      found_ = true;
    }
  }
}

void ClassicalBloomRecognizer::put_config(util::serde::ByteWriter& w) const {
  w.u64(seed_);
  w.u64(filter_bits_);
  w.u32(num_hashes_);
}

void ClassicalBloomRecognizer::get_config(util::serde::ByteReader& r) {
  // seed_ travels with the snapshot (the filter's contents hash under it);
  // the filter geometry is construction-time configuration and must match.
  const std::uint64_t seed = r.u64();
  if (r.u64() != filter_bits_ || r.u32() != num_hashes_) {
    throw DecodeError("classical-bloom: filter geometry mismatch");
  }
  seed_ = seed;
}

void ClassicalBloomRecognizer::put_memory(util::serde::ByteWriter& w) const {
  put_bitvec(w, filter_);
}

void ClassicalBloomRecognizer::get_memory(util::serde::ByteReader& r) {
  filter_ = get_bitvec(r, cursor_.active ? filter_bits_ : 0, kName);
}

template class ClassicalMachine<ClassicalBlockRecognizer>;
template class ClassicalMachine<ClassicalFullRecognizer>;
template class ClassicalMachine<ClassicalSamplingRecognizer>;
template class ClassicalMachine<ClassicalBloomRecognizer>;

}  // namespace qols::core
