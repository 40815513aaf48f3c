#pragma once
// Classical online recognizers for L_DISJ.
//
// ClassicalBlockRecognizer is Proposition 3.7's machine: it is the optimal
// classical strategy, using Theta(2^k) = Theta(n^{1/3}) bits. The others
// bracket it: ClassicalFullRecognizer stores a whole m-bit string
// (Theta(n^{2/3})), and the sampling/Bloom recognizers live below the
// Omega(n^{1/3}) lower bound of Theorem 3.6 — the lower bound predicts they
// must fail, and experiment E10 measures exactly how.
//
// All four are one skeleton, ClassicalMachine: the A1 ∧ A2 front, a
// BlockCursor walking `1^k # x # y # z # ...`, and a found flag. Each class
// supplies only its memory strategy — what it keeps of the x-block and how
// a y-bit is checked against it.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "qols/core/validator_front.hpp"
#include "qols/machine/online_recognizer.hpp"
#include "qols/util/bitvec.hpp"
#include "qols/util/rng.hpp"

namespace qols::core {

/// Where a classical machine stands in `1^k # x # y # z # ...`: the prefix
/// parser (count 1s up to 20; activate on the closing '#' when 1 <= k <=
/// the machine's ceiling) and, once active, the repetition, the block
/// (0 = x, 1 = y, 2 = z) and the offset inside it. An inactive machine
/// ignores the body; A1 decides such words.
struct BlockCursor {
  bool in_prefix = true;
  unsigned k = 0;
  bool active = false;
  std::uint64_t m = 0;  // 2^{2k} once active
  std::uint64_t rep = 0;
  unsigned block = 0;
  std::uint64_t off = 0;

  /// Consumes one prefix symbol; true iff it activated the cursor.
  bool step_prefix(stream::Symbol s, unsigned max_k) noexcept;
  /// Consumes one body separator; true iff it opened a new repetition.
  bool step_separator() noexcept;

  /// 2^k while active (Proposition 3.7's block length), else 0.
  std::uint64_t block_len() const noexcept {
    return active ? std::uint64_t{1} << k : 0;
  }
  /// The offset counter (2k+1 bits) plus 4 control bits.
  std::uint64_t counter_bits() const noexcept { return 2ULL * k + 1 + 4; }

  /// `block_len_slot` writes block_len() after m: classical-block's layout.
  void snapshot_to(util::serde::ByteWriter& w, bool block_len_slot) const;
  /// Throws util::serde::DecodeError, naming `who`, on a state the parser
  /// cannot reach: k above 20, an active cursor still in the prefix or with
  /// k outside [1, max_k] or m != 2^{2k}, an inactive one that moved, a
  /// block above 2, or a block_len slot != block_len().
  void restore_from(util::serde::ByteReader& r, unsigned max_k,
                    bool block_len_slot, const char* who);
};

/// The shared classical machine. Strategy (CRTP) supplies:
///   kTag, kName, kMaxK             snapshot kind tag, name(), k ceiling
///   reset_memory(seed, rng)        rng is the reset Rng after A2's split
///   activate()                     size the memory once k is known
///   step_bit(idx, bit)             one data bit, idx < m (reference path)
///   step_run(start, data, len)     the bits [start, start+len), inside m
///   memory_bits()                  its space, counters included
///   put_memory(w) / get_memory(r)  its memory after the cursor; get_memory
///                                  rejects a size the cursor disagrees with
/// and may hide on_separator(new_rep), put_config/get_config (fields before
/// A1) and kBlockLenSlot. feed() steps one symbol at a time and is the
/// reference the chunked path must match bit for bit.
template <typename Strategy>
class ClassicalMachine : public machine::OnlineRecognizer {
 public:
  void feed(stream::Symbol s) final;
  /// A1/A2 consume the chunk in bulk; the skeleton then walks the prefix and
  /// separators per symbol and hands each data run to step_run() once.
  void feed_chunk(std::span<const stream::Symbol> chunk) final;
  /// A1 ∧ A2 ∧ no intersection found.
  bool finish() final;
  void reset(std::uint64_t seed) final;
  machine::SpaceReport space_used() const final;
  std::string name() const final { return Strategy::kName; }
  std::vector<std::uint8_t> snapshot() const final;
  /// On util::serde::DecodeError the machine is left reset (seed 0), never
  /// half restored.
  void restore(std::span<const std::uint8_t> bytes) final;

 protected:
  static constexpr bool kBlockLenSlot = false;
  void on_separator(bool /*new_rep*/) {}
  void put_config(util::serde::ByteWriter& /*w*/) const {}
  void get_config(util::serde::ByteReader& /*r*/) {}

  ValidatorFront front_;
  BlockCursor cursor_;
  bool found_ = false;

 private:
  Strategy& self() noexcept { return static_cast<Strategy&>(*this); }
  const Strategy& self() const noexcept {
    return static_cast<const Strategy&>(*this);
  }
  void on_own_symbol(stream::Symbol s);
  void on_data_run(const stream::Symbol* data, std::uint64_t len);
};

/// Proposition 3.7: in repetition i the machine buffers block [x]_i (the
/// 2^k bits of x at offsets [i*2^k, (i+1)*2^k)) while streaming the x-block,
/// then matches them against the same offsets of the y-block. Repetition i
/// certifies block i; after all 2^k repetitions every index was checked.
/// Structure/consistency are validated by the same A1/A2 as the quantum
/// machine ("the same classical techniques", per the proof).
///
/// Error: one-sided, <= 2^{-2k} (only A2 can err). Space: Theta(2^k) bits.
class ClassicalBlockRecognizer final
    : public ClassicalMachine<ClassicalBlockRecognizer> {
 public:
  explicit ClassicalBlockRecognizer(std::uint64_t seed) { reset(seed); }

  bool intersection_found() const noexcept { return found_; }

 private:
  friend class ClassicalMachine<ClassicalBlockRecognizer>;
  static constexpr std::uint8_t kTag = 1;
  static constexpr const char* kName = "classical-block";
  static constexpr unsigned kMaxK = 15;
  static constexpr bool kBlockLenSlot = true;

  void reset_memory(std::uint64_t, const util::Rng&) { buffer_ = {}; }
  void activate() { buffer_ = util::BitVec(cursor_.block_len()); }
  void step_bit(std::uint64_t idx, bool bit);
  void step_run(std::uint64_t start, const stream::Symbol* data,
                std::uint64_t len);
  std::uint64_t memory_bits() const noexcept;
  void put_memory(util::serde::ByteWriter& w) const;
  void get_memory(util::serde::ByteReader& r);

  util::BitVec buffer_;  // the 2^k buffered bits of block [x]_rep
};

/// Baseline that stores all of x(1) (m = 2^{2k} bits = Theta(n^{2/3})) and
/// checks y(1) against it directly; A1/A2 still validate the rest. Only
/// repetition 0 reads or writes x, so later repetitions are counter
/// arithmetic.
class ClassicalFullRecognizer final
    : public ClassicalMachine<ClassicalFullRecognizer> {
 public:
  explicit ClassicalFullRecognizer(std::uint64_t seed) { reset(seed); }

 private:
  friend class ClassicalMachine<ClassicalFullRecognizer>;
  static constexpr std::uint8_t kTag = 2;
  static constexpr const char* kName = "classical-full";
  static constexpr unsigned kMaxK = 12;

  void reset_memory(std::uint64_t, const util::Rng&) { x_ = {}; }
  void activate() { x_ = util::BitVec(cursor_.m); }
  void step_bit(std::uint64_t idx, bool bit);
  void step_run(std::uint64_t start, const stream::Symbol* data,
                std::uint64_t len);
  std::uint64_t memory_bits() const noexcept {
    return x_.size() + cursor_.counter_bits();
  }
  void put_memory(util::serde::ByteWriter& w) const;
  void get_memory(util::serde::ByteReader& r);

  util::BitVec x_;
};

/// Small-space strategy #1: per repetition, sample `budget` uniformly random
/// indices, remember x's bits there, and compare against y's bits at the
/// same indices. Space O(budget * log m). Misses an intersection of size t
/// with probability about (1 - t/m)^{budget * 2^k} — for budget = O(log m)
/// this tends to 1, as Theorem 3.6 demands of any o(sqrt m)-space machine.
/// A data run visits only the sampled indices inside it (the sorted sample
/// makes that a cursor sweep).
class ClassicalSamplingRecognizer final
    : public ClassicalMachine<ClassicalSamplingRecognizer> {
 public:
  ClassicalSamplingRecognizer(std::uint64_t seed, std::uint64_t budget)
      : rng_(seed), budget_(budget) {
    reset(seed);
  }

 private:
  friend class ClassicalMachine<ClassicalSamplingRecognizer>;
  static constexpr std::uint8_t kTag = 3;
  static constexpr const char* kName = "classical-sample";
  static constexpr unsigned kMaxK = 15;

  void reset_memory(std::uint64_t, const util::Rng& rng);
  void activate() { draw_indices(); }
  /// A fresh sample each repetition; a new block restarts the sweep.
  void on_separator(bool new_rep);
  void draw_indices();
  void step_bit(std::uint64_t idx, bool bit);
  void step_run(std::uint64_t start, const stream::Symbol* data,
                std::uint64_t len);
  std::uint64_t memory_bits() const noexcept;
  void put_config(util::serde::ByteWriter& w) const;
  void get_config(util::serde::ByteReader& r);
  void put_memory(util::serde::ByteWriter& w) const;
  void get_memory(util::serde::ByteReader& r);

  util::Rng rng_;
  std::uint64_t budget_;
  std::vector<std::uint64_t> indices_;  // sorted sample for this repetition
  std::vector<bool> xbits_;             // x's bits at those indices
  std::size_t cursor_pos_ = 0;          // sweep position into indices_
};

/// Small-space strategy #2: a Bloom filter over the 1-positions of x(1);
/// every 1-position of y(1) is tested against it. No false negatives, so
/// intersecting inputs are ALWAYS rejected; but at o(sqrt m) bits the false
/// positive rate approaches 1 and disjoint inputs get rejected too — the
/// machine trades soundness for completeness and still fails the
/// bounded-error requirement, again as the lower bound predicts. The filter
/// is built and probed in repetition 0 only, and only one-bits hash.
class ClassicalBloomRecognizer final
    : public ClassicalMachine<ClassicalBloomRecognizer> {
 public:
  /// Throws std::invalid_argument when filter_bits == 0 (the hash range
  /// would be empty). num_hashes == 0 is legal but degenerate: the
  /// all-hashes-present probe is vacuously true, so every index reads as
  /// "maybe present" and any y with a 1-bit causes rejection.
  ClassicalBloomRecognizer(std::uint64_t seed, std::uint64_t filter_bits,
                           unsigned num_hashes);

 private:
  friend class ClassicalMachine<ClassicalBloomRecognizer>;
  static constexpr std::uint8_t kTag = 4;
  static constexpr const char* kName = "classical-bloom";
  static constexpr unsigned kMaxK = 15;

  std::uint64_t hash(std::uint64_t index, unsigned which) const noexcept;
  void insert(std::uint64_t idx);
  bool maybe_present(std::uint64_t idx) const;
  void reset_memory(std::uint64_t seed, const util::Rng&);
  void activate() { filter_ = util::BitVec(filter_bits_); }
  void step_bit(std::uint64_t idx, bool bit);
  void step_run(std::uint64_t start, const stream::Symbol* data,
                std::uint64_t len);
  std::uint64_t memory_bits() const noexcept {
    return filter_.size() + cursor_.counter_bits();
  }
  void put_config(util::serde::ByteWriter& w) const;
  void get_config(util::serde::ByteReader& r);
  void put_memory(util::serde::ByteWriter& w) const;
  void get_memory(util::serde::ByteReader& r);

  std::uint64_t seed_ = 0;
  std::uint64_t filter_bits_;
  unsigned num_hashes_;
  util::BitVec filter_;
};

extern template class ClassicalMachine<ClassicalBlockRecognizer>;
extern template class ClassicalMachine<ClassicalFullRecognizer>;
extern template class ClassicalMachine<ClassicalSamplingRecognizer>;
extern template class ClassicalMachine<ClassicalBloomRecognizer>;

}  // namespace qols::core
