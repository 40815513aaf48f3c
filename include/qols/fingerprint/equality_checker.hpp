#pragma once
// Procedure A2 (proof of Theorem 3.4): a one-sided-error streaming check of
// the consistency conditions, assuming shape condition (i):
//
//   (ii)  x(1) = z(1) = x(2) = z(2) = ... = x(2^k) = z(2^k)
//   (iii) y(1) = y(2) = ... = y(2^k)
//
// It draws one random evaluation point t in {0,...,p-1} for a prime
// p in (2^{4k}, 2^{4k+1}) and compares polynomial fingerprints: within each
// repetition F_x = F_z, and across adjacent repetitions F_x(i) = F_x(i+1),
// F_y(i) = F_y(i+1). If (ii) and (iii) hold every test passes with
// probability 1; if either fails, some test catches it except with
// probability < 2^{-2k} over t.
//
// Work memory: O(k) bits — a handful of field elements of 4k+1 bits each.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "qols/fingerprint/poly_fingerprint.hpp"
#include "qols/stream/symbol_stream.hpp"
#include "qols/util/rng.hpp"

namespace qols::fingerprint {

class EqualityChecker {
 public:
  /// The checker owns a child RNG so the evaluation point t is drawn
  /// independently of other randomized components.
  ///
  /// `field_exponent` selects the prime interval (2^{qk}, 2^{qk+1}) with
  /// q = field_exponent. The paper uses q = 4 (error < 2^{-2k}); the E14
  /// ablation sweeps q to show why: q = 2 only bounds the PER-TEST error by
  /// ~(m-1)/p < 1, which the 3*2^k tests then amplify. Requires q in [2, 6].
  explicit EqualityChecker(util::Rng rng, unsigned field_exponent = 4)
      : rng_(rng), field_exponent_(field_exponent) {}

  /// Consumes one symbol of the word (the same stream A1 sees). On words
  /// violating shape (i) the behaviour is unspecified-but-safe: A1 rejects
  /// the word anyway.
  void feed(stream::Symbol s);

  /// Consumes a run of symbols; fingerprint values — and therefore every
  /// pass/fail outcome — are bit-identical to per-symbol feeding. Runs of
  /// data bits go through PolyFingerprint's batched Horner pass (Montgomery
  /// multiplication instead of a 128-bit division per bit), which is the
  /// single largest win of chunked ingestion: A2 touches every bit of the
  /// word, so its per-bit cost bounds any recognizer's line rate.
  void feed_chunk(std::span<const stream::Symbol> chunk);

  /// True iff every fingerprint comparison made so far passed. Valid after
  /// the stream ends; on a shape-valid word this is the paper's A2 output.
  bool passed() const noexcept { return !failed_; }

  /// The prime in (2^{4k}, 2^{4k+1}) in use (after the prefix was read).
  std::optional<std::uint64_t> prime() const noexcept {
    return active_ ? std::optional<std::uint64_t>(p_) : std::nullopt;
  }
  /// The random evaluation point t.
  std::optional<std::uint64_t> point() const noexcept {
    return active_ ? std::optional<std::uint64_t>(t_) : std::nullopt;
  }

  /// Work-memory footprint in bits: 8 field elements of (4k+1) bits plus the
  /// block counter, once k is known.
  std::uint64_t classical_bits_used() const noexcept;

  /// Serializes the full mid-stream state including the child RNG, so a
  /// restored checker draws the identical future evaluation points.
  void snapshot_to(util::serde::ByteWriter& w) const;
  void restore_from(util::serde::ByteReader& r);

 private:
  util::Rng rng_;
  unsigned field_exponent_;
  bool failed_ = false;

  // Prefix parsing. Not a lang::BlockCursor: A2 caps k at 15 and activates
  // only when q*k <= 60, so at 16 <= k <= 20 it fingerprints with k = 15's
  // prime; a cursor would count the real k there and change its verdicts.
  bool in_prefix_ = true;
  unsigned k_ = 0;
  bool active_ = false;

  std::uint64_t p_ = 0;
  std::uint64_t t_ = 0;
  std::optional<PolyFingerprint> current_;
  std::uint64_t block_index_ = 0;  // 0-based over all blocks

  // Fingerprints retained across block boundaries.
  std::optional<std::uint64_t> cur_x_, cur_y_;
  std::optional<std::uint64_t> prev_x_, prev_y_;

  void on_block_end();
};

}  // namespace qols::fingerprint
