#pragma once
// Procedure A1 (proof of Theorem 3.4): a deterministic streaming check of
// shape condition (i) — the word is exactly
//
//   1^k # b_1 # b_2 # ... # b_{3*2^k} #      with each b_j in {0,1}^{2^{2k}}
//
// using O(k) = O(log n) bits of work memory: a prefix counter for k, a block
// counter up to 3*2^k, and an in-block position counter up to 2^{2k}. The
// validator never buffers input. It is a BlockCursor plus the failure
// rules: a prefix that ends inactive ('0' in it, k = 0, a 21st '1'), a
// short or overlong block, a symbol after the last block. The word is done
// when the cursor reaches repetition 2^k.

#include <cstdint>
#include <optional>
#include <span>

#include "qols/lang/block_cursor.hpp"
#include "qols/stream/symbol_stream.hpp"
#include "qols/util/serde.hpp"

namespace qols::lang {

class StructureValidator {
 public:
  StructureValidator() = default;

  /// Consumes one symbol. Safe to call after failure (stays failed).
  void feed(stream::Symbol s) { cursor_.step(s, kPrefixCeiling, *this); }

  /// Consumes a run of symbols; identical end state to feeding them one by
  /// one. Runs of data bits inside a block advance the position counter in
  /// one step instead of 2^{2k} branches, so chunked ingestion makes A1
  /// nearly free.
  void feed_chunk(std::span<const stream::Symbol> chunk) {
    cursor_.walk(chunk, kPrefixCeiling, *this);
  }

  /// Declares end of input and returns the verdict: true iff the consumed
  /// word satisfied shape condition (i) exactly.
  bool finish() const noexcept { return !failed() && done(); }

  /// True once the word can no longer satisfy (i), regardless of what
  /// follows. (Callers may keep feeding; the flag is sticky.)
  bool failed() const noexcept {
    return cursor_.stopped || (!cursor_.in_prefix && !cursor_.active);
  }

  /// k, available once the prefix '1^k#' has been consumed.
  std::optional<unsigned> k() const noexcept {
    return cursor_.active ? std::optional<unsigned>(cursor_.k) : std::nullopt;
  }

  /// 0-based index of the block currently being read (x=0, y=1, z=2 of
  /// repetition blocks_done()/3), defined while parsing the body.
  std::uint64_t blocks_done() const noexcept {
    return 3 * cursor_.rep + cursor_.block;
  }

  /// Work-memory footprint in bits, per the accounting in DESIGN.md:
  /// prefix/k counter + block counter (k+2 bits) + position counter (2k+1
  /// bits) + 2 control-state bits. Grows with k; callable any time.
  std::uint64_t classical_bits_used() const noexcept;

  /// Serializes the full mid-stream state (recognizer snapshot/restore):
  /// phase, failed, k_known, k, m, total_blocks, blocks_done (3*rep+block),
  /// pos_in_block (off), all from the cursor. restore_from throws
  /// util::serde::DecodeError, leaving this validator as it was, on counters
  /// the prefix cannot produce: the cursor's check, total_blocks != 3*2^k,
  /// blocks_done past it, pos > m, a phase or flag they disagree with.
  void snapshot_to(util::serde::ByteWriter& w) const;
  void restore_from(util::serde::ByteReader& r);

 private:
  friend struct BlockCursor;
  enum class Phase : std::uint8_t { kPrefix, kBlock, kFailed, kDone };

  bool done() const noexcept {
    return cursor_.active && cursor_.rep == std::uint64_t{1} << cursor_.k;
  }
  Phase phase() const noexcept;
  std::uint64_t total_blocks() const noexcept {
    return cursor_.active ? std::uint64_t{3} << cursor_.k : 0;
  }

  // The failure rules as the cursor's hooks: failing stops the cursor. A '#'
  // fails a short block, and after the last block (the offset is then 0).
  bool on_activate() const noexcept { return true; }
  void on_separator() noexcept { cursor_.stopped |= cursor_.off != cursor_.m; }
  void on_bit(std::uint64_t, bool) noexcept { cursor_.stopped |= done(); }
  void on_run(std::uint64_t, const stream::Symbol*, std::uint64_t) noexcept {
    cursor_.stopped |= done();
  }
  void on_overlong() noexcept { cursor_.stopped = true; }

  BlockCursor cursor_;
};

}  // namespace qols::lang
