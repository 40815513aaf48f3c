#pragma once
// The one parser of the word `1^k # b_1 # b_2 # ... #`. A1, A3 and the
// classical machines of Proposition 3.7 each keep their own BlockCursor —
// they run in parallel on the read-once tape and count their own O(log n)
// bits (Section 3.2) — but the code that moves one is written once, here.
// A2 keeps its own prefix counter; equality_checker.hpp says why.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "qols/stream/symbol_stream.hpp"
#include "qols/util/serde.hpp"

namespace qols::lang {

/// The prefix counter stops here: a 21st '1' ends the prefix inactive. The
/// word length 2^{3k+2} must fit the 64-bit counters.
inline constexpr unsigned kPrefixCeiling = 20;

/// A position in `1^k # x # y # z # ...`: the prefix parser (count 1s up to
/// kPrefixCeiling; activate on the closing '#' when 1 <= k <= max_k) and,
/// once active, the repetition, the block (0 = x, 1 = y, 2 = z) and the
/// offset inside it. An inactive cursor ignores the body.
///
/// step() (one symbol) and walk() (a chunk) call the owner's hooks:
///   bool on_activate()           the prefix closed (m is set); false leaves
///                                the cursor inactive
///   void on_separator()          a body '#', before the cursor steps
///   void on_bit(idx, bit)        step(): one data bit, idx = off < m
///   void on_run(start, data, n)  walk(): bits [start, start+n) inside m,
///                                one call per run
///   void on_overlong()           data at off >= m; unless the hook stops,
///                                the offset runs on past m
/// A hook ends the walk for good by setting `stopped`; the cursor keeps the
/// position it stopped at. walk() takes the steps step() takes, so every
/// chunking of a word leaves the same cursor.
struct BlockCursor {
  unsigned k = 0;
  unsigned block = 0;
  bool in_prefix = true;
  bool active = false;
  bool stopped = false;
  std::uint64_t m = 0;  // 2^{2k} once active
  std::uint64_t rep = 0;
  std::uint64_t off = 0;

  template <typename Hooks>
  void step(stream::Symbol s, unsigned max_k, Hooks& h);
  template <typename Hooks>
  void walk(std::span<const stream::Symbol> chunk, unsigned max_k, Hooks& h);

  /// 2^k while active (Proposition 3.7's block length), else 0.
  std::uint64_t block_len() const noexcept {
    return active ? std::uint64_t{1} << k : 0;
  }
  /// The offset counter (2k+1 bits) plus 4 control bits.
  std::uint64_t counter_bits() const noexcept { return 2ULL * k + 1 + 4; }

  /// Throws util::serde::DecodeError, naming `who`, on a state the parser
  /// cannot reach: k above kPrefixCeiling, an active cursor still in the
  /// prefix or with k outside [1, max_k] or m != 2^{2k}, an inactive one
  /// that moved or stopped, or a block above 2. Every restore of a cursor
  /// runs it.
  void check(unsigned max_k, const char* who) const;

  /// The classical machines' layout (they never stop). `block_len_slot`
  /// writes block_len() after m, classical-block's layout; restore_from
  /// rejects a slot != block_len().
  void snapshot_to(util::serde::ByteWriter& w, bool block_len_slot) const;
  void restore_from(util::serde::ByteReader& r, unsigned max_k,
                    bool block_len_slot, const char* who);
};

template <typename Hooks>
void BlockCursor::step(stream::Symbol s, unsigned max_k, Hooks& h) {
  using stream::Symbol;
  if (in_prefix) {
    if (s == Symbol::kOne && k < kPrefixCeiling) {
      ++k;
      return;
    }
    in_prefix = false;
    if (s != Symbol::kSep || k < 1 || k > max_k) return;
    active = true;
    m = std::uint64_t{1} << (2 * k);
    if (!h.on_activate()) {
      active = false;
      m = 0;
    }
    return;
  }
  if (!active || stopped) return;
  if (s == Symbol::kSep) {
    h.on_separator();
    if (stopped) return;
    off = 0;
    if (block == 2) {
      ++rep;
      block = 0;
    } else {
      ++block;
    }
    return;
  }
  if (off < m) {
    h.on_bit(off, s == Symbol::kOne);
  } else {
    h.on_overlong();
  }
  if (!stopped) ++off;
}

template <typename Hooks>
void BlockCursor::walk(std::span<const stream::Symbol> chunk, unsigned max_k,
                       Hooks& h) {
  // Per symbol through the prefix and the separators (rare); each run of
  // data bits between them is one on_run call for its part inside the block
  // and, past m, what step() does there, once for the whole tail.
  std::size_t i = 0;
  const std::size_t n = chunk.size();
  while (i < n && in_prefix) step(chunk[i++], max_k, h);
  while (i < n && active && !stopped) {
    if (chunk[i] == stream::Symbol::kSep) {
      step(chunk[i++], max_k, h);
      continue;
    }
    const std::size_t j = stream::find_sep(chunk.data(), i + 1, n);
    const std::uint64_t len = j - i;
    const std::uint64_t fit = off < m ? std::min(len, m - off) : 0;
    if (fit != 0) {
      h.on_run(off, chunk.data() + i, fit);
      if (stopped) return;
      off += fit;
    }
    if (fit != len) {
      h.on_overlong();
      if (stopped) return;
      off += len - fit;
    }
    i = j;
  }
}

}  // namespace qols::lang
