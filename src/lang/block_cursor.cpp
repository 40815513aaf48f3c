#include "qols/lang/block_cursor.hpp"

#include <string>

namespace qols::lang {

void BlockCursor::check(unsigned max_k, const char* who) const {
  const bool reachable =
      k <= kPrefixCeiling && block <= 2 && (active || !stopped) &&
      (active ? !in_prefix && k >= 1 && k <= max_k &&
                    m == std::uint64_t{1} << (2 * k)
              : (m | rep | block | off) == 0);
  if (!reachable) {
    throw util::serde::DecodeError(std::string(who) +
                                   ": cursor geometry out of range");
  }
}

void BlockCursor::snapshot_to(util::serde::ByteWriter& w,
                              bool block_len_slot) const {
  w.b(in_prefix);
  w.u32(k);
  w.b(active);
  w.u64(m);
  if (block_len_slot) w.u64(block_len());
  w.u64(rep);
  w.u32(block);
  w.u64(off);
}

void BlockCursor::restore_from(util::serde::ByteReader& r, unsigned max_k,
                               bool block_len_slot, const char* who) {
  in_prefix = r.b();
  k = r.u32();
  active = r.b();
  m = r.u64();
  const std::uint64_t len = block_len_slot ? r.u64() : 0;
  rep = r.u64();
  block = r.u32();
  off = r.u64();
  stopped = false;
  check(max_k, who);
  if (block_len_slot && len != block_len()) {
    throw util::serde::DecodeError(std::string(who) +
                                   ": block length disagrees with the cursor");
  }
}

}  // namespace qols::lang
