#include "qols/lang/structure_validator.hpp"

#include <algorithm>
#include <bit>

namespace qols::lang {

StructureValidator::Phase StructureValidator::phase() const noexcept {
  if (failed()) return Phase::kFailed;
  if (cursor_.in_prefix) return Phase::kPrefix;
  return done() ? Phase::kDone : Phase::kBlock;
}

void StructureValidator::snapshot_to(util::serde::ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(phase()));
  w.b(failed());
  w.b(cursor_.active);
  w.u32(cursor_.k);
  w.u64(cursor_.m);
  w.u64(total_blocks());
  w.u64(blocks_done());
  w.u64(cursor_.off);
}

void StructureValidator::restore_from(util::serde::ByteReader& r) {
  const std::uint8_t phase = r.u8();
  const bool failed = r.b();
  StructureValidator v;
  BlockCursor& c = v.cursor_;
  c.active = r.b();
  c.k = r.u32();
  c.m = r.u64();
  const std::uint64_t total = r.u64();
  const std::uint64_t blocks = r.u64();
  c.off = r.u64();
  c.in_prefix = phase == static_cast<std::uint8_t>(Phase::kPrefix);
  c.stopped = failed && c.active;
  c.rep = blocks / 3;
  c.block = static_cast<unsigned>(blocks % 3);
  c.check(kPrefixCeiling, "StructureValidator");
  const bool consistent =
      total == v.total_blocks() && blocks <= total && c.off <= c.m &&
      !(v.done() && c.off != 0) && failed == v.failed() &&
      phase == static_cast<std::uint8_t>(v.phase());
  if (!consistent) {
    throw util::serde::DecodeError(
        "StructureValidator: counters disagree with the prefix");
  }
  *this = v;
}

std::uint64_t StructureValidator::classical_bits_used() const noexcept {
  // Conceptual OPTM work-tape footprint. Before k is known only the prefix
  // counter exists; afterwards the three counters sized by k.
  const unsigned k = std::max(cursor_.k, 1u);
  const std::uint64_t k_counter = std::bit_width(std::uint64_t{k} + 1);
  const std::uint64_t block_counter = k + 2;    // counts to 3*2^k
  const std::uint64_t pos_counter = 2 * k + 1;  // counts to 2^{2k}
  return k_counter + block_counter + pos_counter + 2;  // +2 control state
}

}  // namespace qols::lang
