// Unit + differential tests: procedure A1 (streaming structure validator).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "qols/lang/ldisj_instance.hpp"
#include "qols/lang/structure_validator.hpp"
#include "qols/stream/symbol_stream.hpp"

namespace {

using namespace qols::lang;
using qols::stream::StringStream;
using qols::stream::Symbol;
using qols::util::Rng;

bool validate(const std::string& word) {
  StructureValidator v;
  StringStream s(word);
  while (auto sym = s.next()) v.feed(*sym);
  return v.finish();
}

TEST(Validator, AcceptsWellFormedWords) {
  Rng rng(1);
  for (unsigned k = 1; k <= 3; ++k) {
    auto inst = LDisjInstance::make_disjoint(k, rng);
    EXPECT_TRUE(validate(inst.render())) << "k=" << k;
    auto bad = LDisjInstance::make_with_intersections(k, 1, rng);
    // Shape is independent of disjointness: intersecting words still pass A1.
    EXPECT_TRUE(validate(bad.render())) << "k=" << k;
  }
}

TEST(Validator, RejectsEmptyAndTrivialWords) {
  EXPECT_FALSE(validate(""));
  EXPECT_FALSE(validate("#"));
  EXPECT_FALSE(validate("1"));
  EXPECT_FALSE(validate("1#"));
  EXPECT_FALSE(validate("0#"));
}

TEST(Validator, RejectsZeroInPrefix) {
  EXPECT_FALSE(validate("10#0101#0101#0101#0101#0101#0101#"));
}

TEST(Validator, RejectsShortBlock) {
  // k=1 wants blocks of length 4; one block has 3 bits.
  EXPECT_FALSE(validate("1#101#0101#1010#1010#0101#1010#"));
}

TEST(Validator, RejectsLongBlock) {
  EXPECT_FALSE(validate("1#10101#0101#1010#1010#0101#1010#"));
}

TEST(Validator, RejectsWrongBlockCount) {
  // k=1 wants 6 blocks; give 5.
  EXPECT_FALSE(validate("1#1010#0101#1010#1010#0101#"));
  // ... and 7.
  EXPECT_FALSE(validate("1#1010#0101#1010#1010#0101#1010#0101#"));
}

TEST(Validator, RejectsTrailingSymbols) {
  Rng rng(2);
  auto inst = LDisjInstance::make_disjoint(1, rng);
  EXPECT_FALSE(validate(inst.render() + "0"));
  EXPECT_FALSE(validate(inst.render() + "#"));
}

TEST(Validator, RejectsTruncation) {
  Rng rng(3);
  auto inst = LDisjInstance::make_disjoint(1, rng);
  const std::string word = inst.render();
  for (std::size_t cut = 1; cut < word.size(); ++cut) {
    ASSERT_FALSE(validate(word.substr(0, cut))) << "cut=" << cut;
  }
}

TEST(Validator, ExposesKAfterPrefix) {
  StructureValidator v;
  v.feed(Symbol::kOne);
  v.feed(Symbol::kOne);
  EXPECT_FALSE(v.k().has_value());
  v.feed(Symbol::kSep);
  ASSERT_TRUE(v.k().has_value());
  EXPECT_EQ(*v.k(), 2u);
}

TEST(Validator, FailureIsSticky) {
  StructureValidator v;
  v.feed(Symbol::kZero);  // immediate prefix violation
  EXPECT_TRUE(v.failed());
  v.feed(Symbol::kOne);
  v.feed(Symbol::kSep);
  EXPECT_TRUE(v.failed());
  EXPECT_FALSE(v.finish());
}

TEST(Validator, SpaceIsLogarithmic) {
  // The validator's work memory must grow linearly in k (i.e. O(log n)).
  Rng rng(4);
  std::uint64_t prev = 0;
  for (unsigned k = 1; k <= 4; ++k) {
    auto inst = LDisjInstance::make_disjoint(k, rng);
    StructureValidator v;
    auto s = inst.stream();
    while (auto sym = s->next()) v.feed(*sym);
    const std::uint64_t bits = v.classical_bits_used();
    EXPECT_LE(bits, 16 * k + 16) << "k=" << k;
    EXPECT_GE(bits, prev);  // monotone in k
    prev = bits;
  }
}

std::vector<std::uint8_t> snapshot_after(const std::string& prefix) {
  StructureValidator v;
  StringStream s(prefix);
  while (auto sym = s.next()) v.feed(*sym);
  qols::util::serde::ByteWriter w;
  v.snapshot_to(w);
  return w.take();
}

/// Restores `bytes`, then feeds `rest`; nullopt when the restore throws.
std::optional<bool> resume(const std::vector<std::uint8_t>& bytes,
                           const std::string& rest) {
  StructureValidator v;
  qols::util::serde::ByteReader r(bytes);
  try {
    v.restore_from(r);
  } catch (const qols::util::serde::DecodeError&) {
    return std::nullopt;
  }
  StringStream s(rest);
  while (auto sym = s.next()) v.feed(*sym);
  return v.finish();
}

void poke(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t v,
          int width) {
  for (int i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

TEST(Validator, RestoreRejectsCountersThePrefixCannotProduce) {
  // Layout: phase @0, failed @1, k_known @2, k @3 (u32), m @7,
  // total_blocks @15, blocks_done @23, pos_in_block @31 (u64 each).
  const std::string body = "1000#0100#1000#1000#0100#1000#";
  const std::vector<std::uint8_t> good = snapshot_after("1#");
  ASSERT_EQ(good.size(), 39u);
  ASSERT_EQ(good[3], 1);   // k
  ASSERT_EQ(good[15], 6);  // 3 * 2^k blocks
  EXPECT_EQ(resume(good, body), std::optional<bool>(true));
  EXPECT_EQ(resume(good, "0000#"), std::optional<bool>(false));

  const auto rejected = [&](std::vector<std::uint8_t> bad, const char* what) {
    EXPECT_EQ(resume(bad, "0000#"), std::nullopt) << what;
  };
  {
    // The repro: one block instead of six, after which "1#0000#" passed.
    auto bad = good;
    poke(bad, 15, 1, 8);
    rejected(bad, "total_blocks != 3 * 2^k");
  }
  {
    auto bad = good;
    poke(bad, 7, 8, 8);
    rejected(bad, "m != 2^{2k}");
  }
  {
    auto bad = good;
    poke(bad, 23, 7, 8);
    rejected(bad, "blocks_done > total_blocks");
  }
  {
    auto bad = good;
    poke(bad, 31, 5, 8);
    rejected(bad, "pos_in_block > m");
  }
  {
    auto bad = good;
    bad[0] = 3;  // kDone with no block read
    rejected(bad, "phase done before the last block");
  }
  {
    auto bad = good;
    bad[0] = 0;  // kPrefix with k known
    rejected(bad, "phase prefix after the prefix");
  }
  {
    auto bad = good;
    bad[1] = 1;  // failed, but the phase says block
    rejected(bad, "failed flag against the phase");
  }
  {
    auto bad = good;
    poke(bad, 3, 21, 4);
    poke(bad, 7, std::uint64_t{1} << 42, 8);
    poke(bad, 15, std::uint64_t{3} << 21, 8);
    rejected(bad, "k > 20");
  }
  {
    auto bad = good;
    bad[0] = 9;
    rejected(bad, "unknown phase");
  }
}

TEST(Validator, OverlongRunFailsWhereTheSymbolPathDoes) {
  // The chunked path reads a data run in one step; it must still fail at
  // the first bit past m, with the position counter where per-symbol
  // feeding leaves it.
  StructureValidator chunked;
  const std::vector<Symbol> word = {Symbol::kOne,  Symbol::kSep,
                                    Symbol::kZero, Symbol::kZero,
                                    Symbol::kZero, Symbol::kZero,
                                    Symbol::kZero};
  chunked.feed_chunk(word);
  StructureValidator single;
  for (const Symbol s : word) single.feed(s);
  EXPECT_TRUE(chunked.failed());
  qols::util::serde::ByteWriter a, b;
  chunked.snapshot_to(a);
  single.snapshot_to(b);
  EXPECT_EQ(a.take(), b.take());
}

// Differential property test: on random mutated words the validator agrees
// with an oracle that checks shape only (not consistency/disjointness).
bool shape_reference(const std::string& word) {
  std::size_t pos = 0;
  while (pos < word.size() && word[pos] == '1') ++pos;
  const std::size_t k = pos;
  if (k < 1 || k > 20 || pos >= word.size() || word[pos] != '#') return false;
  ++pos;
  const std::uint64_t m = std::uint64_t{1} << (2 * k);
  const std::uint64_t blocks = 3 * (std::uint64_t{1} << k);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    if (pos + m + 1 > word.size()) return false;
    for (std::uint64_t i = 0; i < m; ++i) {
      if (word[pos + i] != '0' && word[pos + i] != '1') return false;
    }
    if (word[pos + m] != '#') return false;
    pos += m + 1;
  }
  return pos == word.size();
}

class ValidatorDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ValidatorDifferential, AgreesWithShapeOracleOnMutants) {
  Rng rng(1000 + GetParam());
  auto inst = LDisjInstance::make_disjoint(1 + GetParam() % 3, rng);
  const std::string word = inst.render();
  // Random single-character mutations (substitute / delete / insert).
  for (int trial = 0; trial < 40; ++trial) {
    std::string mutated = word;
    const std::size_t pos = rng.below(mutated.size());
    const char repl[] = {'0', '1', '#'};
    switch (rng.below(3)) {
      case 0:
        mutated[pos] = repl[rng.below(3)];
        break;
      case 1:
        mutated.erase(pos, 1);
        break;
      case 2:
        mutated.insert(pos, 1, repl[rng.below(3)]);
        break;
    }
    ASSERT_EQ(validate(mutated), shape_reference(mutated))
        << "trial " << trial << " word " << mutated;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidatorDifferential, ::testing::Range(0, 8));

}  // namespace
