#pragma once
// A1 ∧ A2: the shape validator and the consistency fingerprint that every
// recognizer of L_DISJ runs in parallel with its own memory. The quantum
// machine composes them with A3 (Section 3.2); the classical machines of
// Proposition 3.7 and E10 reuse them "by the same classical techniques" and
// differ only in what they keep of the x-block.

#include <cstdint>
#include <memory>
#include <span>

#include "qols/fingerprint/equality_checker.hpp"
#include "qols/lang/structure_validator.hpp"
#include "qols/util/rng.hpp"
#include "qols/util/serde.hpp"

namespace qols::core {

class ValidatorFront {
 public:
  /// A fresh A1; A2 draws its evaluation point from rng.split(), so the
  /// caller's later draws from `rng` stay independent of it.
  void reset(util::Rng& rng) {
    a1_ = lang::StructureValidator();
    a2_ = std::make_unique<fingerprint::EqualityChecker>(rng.split());
  }

  void feed(stream::Symbol s) {
    a1_.feed(s);
    a2_->feed(s);
  }
  void feed_chunk(std::span<const stream::Symbol> chunk) {
    a1_.feed_chunk(chunk);
    a2_->feed_chunk(chunk);
  }

  /// The composition gate: A1 accepts the shape and A2 found every
  /// repetition consistent. Ends A1's input.
  bool passed() { return a1_.finish() && a2_->passed(); }

  std::uint64_t classical_bits_used() const noexcept {
    return a1_.classical_bits_used() + a2_->classical_bits_used();
  }

  /// A1 then A2, the order every recognizer snapshot has used.
  void snapshot_to(util::serde::ByteWriter& w) const {
    a1_.snapshot_to(w);
    a2_->snapshot_to(w);
  }
  void restore_from(util::serde::ByteReader& r) {
    a1_.restore_from(r);
    a2_->restore_from(r);
  }

  const lang::StructureValidator& a1() const noexcept { return a1_; }
  const fingerprint::EqualityChecker& a2() const noexcept { return *a2_; }

 private:
  lang::StructureValidator a1_;
  std::unique_ptr<fingerprint::EqualityChecker> a2_;
};

}  // namespace qols::core
