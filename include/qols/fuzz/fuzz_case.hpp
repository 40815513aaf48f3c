#pragma once
// Seeded case generation for the differential fuzzing subsystem.
//
// A FuzzCase is everything one property check needs, drawn deterministically
// from a single 64-bit seed: a word over {0,1,#} (member, planted
// intersection, one of the six mutant classes, structurally malformed junk,
// or a boundary-length fixture), an optional stack of failure-injection
// stream wrappers, a chunking schedule, a session count for the serving-layer
// check, and a full RecognizerSpec. Every field is explicit — not re-derived
// from the seed at check time — so a shrunk case (smaller word, simpler
// schedule, fewer sessions) serializes to the same compact repro token as a
// freshly generated one and replays bit-identically.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qols/service/recognizer_service.hpp"
#include "qols/stream/symbol_stream.hpp"

namespace qols::fuzz {

/// Word families the generator draws from. The family records *intent*; the
/// property layer classifies the realized word from scratch (wrappers can
/// turn a member into junk and occasionally vice versa).
enum class WordKind : unsigned {
  kMember = 0,     ///< LDisjInstance::make_disjoint
  kIntersecting,   ///< make_with_intersections(t = word_param)
  kMutant,         ///< make_mutant_stream(MutantKind = word_param)
  kMalformed,      ///< word_param random symbols, no grammar at all
  kBoundary,       ///< fixture word_param from kBoundaryWords
};
inline constexpr unsigned kWordKindCount = 5;
const char* word_kind_name(WordKind kind);

/// Tiny fixed words that sit on parser boundaries (empty input, bare
/// prefixes, the shortest member, off-by-one shapes).
const std::vector<std::string>& boundary_words();

/// How the chunked transport slices the word.
enum class ScheduleKind : unsigned {
  kWhole = 0,  ///< one feed_chunk over the entire word
  kFixed,      ///< fixed chunk size (1 + chunk mod word length)
  kRagged,     ///< seeded random sizes in [1, ~97]
};
inline constexpr unsigned kScheduleKindCount = 3;

/// One failure-injection wrapper in the stack. Parameters are raw 64-bit
/// draws, reduced modulo the wrapped stream's length when the stack is
/// built, so they stay meaningful as shrinking changes the word.
struct WrapperOp {
  enum class Kind : unsigned { kTruncate = 0, kCorrupt, kAppend };
  Kind kind = Kind::kTruncate;
  std::uint64_t a = 0;  ///< truncate keep / corrupt position / append length
  std::uint64_t b = 0;  ///< corrupt replacement / append content seed

  bool operator==(const WrapperOp&) const = default;
};
inline constexpr unsigned kWrapperKindCount = 3;
inline constexpr std::size_t kMaxWrappers = 3;

inline constexpr std::uint64_t kNoTruncate = ~std::uint64_t{0};
inline constexpr unsigned kMaxSessions = 4;
/// Sentinel for snapshot_cut: the case skips the snapshot/resume property.
inline constexpr std::uint64_t kNoSnapshot = ~std::uint64_t{0};
/// Sentinel for wire_split: the case skips the frame-level wire property.
inline constexpr std::uint64_t kNoWire = ~std::uint64_t{0};
/// Sentinel for crash_point: the case skips the crash/recovery property.
inline constexpr std::uint64_t kNoCrash = ~std::uint64_t{0};

/// A fully explicit fuzz case. `seed` still matters at realization time: it
/// drives the instance bits, mutation sites, malformed content, ragged
/// schedule sizes and the per-session recognizer seeds.
struct FuzzCase {
  std::uint64_t seed = 1;
  unsigned k = 2;                        ///< instance scale, [1, 4]
  WordKind word = WordKind::kMember;
  std::uint64_t word_param = 0;          ///< t / MutantKind / length / index
  std::vector<WrapperOp> wrappers;       ///< innermost first, <= kMaxWrappers
  std::uint64_t truncate_len = kNoTruncate;  ///< shrink knob: outermost cut
  ScheduleKind schedule = ScheduleKind::kFixed;
  std::uint64_t chunk = 1;               ///< raw; reduced at expansion
  unsigned sessions = 1;                 ///< [1, kMaxSessions]
  service::RecognizerSpec spec;          ///< kind + parameters; backend empty
  /// Raw snapshot position for P7 (reduced mod word length + 1 at check
  /// time); kNoSnapshot = the case does not exercise snapshot/resume.
  std::uint64_t snapshot_cut = kNoSnapshot;
  /// Raw seed for P8, the frame-level wire differential: drives the ragged
  /// wire-byte split points and selects the corrupt-frame submodes (mod 8).
  /// kNoWire = the case does not exercise the server protocol layer.
  std::uint64_t wire_split = kNoWire;
  /// Raw crash position for P9 (reduced mod word length + 1 at check time):
  /// the word is fed to a DURABLE service up to the cut, the service
  /// checkpoints with persist() and dies, a fresh service recover()s from
  /// the manifest and finishes the word. kNoCrash = skip P9.
  std::uint64_t crash_point = kNoCrash;

  /// Draws a full case from one seed (the generator's distribution: ~80%
  /// classical recognizers, quantum capped at k <= 3, most words small).
  static FuzzCase from_seed(std::uint64_t seed);
};

/// Builds the case's complete stream stack: base word stream, then each
/// wrapper innermost-first, then the truncate_len cut (when set). Two builds
/// of the same case produce streams yielding identical symbol sequences.
std::unique_ptr<stream::SymbolStream> build_stream(const FuzzCase& c);

/// Drains build_stream(c) via next(); the word every recognizer check feeds.
std::vector<stream::Symbol> realize_word(const FuzzCase& c);

/// Expands the chunking schedule into concrete chunk sizes summing to
/// word_len (empty when word_len == 0).
std::vector<std::size_t> expand_schedule(const FuzzCase& c,
                                         std::size_t word_len);

/// Recognizer seed of `session` (0 = the case's primary run). Derived from
/// the case seed so service sessions and their single-stream references use
/// identical seeds.
std::uint64_t recognizer_seed(const FuzzCase& c, unsigned session);

/// One-line human description ("k=2 member rec=classical-block ...").
std::string describe(const FuzzCase& c);

}  // namespace qols::fuzz
