#pragma once
// The oracle + metamorphic property layer: what it means for one FuzzCase to
// "pass". One check_case() call asserts every cross-layer invariant the
// repo's four ingestion/serving layers promise, restricted to what each
// machine actually guarantees per run:
//
//   P1 stream-transport : draining the wrapper stack via next() and via
//                         next_chunk() yields the same symbol sequence.
//   P2 chunk-invariance : feeding the word per symbol and via the case's
//                         chunk schedule gives identical decision,
//                         fully_simulated flag and SpaceReport.
//   P3 exact oracle     : the realized word is classified by an offline
//                         reference parser; deterministic guarantees
//                         (members accepted by block/full/sampling and the
//                         simulated quantum machine; shape violations
//                         rejected by everyone; well-formed intersecting
//                         words rejected by block/full/bloom) must hold.
//                         Consistency violations are only caught w.h.p., so
//                         they carry no per-run assertion.
//   P4 backend equality : quantum cases re-run on the dense AND structured
//                         backends with the same seed; decisions and
//                         simulation status must match exactly.
//   P5 service identity : the word served through RecognizerService —
//                         interleaved with sessions-1 sibling sessions on
//                         ragged per-session chunks — must produce verdicts
//                         bit-identical to each session's single-stream run.
//   P6 precision        : quantum cases re-run with double AND float
//                         amplitudes on the same seed; decision, simulation
//                         status and SpaceReport must match exactly (the
//                         float mode's headline guarantee — amplitudes may
//                         round, verdicts may not).
//   P7 snapshot-resume  : the word is fed up to a seeded cut, the recognizer
//                         is frozen with snapshot(), restored into a FRESH
//                         instance built from a different seed, and fed the
//                         rest; the outcome must equal the straight run bit
//                         for bit (proving restore() overwrites every bit of
//                         state, construction seed included — the contract
//                         RecognizerService::evict/revive rides on).
//                         UnsupportedSnapshot is an honest refusal only for
//                         gate-level quantum modes, which the fuzzer never
//                         generates, so here it is a failure.
//   P8 wire-identity    : the P5 session script is encoded into wire frames
//                         (HELLO / OPEN / ragged interleaved FEEDs / STATS /
//                         FINISH), delivered to the server's FrameDecoder +
//                         SessionBroker at fuzzer-chosen ragged byte splits,
//                         and every verdict must equal the session's direct
//                         single-stream run bit for bit. Two corrupt
//                         submodes smash a length prefix or a FEED symbol
//                         byte and demand a typed kMalformedFrame error and
//                         a closed connection — never a crash.
//   P9 crash-recovery   : the word is fed to a DURABLE RecognizerService up
//                         to a seeded cut, the service checkpoints with
//                         persist() and is destroyed — the crash — and a
//                         fresh service recover()s the session from the
//                         manifest + spill in the same directory, feeds the
//                         rest and finishes. The interrupted run's verdict
//                         must equal the straight-through single-stream run
//                         bit for bit (the restart-resume contract the
//                         durable session table promises).

#include <cstddef>
#include <string>
#include <vector>

#include "qols/fuzz/fuzz_case.hpp"
#include "qols/stream/symbol_stream.hpp"

namespace qols::fuzz {

/// Exact classification of an arbitrary word over {0,1,#} against L_DISJ's
/// grammar, mirroring StructureValidator (A1) for shape and the block
/// equalities/disjointness for the rest.
enum class WordClass : unsigned {
  kShapeViolation = 0,  ///< condition (i) broken — A1 rejects with certainty
  kInconsistent,        ///< shape OK, but some block differs from x(1)/y(1)
  kIntersecting,        ///< shape + consistency OK, x and y intersect
  kMember,              ///< in L_DISJ
};
inline constexpr unsigned kWordClassCount = 4;
const char* word_class_name(WordClass cls);

/// Offline reference classifier. O(|w|) time, exact; ground truth for the
/// oracle properties (classify_word(w) == kMember iff is_member_reference).
WordClass classify_word(const std::vector<stream::Symbol>& w);

/// One property violation found while checking a case.
struct Discrepancy {
  std::string property;  ///< "P1-stream-transport", "P3-oracle", ...
  std::string detail;    ///< human-readable mismatch description
};

struct CaseResult {
  WordClass cls = WordClass::kShapeViolation;
  std::size_t word_len = 0;
  std::vector<Discrepancy> issues;

  bool ok() const noexcept { return issues.empty(); }
};

/// Runs every applicable property for the case. Deterministic: two calls on
/// equal cases return identical results (the replay guarantee).
CaseResult check_case(const FuzzCase& c);

}  // namespace qols::fuzz
