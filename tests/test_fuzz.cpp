// Unit tests: the differential fuzzing subsystem — generator determinism,
// repro-token round trips, bit-identical replay, the reference word
// classifier, greedy shrinking on planted discrepancies, and a mini soak.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "qols/fuzz/fuzz_case.hpp"
#include "qols/fuzz/fuzzer.hpp"
#include "qols/fuzz/properties.hpp"
#include "qols/fuzz/repro.hpp"
#include "qols/fuzz/shrink.hpp"
#include "qols/lang/ldisj_instance.hpp"
#include "qols/stream/symbol_stream.hpp"
#include "qols/util/rng.hpp"

namespace {

using namespace qols::fuzz;
using qols::lang::LDisjInstance;
using qols::stream::Symbol;

std::vector<Symbol> to_symbols(const std::string& text) {
  std::vector<Symbol> out;
  for (const char c : text) out.push_back(*qols::stream::symbol_from_char(c));
  return out;
}

TEST(FuzzCaseGen, DeterministicFromSeed) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    const FuzzCase a = FuzzCase::from_seed(seed);
    const FuzzCase b = FuzzCase::from_seed(seed);
    EXPECT_EQ(encode_token(a), encode_token(b));
    EXPECT_EQ(realize_word(a), realize_word(b));
    EXPECT_EQ(expand_schedule(a, realize_word(a).size()),
              expand_schedule(b, realize_word(b).size()));
  }
}

TEST(FuzzCaseGen, DistributionCoversEveryFamilyAndRecognizer) {
  std::set<WordKind> words;
  std::set<qols::service::RecognizerKind> recs;
  std::set<ScheduleKind> schedules;
  std::set<unsigned> sessions;
  std::set<bool> quantum_precisions;
  std::set<bool> snapshot_axis;
  std::set<bool> wire_axis;
  std::set<bool> crash_axis;
  bool saw_wrappers = false;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const FuzzCase c = FuzzCase::from_seed(seed);
    words.insert(c.word);
    recs.insert(c.spec.kind);
    schedules.insert(c.schedule);
    sessions.insert(c.sessions);
    snapshot_axis.insert(c.snapshot_cut != kNoSnapshot);
    wire_axis.insert(c.wire_split != kNoWire);
    crash_axis.insert(c.crash_point != kNoCrash);
    saw_wrappers = saw_wrappers || !c.wrappers.empty();
    EXPECT_GE(c.sessions, 1u);
    EXPECT_LE(c.sessions, kMaxSessions);
    if (c.spec.kind == qols::service::RecognizerKind::kQuantum) {
      quantum_precisions.insert(c.spec.float_amplitudes);
    } else {
      // The precision axis is quantum-only; classical machines have no
      // amplitudes and their specs must stay at the double default.
      EXPECT_FALSE(c.spec.float_amplitudes);
    }
  }
  EXPECT_EQ(words.size(), kWordKindCount);
  EXPECT_EQ(recs.size(), 5u);
  EXPECT_EQ(schedules.size(), kScheduleKindCount);
  EXPECT_EQ(sessions.size(), kMaxSessions);  // every count in [1, 4] drawn
  EXPECT_EQ(quantum_precisions.size(), 2u);  // both double and float drawn
  EXPECT_EQ(snapshot_axis.size(), 2u);  // P7 drawn on roughly half the corpus
  EXPECT_EQ(wire_axis.size(), 2u);  // P8 drawn on roughly half the corpus
  EXPECT_EQ(crash_axis.size(), 2u);  // P9 drawn on roughly half the corpus
  EXPECT_TRUE(saw_wrappers);
}

TEST(FuzzCaseGen, ScheduleCoversTheWordExactly) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const FuzzCase c = FuzzCase::from_seed(seed);
    const std::size_t len = realize_word(c).size();
    const auto sizes = expand_schedule(c, len);
    std::size_t total = 0;
    for (const std::size_t n : sizes) {
      EXPECT_GT(n, 0u);
      total += n;
    }
    EXPECT_EQ(total, len) << "seed=" << seed;
  }
}

TEST(ReproToken, RoundTripsEveryGeneratedCase) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const FuzzCase c = FuzzCase::from_seed(seed);
    const std::string token = encode_token(c);
    const FuzzCase back = decode_token(token);
    EXPECT_EQ(encode_token(back), token) << token;
    EXPECT_EQ(realize_word(back), realize_word(c));
  }
}

TEST(ReproToken, RoundTripsShrunkFields) {
  FuzzCase c = FuzzCase::from_seed(9);
  c.truncate_len = 17;
  c.sessions = 1;
  c.schedule = ScheduleKind::kWhole;
  c.wrappers.clear();
  const FuzzCase back = decode_token(encode_token(c));
  EXPECT_EQ(back.truncate_len, 17u);
  EXPECT_EQ(encode_token(back), encode_token(c));
}

TEST(ReproToken, RejectsMalformedTokens) {
  for (const std::string bad : {
           "",                       // empty
           "qf1-1-2",                // old version: rejected, not defaulted
           // qf2 (the pre-snapshot format) is an old version now, even a
           // well-formed token: replays must state the snapshot axis.
           "qf2-29ac8-1-3-14-0-ffffffffffffffff-0-0-1-4-10-40-2-0",
           // qf3 (pre-wire) likewise: replays must state the wire axis.
           "qf3-29ac8-1-3-14-0-ffffffffffffffff-0-0-1-4-10-40-2-0-"
           "ffffffffffffffff",
           // qf4 (pre-crash) likewise: replays must state the crash axis.
           "qf4-29ac8-1-3-14-0-ffffffffffffffff-0-0-1-4-10-40-2-0-"
           "ffffffffffffffff-ffffffffffffffff",
           // qf5 (with the retired migration field) likewise, even in full.
           "qf5-29ac8-1-3-14-0-ffffffffffffffff-0-0-1-4-10-40-2-0-"
           "ffffffffffffffff-ffffffffffffffff-ffffffffffffffff-"
           "ffffffffffffffff",
           "qf7-1-2",                // unknown future version
           "qf6",                    // no fields at all
           "qf6-zz-1",               // non-hex field
           "qf6-1-2-3",              // far too few fields
           "qf6-1--2",               // empty field
           // k = 0
           "qf6-1-0-0-0-0-ffffffffffffffff-0-1-1-0-10-40-2-0-ffffffffffffffff-ffffffffffffffff-ffffffffffffffff",
           // k past the generator max
           "qf6-1-5-0-0-0-ffffffffffffffff-0-1-1-0-10-40-2-0-ffffffffffffffff-ffffffffffffffff-ffffffffffffffff",
           // bad word kind
           "qf6-1-2-9-0-0-ffffffffffffffff-0-1-1-0-10-40-2-0-ffffffffffffffff-ffffffffffffffff-ffffffffffffffff",
           // float_amplitudes must be 0 or 1
           "qf6-1-2-0-0-0-ffffffffffffffff-0-1-1-4-10-40-2-2-ffffffffffffffff-ffffffffffffffff-ffffffffffffffff",
           // DoS bounds: a gigabyte malformed word, a terabyte sampler, a
           // gigabit Bloom filter — all rejected at decode, never realized.
           "qf6-1-1-3-77359400-0-ffffffffffffffff-0-0-1-0-10-40-2-0-ffffffffffffffff-ffffffffffffffff-ffffffffffffffff",
           "qf6-1-2-0-0-0-ffffffffffffffff-0-1-1-2-10000000000-40-2-0-ffffffffffffffff-ffffffffffffffff-ffffffffffffffff",
           "qf6-1-2-0-0-0-ffffffffffffffff-0-1-1-3-10-40000000-2-0-ffffffffffffffff-ffffffffffffffff-ffffffffffffffff",
       }) {
    EXPECT_THROW(decode_token(bad), std::invalid_argument) << "'" << bad << "'";
  }
  // Trailing fields are rejected too.
  const std::string good = encode_token(FuzzCase::from_seed(3));
  EXPECT_THROW(decode_token(good + "-1"), std::invalid_argument);
}

TEST(ReproToken, ReplayIsBitIdentical) {
  // check_case over the decoded token must reproduce the original result
  // exactly — class, word length and (empty) issue list.
  for (std::uint64_t seed = 50; seed < 80; ++seed) {
    const FuzzCase c = FuzzCase::from_seed(seed);
    const CaseResult first = check_case(c);
    const CaseResult replayed = check_case(decode_token(encode_token(c)));
    EXPECT_EQ(replayed.cls, first.cls) << "seed=" << seed;
    EXPECT_EQ(replayed.word_len, first.word_len);
    EXPECT_EQ(replayed.issues.size(), first.issues.size());
  }
}

TEST(ClassifyWord, AgreesWithConstructionAndReferenceOracle) {
  qols::util::Rng rng(77);
  for (const unsigned k : {1u, 2u, 3u}) {
    const auto member = LDisjInstance::make_disjoint(k, rng);
    EXPECT_EQ(classify_word(to_symbols(member.render())), WordClass::kMember);

    const auto crossing = LDisjInstance::make_with_intersections(k, 1, rng);
    EXPECT_EQ(classify_word(to_symbols(crossing.render())),
              WordClass::kIntersecting);
  }
}

TEST(ClassifyWord, MapsEveryMutantClass) {
  using qols::lang::make_mutant_stream;
  using qols::lang::MutantKind;
  qols::util::Rng rng(88);
  const auto inst = LDisjInstance::make_disjoint(2, rng);
  const auto drain = [](qols::stream::SymbolStream& s) {
    std::vector<Symbol> out;
    while (auto sym = s.next()) out.push_back(*sym);
    return out;
  };
  const auto classify_mutant = [&](MutantKind kind) {
    auto s = make_mutant_stream(inst, kind, rng);
    return classify_word(drain(*s));
  };
  // Shape-level damage: A1 territory.
  EXPECT_EQ(classify_mutant(MutantKind::kBadPrefix),
            WordClass::kShapeViolation);
  EXPECT_EQ(classify_mutant(MutantKind::kTrailingGarbage),
            WordClass::kShapeViolation);
  EXPECT_EQ(classify_mutant(MutantKind::kTruncated),
            WordClass::kShapeViolation);
  EXPECT_EQ(classify_mutant(MutantKind::kSepInsideBlock),
            WordClass::kShapeViolation);
  // Consistency damage: fingerprint (A2) territory.
  EXPECT_EQ(classify_mutant(MutantKind::kXZMismatch),
            WordClass::kInconsistent);
  EXPECT_EQ(classify_mutant(MutantKind::kYDrift), WordClass::kInconsistent);
}

TEST(ClassifyWord, BoundaryFixtures) {
  EXPECT_EQ(classify_word({}), WordClass::kShapeViolation);
  EXPECT_EQ(classify_word(to_symbols("1#")), WordClass::kShapeViolation);
  EXPECT_EQ(classify_word(to_symbols("1#0000#0000#0000#0000#0000#0000#")),
            WordClass::kMember);
  EXPECT_EQ(classify_word(to_symbols("1#0000#0000#0000#0000#0000#0000")),
            WordClass::kShapeViolation);
  EXPECT_EQ(classify_word(to_symbols("1#1111#1111#1111#1111#1111#1111#")),
            WordClass::kIntersecting);
  EXPECT_EQ(classify_word(to_symbols("1#1111#0000#0000#1111#0000#0000#")),
            WordClass::kInconsistent);
}

TEST(Properties, BackendCeilingGapIsNotADiscrepancy) {
  // Regression: a malformed word whose leading 1-run parses as k = 14 is
  // honestly simulated by the structured backend (ceiling 16) and honestly
  // refused by dense (ceiling 10). That selection-policy asymmetry used to
  // be reported as a false P4-backend-equality discrepancy; both machines
  // reject the word, so the case must be clean.
  const FuzzCase c = decode_token(
      "qf6-29ac8-1-3-14-0-ffffffffffffffff-0-0-1-4-10-40-2-0-"
      "ffffffffffffffff-ffffffffffffffff-ffffffffffffffff");
  std::size_t ones = 0;
  const auto word = realize_word(c);
  while (ones < word.size() && word[ones] == Symbol::kOne) ++ones;
  ASSERT_GT(ones, 10u) << "fixture must parse past the dense ceiling";
  ASSERT_EQ(word[ones], Symbol::kSep);
  const CaseResult r = check_case(c);
  EXPECT_TRUE(r.ok()) << r.issues.front().property << ": "
                      << r.issues.front().detail;
}

TEST(Shrink, MinimizesWordLengthOnPlantedLengthFailure) {
  // Plant: "fails whenever the realized word is >= 40 symbols". Shrinking
  // must walk the length down to the boundary without losing the failure.
  FuzzCase big = FuzzCase::from_seed(4);
  big.word = WordKind::kMember;
  big.k = 3;  // ~1.5k symbols
  big.wrappers.clear();
  const auto fails = [](const FuzzCase& c) {
    return realize_word(c).size() >= 40;
  };
  ASSERT_TRUE(fails(big));
  const ShrinkOutcome out = shrink(big, fails, 300);
  EXPECT_TRUE(fails(out.best));
  EXPECT_GE(out.improved, 1u);
  const std::size_t len = realize_word(out.best).size();
  EXPECT_EQ(len, 40u) << "greedy length descent should reach the boundary";
}

TEST(Shrink, ReducesSessionsSchedulesAndWrappers) {
  FuzzCase noisy = FuzzCase::from_seed(6);
  noisy.sessions = 4;
  noisy.schedule = ScheduleKind::kRagged;
  noisy.wrappers = {{WrapperOp::Kind::kCorrupt, 5, 1},
                    {WrapperOp::Kind::kAppend, 3, 9}};
  // Plant: fails whenever at least 2 sessions AND any chunked (non-whole)
  // schedule is used — the minimum is sessions=2, schedule=whole-impossible,
  // so the shrinker must keep a non-whole schedule but drop everything else.
  const auto fails = [](const FuzzCase& c) {
    return c.sessions >= 2 && c.schedule != ScheduleKind::kWhole;
  };
  ASSERT_TRUE(fails(noisy));
  const ShrinkOutcome out = shrink(noisy, fails, 300);
  EXPECT_TRUE(fails(out.best));
  EXPECT_EQ(out.best.sessions, 2u);
  EXPECT_TRUE(out.best.wrappers.empty());
  EXPECT_EQ(out.best.schedule, ScheduleKind::kFixed);
  EXPECT_EQ(out.best.chunk, 0u);  // chunk size 1: the simplest non-whole
}

TEST(Shrink, ReturnsInputUnchangedWhenNothingSimplerFails) {
  const FuzzCase c = FuzzCase::from_seed(11);
  const auto only_this = [token = encode_token(c)](const FuzzCase& cand) {
    return encode_token(cand) == token;
  };
  const ShrinkOutcome out = shrink(c, only_this, 100);
  EXPECT_EQ(encode_token(out.best), encode_token(c));
  EXPECT_EQ(out.improved, 0u);
}

TEST(Fuzzer, BoundedRunIsCleanAndTallied) {
  FuzzOptions opts;
  opts.seed = 7;
  opts.max_cases = 600;
  const FuzzReport report = run_fuzz(opts);
  EXPECT_EQ(report.cases, 600u);
  EXPECT_TRUE(report.clean()) << report.failures.front().property << ": "
                              << report.failures.front().detail << "\n  "
                              << report.failures.front().minimized_token;
  std::uint64_t kinds = 0, classes = 0;
  for (const auto n : report.by_word_kind) kinds += n;
  for (const auto n : report.by_word_class) classes += n;
  EXPECT_EQ(kinds, report.cases);
  EXPECT_EQ(classes, report.cases);
  EXPECT_GT(report.cases_per_second(), 0.0);
}

TEST(Fuzzer, ForcedFloatSoakIsClean) {
  // The CI sanitizer leg's configuration: every quantum case pinned to float
  // amplitudes. P6 still cross-checks each one against the double run, so a
  // clean report certifies precision-invariant verdicts on this corpus.
  FuzzOptions opts;
  opts.seed = 13;
  opts.max_cases = 300;
  opts.force_float = true;
  const FuzzReport report = run_fuzz(opts);
  EXPECT_EQ(report.cases, 300u);
  EXPECT_TRUE(report.clean()) << report.failures.front().property << ": "
                              << report.failures.front().detail << "\n  "
                              << report.failures.front().minimized_token;
}

TEST(Fuzzer, ForcedSnapshotSoakIsClean) {
  // The CI sanitizer leg's snapshot configuration: every case snapshots at
  // its seeded cut, restores into a fresh recognizer and must finish with a
  // bit-identical outcome (P7), not just the generator's ~50% draw.
  FuzzOptions opts;
  opts.seed = 17;
  opts.max_cases = 300;
  opts.force_snapshot = true;
  const FuzzReport report = run_fuzz(opts);
  EXPECT_EQ(report.cases, 300u);
  EXPECT_TRUE(report.clean()) << report.failures.front().property << ": "
                              << report.failures.front().detail << "\n  "
                              << report.failures.front().minimized_token;
}

TEST(Fuzzer, ForcedWireSoakIsClean) {
  // The CI sanitizer leg's wire configuration: every case replays its
  // session script through the server's frame decoder + broker (P8),
  // including the corrupt-frame submodes, not just the generator's ~50%.
  FuzzOptions opts;
  opts.seed = 19;
  opts.max_cases = 300;
  opts.force_wire = true;
  const FuzzReport report = run_fuzz(opts);
  EXPECT_EQ(report.cases, 300u);
  EXPECT_TRUE(report.clean()) << report.failures.front().property << ": "
                              << report.failures.front().detail << "\n  "
                              << report.failures.front().minimized_token;
}

TEST(Fuzzer, ForcedCrashSoakIsClean) {
  // The CI restart leg's configuration: every case feeds a durable service
  // to its seeded cut, persist()s, dies, recover()s and finishes (P9) — not
  // just the generator's ~50% draw. A clean report certifies the interrupted
  // run's verdicts are bit-identical to straight-through runs across the
  // corpus.
  FuzzOptions opts;
  opts.seed = 23;
  opts.max_cases = 150;
  opts.force_crash = true;
  const FuzzReport report = run_fuzz(opts);
  EXPECT_EQ(report.cases, 150u);
  EXPECT_TRUE(report.clean()) << report.failures.front().property << ": "
                              << report.failures.front().detail << "\n  "
                              << report.failures.front().minimized_token;
}

TEST(Fuzzer, RejectsUnboundedRuns) {
  EXPECT_THROW(run_fuzz(FuzzOptions{.seed = 1, .max_cases = 0,
                                    .budget_seconds = 0.0}),
               std::invalid_argument);
}

TEST(Fuzzer, TimeBudgetStopsTheRun) {
  FuzzOptions opts;
  opts.seed = 3;
  opts.budget_seconds = 0.05;
  const FuzzReport report = run_fuzz(opts);
  EXPECT_GT(report.cases, 0u);
  EXPECT_TRUE(report.clean());
  // Wall-clock bounded: one case past the budget at most, and no case takes
  // a second, so a generous ceiling catches a broken budget check.
  EXPECT_LT(report.seconds, 5.0);
}

TEST(Fuzzer, ShrinksAPlantedPropertyViolationEndToEnd) {
  // Drive the real shrink path the way run_fuzz does, with the planted
  // predicate standing in for a discrepancy: minimize, then replay the
  // minimized token and confirm the failure reproduces from the token
  // alone (the full report-and-replay loop).
  FuzzCase c = FuzzCase::from_seed(12);
  c.word = WordKind::kMember;
  c.k = 2;
  const auto fails = [](const FuzzCase& cand) {
    return realize_word(cand).size() >= 10 && cand.sessions >= 1;
  };
  ASSERT_TRUE(fails(c));
  const ShrinkOutcome out = shrink(c, fails, 300);
  const std::string token = encode_token(out.best);
  EXPECT_TRUE(fails(decode_token(token)));
  EXPECT_EQ(realize_word(decode_token(token)).size(), 10u);
}

}  // namespace
