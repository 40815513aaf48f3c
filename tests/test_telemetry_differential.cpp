// Telemetry determinism suite: the hard invariant of the telemetry
// subsystem is that it NEVER touches verdict state. Decisions, accept
// counts, SpaceReports and replay behaviour must be bit-identical whether
// the instruments are enabled or runtime-disabled.
//
// This file proves the two modes against each other inside one process
// (enabled vs runtime-disabled, same seeds). There is one telemetry build;
// the runtime switch is the only way to turn recording off.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "qols/fuzz/fuzz_case.hpp"
#include "qols/fuzz/properties.hpp"
#include "qols/lang/ldisj_instance.hpp"
#include "qols/machine/online_recognizer.hpp"
#include "qols/service/recognizer_service.hpp"
#include "qols/stream/symbol_stream.hpp"
#include "qols/telemetry/registry.hpp"
#include "qols/util/rng.hpp"

namespace {

namespace telemetry = qols::telemetry;
using qols::lang::LDisjInstance;
using qols::service::RecognizerKind;
using qols::service::RecognizerSpec;
using qols::util::Rng;

/// Everything a recognizer run decides; the telemetry-invariant surface.
struct Outcome {
  bool accepted = false;
  bool fully_simulated = false;
  std::uint64_t classical_bits = 0;
  std::uint64_t qubits = 0;
  std::string name;

  auto tie() const {
    return std::tie(accepted, fully_simulated, classical_bits, qubits, name);
  }
  bool operator==(const Outcome& o) const { return tie() == o.tie(); }
};

Outcome run_once(const RecognizerSpec& spec, const std::string& word,
                 std::uint64_t seed) {
  auto rec = spec.make(seed);
  qols::stream::StringStream s(word);
  while (auto sym = s.next()) rec->feed(*sym);
  Outcome out;
  out.accepted = rec->finish();
  out.fully_simulated = rec->fully_simulated();
  const auto space = rec->space_used();
  out.classical_bits = space.classical_bits;
  out.qubits = space.qubits;
  out.name = rec->name();
  return out;
}

/// Runs the same (spec, word, seed) with telemetry enabled and
/// runtime-disabled; the outcomes must be identical.
void expect_mode_invariant(const RecognizerSpec& spec, const std::string& word,
                           std::uint64_t seed) {
  const bool saved = telemetry::enabled();
  telemetry::set_enabled(true);
  const Outcome on = run_once(spec, word, seed);
  telemetry::set_enabled(false);
  const Outcome off = run_once(spec, word, seed);
  telemetry::set_enabled(saved);

  EXPECT_EQ(on.accepted, off.accepted) << on.name << " seed " << seed;
  EXPECT_EQ(on.fully_simulated, off.fully_simulated) << on.name;
  EXPECT_EQ(on.classical_bits, off.classical_bits) << on.name;
  EXPECT_EQ(on.qubits, off.qubits) << on.name;
  EXPECT_EQ(on.name, off.name);
}

TEST(TelemetryDifferential, AllRecognizerKindsBackendsAndPrecisions) {
  // The full spec matrix from ISSUE: 5 recognizer kinds; the quantum kind
  // additionally crossed with both backends and both precisions. Member and
  // intersecting words, several seeds each.
  Rng rng(81);
  std::vector<RecognizerSpec> specs;
  for (auto kind :
       {RecognizerKind::kClassicalBlock, RecognizerKind::kClassicalFull,
        RecognizerKind::kClassicalSampling, RecognizerKind::kClassicalBloom}) {
    RecognizerSpec spec;
    spec.kind = kind;
    specs.push_back(spec);
  }
  for (const char* backend : {"dense", "structured"}) {
    for (bool float_amplitudes : {false, true}) {
      RecognizerSpec spec;
      spec.kind = RecognizerKind::kQuantum;
      spec.backend = backend;
      spec.float_amplitudes = float_amplitudes;
      specs.push_back(spec);
    }
  }

  for (unsigned k : {1u, 2u}) {
    for (std::uint64_t t : {std::uint64_t{0}, std::uint64_t{1}}) {
      auto inst = t == 0 ? LDisjInstance::make_disjoint(k, rng)
                         : LDisjInstance::make_with_intersections(k, t, rng);
      const std::string word = inst.render();
      for (const auto& spec : specs) {
        for (std::uint64_t seed = 100; seed < 103; ++seed) {
          expect_mode_invariant(spec, word, seed);
        }
      }
    }
  }
}

TEST(TelemetryDifferential, ServiceVerdictsAndSpaceReportsInvariant) {
  // The served path exercises every instrumented service hook: open / feed /
  // flush / evict / revive / finish. Verdicts and stats-visible accounting
  // must not depend on the telemetry mode.
  auto serve = [](bool telemetry_on) {
    const bool saved = telemetry::enabled();
    telemetry::set_enabled(telemetry_on);

    Rng rng(82);
    std::vector<std::tuple<bool, std::uint64_t, std::uint64_t>> verdicts;
    std::uint64_t symbols_ingested = 0, evictions = 0, revives = 0,
                  spill_written = 0, spill_read = 0;
    for (unsigned k : {1u, 2u}) {
      qols::service::RecognizerService::Config config;
      config.spec.kind = k == 1 ? RecognizerKind::kQuantum
                                : RecognizerKind::kClassicalBlock;
      if (k == 1) config.spec.backend = "dense";
      qols::service::RecognizerService svc(config);

      auto inst = LDisjInstance::make_disjoint(k, rng);
      const std::string word = inst.render();
      const auto id = svc.open(900 + k);
      std::vector<qols::stream::Symbol> symbols;
      symbols.reserve(word.size());
      for (char c : word) {
        symbols.push_back(*qols::stream::symbol_from_char(c));
      }
      // Exercise the spill path mid-word (snapshot/restore under telemetry).
      svc.feed(id, {symbols.data(), symbols.size() / 2});
      svc.flush();
      svc.evict(id);
      svc.revive(id);
      svc.feed(id,
               {symbols.data() + symbols.size() / 2,
                symbols.size() - symbols.size() / 2});
      svc.flush();
      const auto verdict = svc.finish(id);
      verdicts.emplace_back(verdict.accepted, verdict.space.classical_bits,
                            verdict.space.qubits);
      const auto stats = svc.stats();
      symbols_ingested += stats.symbols_ingested;
      evictions += stats.evictions;
      revives += stats.revives;
      spill_written += stats.spill_bytes_written;
      spill_read += stats.spill_bytes_read;
    }
    telemetry::set_enabled(saved);
    return std::tuple{verdicts, symbols_ingested, evictions, revives,
                      spill_written, spill_read};
  };

  const auto on = serve(true);
  const auto off = serve(false);
  EXPECT_EQ(std::get<0>(on), std::get<0>(off));
  // Stats are functional accounting, NOT telemetry: they must keep counting
  // even with the instruments runtime-disabled.
  EXPECT_EQ(std::get<1>(on), std::get<1>(off)) << "symbols_ingested";
  EXPECT_EQ(std::get<2>(on), std::get<2>(off)) << "evictions";
  EXPECT_GT(std::get<2>(off), 0u);
  EXPECT_EQ(std::get<3>(on), std::get<3>(off)) << "revives";
  EXPECT_EQ(std::get<4>(on), std::get<4>(off)) << "spill_bytes_written";
  EXPECT_GT(std::get<4>(off), 0u);
  EXPECT_EQ(std::get<5>(on), std::get<5>(off)) << "spill_bytes_read";
}

TEST(TelemetryDifferential, FuzzCheckCaseReplayTokensInvariant) {
  // check_case() is the repo's deterministic-replay contract: equal cases
  // give equal CaseResults. The fuzz driver's own counters must not bend
  // that — run a seed sweep in both telemetry modes and compare the full
  // result surface (class, word length, every discrepancy string).
  const bool saved = telemetry::enabled();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto c = qols::fuzz::FuzzCase::from_seed(seed);
    telemetry::set_enabled(true);
    const auto on = qols::fuzz::check_case(c);
    telemetry::set_enabled(false);
    const auto off = qols::fuzz::check_case(c);
    EXPECT_EQ(on.cls, off.cls) << "seed " << seed;
    EXPECT_EQ(on.word_len, off.word_len) << "seed " << seed;
    ASSERT_EQ(on.issues.size(), off.issues.size()) << "seed " << seed;
    for (std::size_t i = 0; i < on.issues.size(); ++i) {
      EXPECT_EQ(on.issues[i].property, off.issues[i].property);
      EXPECT_EQ(on.issues[i].detail, off.issues[i].detail);
    }
    EXPECT_TRUE(on.ok()) << "seed " << seed << " found a real property "
                         << "violation (not a telemetry issue)";
  }
  telemetry::set_enabled(saved);
}

TEST(TelemetryDifferential, SnapshotRestoreIdenticalAcrossModes) {
  // The evict/revive wire format must not grow telemetry state: snapshots
  // taken with instruments on and off are byte-identical, and a snapshot
  // taken in one mode restores correctly in the other.
  Rng rng(83);
  auto inst = LDisjInstance::make_disjoint(2, rng);
  const std::string word = inst.render();
  RecognizerSpec spec;
  spec.kind = RecognizerKind::kQuantum;
  spec.backend = "dense";

  auto snapshot_at_half = [&](bool telemetry_on) {
    const bool saved = telemetry::enabled();
    telemetry::set_enabled(telemetry_on);
    auto rec = spec.make(7);
    qols::stream::StringStream s(word);
    std::size_t fed = 0;
    while (fed < word.size() / 2) {
      rec->feed(*s.next());
      ++fed;
    }
    auto bytes = rec->snapshot();
    telemetry::set_enabled(saved);
    return bytes;
  };

  const auto snap_on = snapshot_at_half(true);
  const auto snap_off = snapshot_at_half(false);
  ASSERT_EQ(snap_on, snap_off);

  // Cross-mode resume: snapshot under ON, restore+finish under OFF and
  // vice versa — all four completions agree.
  auto resume = [&](const std::vector<std::uint8_t>& bytes,
                    bool telemetry_on) {
    const bool saved = telemetry::enabled();
    telemetry::set_enabled(telemetry_on);
    auto rec = spec.make(99);  // restore() must overwrite this seed's state
    rec->restore(bytes);
    qols::stream::StringStream s(word);
    for (std::size_t i = 0; i < word.size() / 2; ++i) s.next();
    while (auto sym = s.next()) rec->feed(*sym);
    const bool accepted = rec->finish();
    telemetry::set_enabled(saved);
    return accepted;
  };
  const bool a = resume(snap_on, true);
  const bool b = resume(snap_on, false);
  const bool c = resume(snap_off, true);
  const bool d = resume(snap_off, false);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
  EXPECT_EQ(c, d);
}

}  // namespace
