// Differential tests: chunked ingestion vs per-symbol ingestion.
//
// The feed_chunk contract is "bit-identical to feeding each symbol in
// order" — same decisions, same accept counts over a seed sweep, same
// SpaceReports. This suite drives every recognizer family over identical
// (word, seed) pairs through both transports at chunk sizes {1, 7, 64,
// whole-stream}, on well-formed members, intersecting non-members, and the
// truncated/corrupted/appended mutant streams. Any divergence is an API
// contract violation, not a tolerance question, so comparisons are exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qols/core/amplified.hpp"
#include "qols/core/classical_recognizers.hpp"
#include "qols/core/grover_streamer.hpp"
#include "qols/core/quantum_recognizer.hpp"
#include "qols/gates/builder.hpp"
#include "qols/lang/ldisj_instance.hpp"
#include "qols/machine/online_recognizer.hpp"
#include "qols/stream/symbol_stream.hpp"

namespace {

using qols::lang::LDisjInstance;
using qols::lang::make_mutant_stream;
using qols::lang::MutantKind;
using qols::machine::OnlineRecognizer;
using qols::machine::SpaceReport;
using qols::stream::Symbol;
using qols::stream::SymbolStream;

using RecognizerFactory =
    std::function<std::unique_ptr<OnlineRecognizer>(std::uint64_t)>;

/// Every family in the library, with small sub-lower-bound parameters so
/// the sampler/Bloom branches (including found_/hit_ hits) are exercised.
std::vector<std::pair<std::string, RecognizerFactory>> all_factories() {
  return {
      {"block",
       [](std::uint64_t seed) {
         return std::make_unique<qols::core::ClassicalBlockRecognizer>(seed);
       }},
      {"full",
       [](std::uint64_t seed) {
         return std::make_unique<qols::core::ClassicalFullRecognizer>(seed);
       }},
      {"sampling",
       [](std::uint64_t seed) {
         return std::make_unique<qols::core::ClassicalSamplingRecognizer>(seed,
                                                                          8);
       }},
      {"bloom",
       [](std::uint64_t seed) {
         return std::make_unique<qols::core::ClassicalBloomRecognizer>(seed, 64,
                                                                       2);
       }},
      {"quantum",
       [](std::uint64_t seed) {
         return std::make_unique<qols::core::QuantumOnlineRecognizer>(seed);
       }},
      {"amplified-quantum", [](std::uint64_t seed) {
         return std::make_unique<qols::core::AmplifiedRecognizer>(
             [](std::uint64_t s) {
               return std::make_unique<qols::core::QuantumOnlineRecognizer>(s);
             },
             2, seed);
       }}};
}

std::vector<Symbol> drain(SymbolStream& s) {
  std::vector<Symbol> out;
  while (auto sym = s.next()) out.push_back(*sym);
  return out;
}

struct Outcome {
  bool accepted = false;
  bool fully_simulated = true;
  SpaceReport space;
};

Outcome run_per_symbol(const RecognizerFactory& factory, std::uint64_t seed,
                       const std::vector<Symbol>& word) {
  auto rec = factory(seed);
  for (const Symbol s : word) rec->feed(s);
  Outcome out;
  out.accepted = rec->finish();
  out.fully_simulated = rec->fully_simulated();
  out.space = rec->space_used();
  return out;
}

Outcome run_chunked(const RecognizerFactory& factory, std::uint64_t seed,
                    const std::vector<Symbol>& word, std::size_t chunk) {
  auto rec = factory(seed);
  for (std::size_t i = 0; i < word.size(); i += chunk) {
    const std::size_t n = std::min(chunk, word.size() - i);
    rec->feed_chunk(std::span<const Symbol>(word.data() + i, n));
  }
  Outcome out;
  out.accepted = rec->finish();
  out.fully_simulated = rec->fully_simulated();
  out.space = rec->space_used();
  return out;
}

/// The chunk ladder of the PR contract: single symbols, an awkward prime,
/// a power of two, and the whole stream in one span.
std::vector<std::size_t> chunk_sizes(std::size_t word_len) {
  return {1, 7, 64, word_len > 0 ? word_len : 1};
}

void expect_equal_everywhere(const std::string& name,
                             const RecognizerFactory& factory,
                             const std::vector<Symbol>& word,
                             std::uint64_t seed_base, std::uint64_t trials) {
  for (const std::size_t chunk : chunk_sizes(word.size())) {
    std::uint64_t per_symbol_accepts = 0;
    std::uint64_t chunked_accepts = 0;
    for (std::uint64_t t = 0; t < trials; ++t) {
      const Outcome a = run_per_symbol(factory, seed_base + t, word);
      const Outcome b = run_chunked(factory, seed_base + t, word, chunk);
      ASSERT_EQ(a.accepted, b.accepted)
          << name << " chunk=" << chunk << " seed=" << seed_base + t;
      ASSERT_EQ(a.fully_simulated, b.fully_simulated)
          << name << " chunk=" << chunk;
      ASSERT_EQ(a.space.classical_bits, b.space.classical_bits)
          << name << " chunk=" << chunk;
      ASSERT_EQ(a.space.qubits, b.space.qubits) << name << " chunk=" << chunk;
      per_symbol_accepts += a.accepted ? 1 : 0;
      chunked_accepts += b.accepted ? 1 : 0;
    }
    ASSERT_EQ(per_symbol_accepts, chunked_accepts)
        << name << " chunk=" << chunk;
  }
}

TEST(ChunkDifferential, MembersAgreeAcrossAllRecognizersAndChunkSizes) {
  qols::util::Rng rng(101);
  for (const unsigned k : {2u, 3u}) {
    const auto inst = LDisjInstance::make_disjoint(k, rng);
    auto s = inst.stream();
    const std::vector<Symbol> word = drain(*s);
    for (const auto& [name, factory] : all_factories()) {
      expect_equal_everywhere(name + " member k=" + std::to_string(k), factory,
                              word, 5000, 6);
    }
  }
}

TEST(ChunkDifferential, NonMembersAgreeIncludingRandomizedRejects) {
  qols::util::Rng rng(202);
  for (const std::uint64_t t : {std::uint64_t{1}, std::uint64_t{3}}) {
    const auto inst = LDisjInstance::make_with_intersections(3, t, rng);
    auto s = inst.stream();
    const std::vector<Symbol> word = drain(*s);
    for (const auto& [name, factory] : all_factories()) {
      // The quantum machine's decision on non-members is a coin-fixed
      // measurement — equal seeds must still yield equal decisions.
      expect_equal_everywhere(name + " t=" + std::to_string(t), factory, word,
                              6000, 6);
    }
  }
}

TEST(ChunkDifferential, MutantStreamsAgree) {
  qols::util::Rng rng(303);
  const auto inst = LDisjInstance::make_disjoint(2, rng);
  for (const MutantKind kind :
       {MutantKind::kBadPrefix, MutantKind::kTrailingGarbage,
        MutantKind::kXZMismatch, MutantKind::kYDrift, MutantKind::kTruncated,
        MutantKind::kSepInsideBlock}) {
    auto s = make_mutant_stream(inst, kind, rng);
    const std::vector<Symbol> word = drain(*s);
    for (const auto& [name, factory] : all_factories()) {
      expect_equal_everywhere(
          name + " mutant=" + std::to_string(static_cast<int>(kind)), factory,
          word, 7000, 4);
    }
  }
}

TEST(ChunkDifferential, OverlongAndEmptyBlocksAgree) {
  // Hand-built malformed words that stress the bulk position accounting:
  // overlong blocks (the bulk fail path), empty blocks, a bare prefix, and
  // a '0' in the prefix.
  const std::vector<std::string> words = {
      "11#",                  // body missing entirely
      "0#",                   // broken prefix
      "1#00000000#",          // overlong first block (m = 4)
      "1#####",               // empty blocks
      "1#0000#1111#0000#11",  // truncated mid-block
  };
  for (const auto& text : words) {
    qols::stream::StringStream stream(text);
    const std::vector<Symbol> word = drain(stream);
    for (const auto& [name, factory] : all_factories()) {
      expect_equal_everywhere(name + " word=" + text, factory, word, 8000, 3);
    }
  }
}

TEST(ChunkDifferential, RunStreamMatchesManualPerSymbolLoop) {
  // run_stream (chunked transport) against the historical per-symbol loop,
  // over member and mutant streams of every recognizer.
  qols::util::Rng rng(404);
  const auto inst = LDisjInstance::make_with_intersections(3, 1, rng);
  for (const auto& [name, factory] : all_factories()) {
    for (std::uint64_t seed = 900; seed < 906; ++seed) {
      auto via_run_stream = factory(seed);
      auto s = inst.stream();
      const bool chunked = qols::machine::run_stream(*s, *via_run_stream);

      auto manual = factory(seed);
      auto s2 = inst.stream();
      while (auto sym = s2->next()) manual->feed(*sym);
      ASSERT_EQ(chunked, manual->finish()) << name << " seed=" << seed;
    }
  }
}

// Register level: A3's streamer fed per symbol (one one-byte
// apply_on_index_run per 1-bit) and chunked (one apply_on_index_run per run
// of data bits) must leave every amplitude, the gate tally and j equal, on
// every backend. Both sides reach the register through the same backend
// function, so this pins the streamer's run splitting and clipping; the
// backend's run kernel itself is pinned against the dense reference in
// test_backend_structured and test_backend_differential. Chunk cuts at
// random sizes land inside runs, so a run split across chunks, a run
// clipped at the block end m and a run that continues past m all occur.

using qols::core::GroverStreamer;
using qols::quantum::Precision;

struct StreamerConfig {
  std::string backend;
  Precision precision;
};

const StreamerConfig kStreamerConfigs[] = {
    {"dense", Precision::kDouble},
    {"dense", Precision::kSingle},
    {"structured", Precision::kDouble},
};

GroverStreamer make_streamer(const StreamerConfig& c, std::uint64_t seed) {
  GroverStreamer::Options opts;
  opts.backend = c.backend;
  opts.precision = c.precision;
  return GroverStreamer(qols::util::Rng(seed), opts);
}

void expect_same_streamer(const GroverStreamer& a, const GroverStreamer& b,
                          const std::string& what) {
  ASSERT_EQ(a.chosen_j(), b.chosen_j()) << what;
  ASSERT_EQ(a.gates_applied(), b.gates_applied()) << what;
  ASSERT_EQ(a.not_simulated(), b.not_simulated()) << what;
  const auto* ra = a.simulation_backend();
  const auto* rb = b.simulation_backend();
  ASSERT_EQ(ra == nullptr, rb == nullptr) << what;
  if (ra == nullptr) return;
  const std::uint64_t dim = std::uint64_t{1} << ra->num_qubits();
  for (std::uint64_t i = 0; i < dim; ++i) {
    // Bit-identical, not near: the run path performs the same exact swaps
    // and sign flips as the per-bit path.
    const auto x = ra->amplitude(i);
    const auto y = rb->amplitude(i);
    ASSERT_EQ(x.real(), y.real()) << what << " amplitude " << i;
    ASSERT_EQ(x.imag(), y.imag()) << what << " amplitude " << i;
  }
}

/// Feeds `word` per symbol and under each cut plan, and compares registers
/// after the stream and the measured outputs after finish_output().
void expect_streamer_chunking_invariant(const std::string& name,
                                        const std::vector<Symbol>& word,
                                        unsigned k, std::uint64_t seed) {
  const std::uint64_t m = std::uint64_t{1} << (2 * std::max(k, 1u));
  qols::util::Rng cut_rng(seed ^ 0x5eed);
  std::vector<std::vector<std::size_t>> plans;
  // Fixed sizes: {1, 7} only up to k = 5, where feeding at that pace is
  // cheap; 64 and the whole word everywhere.
  for (const std::size_t size : {std::size_t{1}, std::size_t{7},
                                 std::size_t{64}, word.size()}) {
    if (size < 64 && k > 5) continue;
    plans.push_back({std::max<std::size_t>(size, 1)});
  }
  // Random cuts, mostly inside a block's data run.
  std::vector<std::size_t> random_plan;
  for (std::size_t at = 0; at < word.size();) {
    random_plan.push_back(1 + cut_rng.below(2 * m));
    at += random_plan.back();
  }
  plans.push_back(std::move(random_plan));

  for (const StreamerConfig& config : kStreamerConfigs) {
    // The structured backend's run path is a per-index loop (pinned in
    // test_backend_structured); at k = 7 its per-bit hash
    // updates would make it this suite's slowest case.
    if (config.backend == "structured" && k > 6) continue;
    const std::string who = name + " backend=" + config.backend +
                            (config.precision == Precision::kSingle
                                 ? "/float"
                                 : "") +
                            " seed=" + std::to_string(seed);
    GroverStreamer per_symbol = make_streamer(config, seed);
    for (const Symbol s : word) per_symbol.feed(s);
    std::vector<int> outputs;
    for (std::size_t p = 0; p < plans.size(); ++p) {
      const std::vector<std::size_t>& plan = plans[p];
      GroverStreamer chunked = make_streamer(config, seed);
      std::size_t at = 0;
      for (std::size_t c = 0; at < word.size(); ++c) {
        const std::size_t n = std::min(plan[c % plan.size()], word.size() - at);
        chunked.feed_chunk(std::span<const Symbol>(word.data() + at, n));
        at += n;
      }
      const std::string what = who + " plan=" + std::to_string(p);
      expect_same_streamer(per_symbol, chunked, what);
      if (::testing::Test::HasFatalFailure()) return;
      outputs.push_back(chunked.finish_output());
    }
    const int expected = per_symbol.finish_output();
    for (std::size_t p = 0; p < outputs.size(); ++p) {
      ASSERT_EQ(expected, outputs[p]) << who << " plan=" << p;
    }
  }
}

std::vector<Symbol> word_of(const std::string& text) {
  qols::stream::StringStream stream(text);
  return drain(stream);
}

TEST(ChunkDifferential, StreamerRegistersAgreeAcrossChunkings) {
  qols::util::Rng rng(505);
  for (unsigned k = 1; k <= 7; ++k) {
    const std::string at = " k=" + std::to_string(k);
    if (k < 7) {  // one ~5M-symbol word is enough at k = 7
      auto s = LDisjInstance::make_disjoint(k, rng).stream();
      expect_streamer_chunking_invariant("member" + at, drain(*s), k,
                                         1000 + k);
    }
    if (::testing::Test::HasFatalFailure()) return;
    {
      auto s = LDisjInstance::make_with_intersections(k, 1, rng).stream();
      expect_streamer_chunking_invariant("intersecting" + at, drain(*s), k,
                                         2000 + k);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ChunkDifferential, StreamerRegistersAgreeOnMutantsAndOverlongBlocks) {
  qols::util::Rng rng(606);
  for (const unsigned k : {2u, 3u}) {
    const auto inst = LDisjInstance::make_with_intersections(k, 1, rng);
    for (const MutantKind kind :
         {MutantKind::kBadPrefix, MutantKind::kTrailingGarbage,
          MutantKind::kXZMismatch, MutantKind::kYDrift, MutantKind::kTruncated,
          MutantKind::kSepInsideBlock}) {
      auto s = make_mutant_stream(inst, kind, rng);
      expect_streamer_chunking_invariant(
          "mutant=" + std::to_string(static_cast<int>(kind)) +
              " k=" + std::to_string(k),
          drain(*s), k, 3000 + k);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // Overlong blocks (m = 4 at k = 1) whose 1-bits cross the end of the
  // block, in the x-, y- and z-block of the Grover phase and of step 4
  // (which repetition is step 4 depends on the seed's j), plus a long
  // all-ones tail.
  const std::vector<std::string> words = {
      "1#11111#",          "1#0110#11111#",
      "1#0110#0011#1101#", "1#1111#1111#1111#",
      "1#1010#0101#1010#1010#0101#111111111#",
      "11#" + std::string(40, '1') + "#"};
  for (const std::string& text : words) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const unsigned k = text[1] == '1' ? 2 : 1;
      expect_streamer_chunking_invariant("word=" + text, word_of(text), k,
                                         4000 + seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ChunkDifferential, GateTapeAgreesAcrossChunkings) {
  // Gate-level mode lowers each 1-bit of a run to {H, T, CNOT} in index
  // order, so a chunked feed must write the per-symbol tape byte for byte,
  // with or without a simulated register next to it.
  qols::util::Rng rng(707);
  std::vector<std::string> words = {
      LDisjInstance::make_disjoint(1, rng).render(),
      LDisjInstance::make_with_intersections(2, 1, rng).render(),
      "1#0110#11111#0110#", "1#1010#0101#1010#1010#0101#111111111#"};
  for (const std::string& text : words) {
    const std::vector<Symbol> word = word_of(text);
    for (const bool simulate : {false, true}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const auto run = [&](std::size_t chunk) {
          auto sink = std::make_unique<qols::gates::TapeWriterSink>();
          GroverStreamer::Options opts;
          opts.simulate = simulate;
          opts.backend = "dense";
          opts.gate_sink = sink.get();
          auto a3 = std::make_unique<GroverStreamer>(qols::util::Rng(seed),
                                                     opts);
          for (std::size_t at = 0; at < word.size(); at += chunk) {
            a3->feed_chunk(std::span<const Symbol>(word).subspan(
                at, std::min(chunk, word.size() - at)));
          }
          return std::make_pair(std::move(sink), std::move(a3));
        };
        const auto per_symbol = run(1);
        for (const std::size_t chunk : {std::size_t{3}, word.size()}) {
          const auto chunked = run(chunk);
          const std::string what = text + " simulate=" +
                                   std::to_string(simulate) + " seed=" +
                                   std::to_string(seed) + " chunk=" +
                                   std::to_string(chunk);
          ASSERT_EQ(chunked.first->tape(), per_symbol.first->tape()) << what;
          ASSERT_EQ(chunked.second->gates_emitted(),
                    per_symbol.second->gates_emitted())
              << what;
          expect_same_streamer(*per_symbol.second, *chunked.second, what);
        }
      }
    }
  }
}

}  // namespace
