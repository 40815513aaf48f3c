// Unit tests: the RecognizerService serving layer — session lifecycle,
// interleaved ingestion, out-of-order finish, error handling, and the
// determinism contract (service verdicts == single-stream run_stream).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "qols/lang/ldisj_instance.hpp"
#include "qols/machine/online_recognizer.hpp"
#include "qols/service/recognizer_service.hpp"
#include "qols/stream/symbol_stream.hpp"
#include "qols/util/stopwatch.hpp"
#include "qols/util/thread_pool.hpp"

namespace {

using qols::lang::LDisjInstance;
using qols::service::RecognizerKind;
using qols::service::RecognizerService;
using qols::service::RecognizerSpec;
using qols::stream::Symbol;

std::vector<Symbol> word_of(const LDisjInstance& inst) {
  std::vector<Symbol> out;
  auto s = inst.stream();
  while (auto sym = s->next()) out.push_back(*sym);
  return out;
}

/// Feeds `word` to the session in chunks of `chunk` symbols.
void feed_all(RecognizerService& svc, RecognizerService::SessionId id,
              const std::vector<Symbol>& word, std::size_t chunk) {
  for (std::size_t i = 0; i < word.size(); i += chunk) {
    const std::size_t n = std::min(chunk, word.size() - i);
    svc.feed(id, std::span<const Symbol>(word.data() + i, n));
  }
}

TEST(RecognizerSpec, MakesEveryKindWithMatchingName) {
  for (const RecognizerKind kind :
       {RecognizerKind::kClassicalBlock, RecognizerKind::kClassicalFull,
        RecognizerKind::kClassicalSampling, RecognizerKind::kClassicalBloom,
        RecognizerKind::kQuantum}) {
    RecognizerSpec spec;
    spec.kind = kind;
    auto rec = spec.make(1);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->name(), qols::service::recognizer_kind_name(kind));
  }
}

TEST(RecognizerSpec, UnknownQuantumBackendThrowsAtServiceConstruction) {
  RecognizerService::Config cfg;
  cfg.spec.kind = RecognizerKind::kQuantum;
  cfg.spec.backend = "no-such-backend";
  EXPECT_THROW(RecognizerService svc(cfg), std::invalid_argument);
}

TEST(RecognizerSpec, ExplicitBackendIdsConstruct) {
  for (const char* backend : {"dense", "structured", "auto", ""}) {
    RecognizerSpec spec;
    spec.kind = RecognizerKind::kQuantum;
    spec.backend = backend;
    EXPECT_NE(spec.make(1), nullptr) << backend;
  }
}

TEST(RecognizerSpec, UnknownKindThrowsInsteadOfUndefinedBehavior) {
  // Future/corrupted enum values must fail loudly in both switch consumers.
  const auto bogus = static_cast<RecognizerKind>(250);
  RecognizerSpec spec;
  spec.kind = bogus;
  EXPECT_THROW(spec.make(1), std::invalid_argument);
  EXPECT_THROW(qols::service::recognizer_kind_name(bogus),
               std::invalid_argument);
  RecognizerService::Config cfg;
  cfg.spec.kind = bogus;
  EXPECT_THROW(RecognizerService svc(cfg), std::invalid_argument);
}

TEST(RecognizerSpec, SamplingBudgetExtremes) {
  qols::util::Rng rng(55);
  const auto member = LDisjInstance::make_disjoint(2, rng);
  const auto word = word_of(member);
  // budget 0: samples nothing, so it can never find an intersection — a
  // member must still be accepted (A1/A2 alone decide).
  // budget 1 and a budget far above m: both must run to completion with
  // exact member acceptance and a monotonically larger space report.
  std::uint64_t last_bits = 0;
  for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{1},
                                     std::uint64_t{1} << 12}) {
    RecognizerSpec spec;
    spec.kind = RecognizerKind::kClassicalSampling;
    spec.sampling_budget = budget;
    auto rec = spec.make(3);
    for (const Symbol s : word) rec->feed(s);
    EXPECT_TRUE(rec->finish()) << "budget=" << budget;
    const auto bits = rec->space_used().classical_bits;
    EXPECT_GT(bits, last_bits) << "budget=" << budget;
    last_bits = bits;
  }
}

TEST(RecognizerSpec, BloomFilterBitExtremes) {
  qols::util::Rng rng(66);
  const auto crossing = LDisjInstance::make_with_intersections(2, 1, rng);
  const auto word = word_of(crossing);
  // 0 bits: the hash range would be empty — rejected at construction, which
  // the service surfaces before any session opens.
  {
    RecognizerSpec spec;
    spec.kind = RecognizerKind::kClassicalBloom;
    spec.bloom_filter_bits = 0;
    EXPECT_THROW(spec.make(1), std::invalid_argument);
    RecognizerService::Config cfg;
    cfg.spec = spec;
    EXPECT_THROW(RecognizerService svc(cfg), std::invalid_argument);
  }
  // 1 bit (everything collides) and a filter far above m: legal geometries.
  // Bloom filters have no false negatives, so the intersecting word is
  // rejected at every size.
  for (const std::uint64_t bits : {std::uint64_t{1}, std::uint64_t{1} << 12}) {
    RecognizerSpec spec;
    spec.kind = RecognizerKind::kClassicalBloom;
    spec.bloom_filter_bits = bits;
    auto rec = spec.make(4);
    for (const Symbol s : word) rec->feed(s);
    EXPECT_FALSE(rec->finish()) << "bits=" << bits;
  }
  // 0 hash functions: the all-hashes-present probe is vacuously true, so
  // the filter claims every index — any word whose y has a 1-bit is
  // rejected (the degenerate "always maybe-present" Bloom filter).
  {
    RecognizerSpec spec;
    spec.kind = RecognizerKind::kClassicalBloom;
    spec.bloom_num_hashes = 0;
    auto rec = spec.make(5);
    for (const Symbol s : word) rec->feed(s);
    EXPECT_FALSE(rec->finish());
  }
}

TEST(RecognizerService, SingleSessionMatchesRunStream) {
  qols::util::Rng rng(11);
  for (const std::uint64_t t : {std::uint64_t{0}, std::uint64_t{1}}) {
    const auto inst = LDisjInstance::make_with_intersections(3, t, rng);
    const auto word = word_of(inst);
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      RecognizerService svc({.spec = {.kind = RecognizerKind::kClassicalBlock}});
      const auto id = svc.open(seed);
      feed_all(svc, id, word, 100);
      const auto verdict = svc.finish(id);

      RecognizerSpec spec;
      auto reference = spec.make(seed);
      auto s = inst.stream();
      const bool expect = qols::machine::run_stream(*s, *reference);
      EXPECT_EQ(verdict.accepted, expect) << "t=" << t << " seed=" << seed;
      EXPECT_TRUE(verdict.fully_simulated);
      EXPECT_EQ(verdict.space.classical_bits,
                reference->space_used().classical_bits);
    }
  }
}

TEST(RecognizerService, InterleavedSessionsKeepStreamsApart) {
  // Many sessions, chunks interleaved round-robin with different chunk
  // sizes per session — verdicts must be exactly the single-stream ones.
  qols::util::Rng rng(22);
  const auto member = LDisjInstance::make_disjoint(3, rng);
  const auto nonmember = LDisjInstance::make_with_intersections(3, 2, rng);
  const auto member_word = word_of(member);
  const auto nonmember_word = word_of(nonmember);

  qols::util::ThreadPool pool(4);  // explicit: exercise real parallelism
  RecognizerService::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  cfg.pool = &pool;
  cfg.flush_threshold = 1000;  // force many pooled flushes
  RecognizerService svc(cfg);

  const std::size_t num_sessions = 12;
  std::vector<RecognizerService::SessionId> ids;
  std::vector<std::size_t> cursors(num_sessions, 0);
  for (std::size_t s = 0; s < num_sessions; ++s) ids.push_back(svc.open(s));
  EXPECT_EQ(svc.open_sessions(), num_sessions);

  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t s = 0; s < num_sessions; ++s) {
      const auto& word = (s % 2 == 0) ? member_word : nonmember_word;
      if (cursors[s] >= word.size()) continue;
      const std::size_t chunk = 37 + 11 * s;  // ragged, per-session sizes
      const std::size_t n = std::min(chunk, word.size() - cursors[s]);
      svc.feed(ids[s], std::span<const Symbol>(word.data() + cursors[s], n));
      cursors[s] += n;
      progressed = true;
    }
  }

  // Finish out of order: odd sessions (non-members) first, then evens.
  for (std::size_t s = 1; s < num_sessions; s += 2) {
    EXPECT_FALSE(svc.finish(ids[s]).accepted) << "session " << s;
  }
  for (std::size_t s = 0; s < num_sessions; s += 2) {
    EXPECT_TRUE(svc.finish(ids[s]).accepted) << "session " << s;
  }
  EXPECT_EQ(svc.open_sessions(), 0u);
  EXPECT_EQ(svc.stats().sessions_finished, num_sessions);
  EXPECT_EQ(svc.stats().symbols_ingested,
            (member_word.size() + nonmember_word.size()) * num_sessions / 2);
}

TEST(RecognizerService, UnknownAndFinishedSessionsThrow) {
  RecognizerService svc({.spec = {.kind = RecognizerKind::kClassicalBlock}});
  const Symbol one = Symbol::kOne;
  EXPECT_THROW(svc.feed(42, std::span<const Symbol>(&one, 1)),
               std::out_of_range);
  EXPECT_THROW(svc.finish(42), std::out_of_range);
  const auto id = svc.open(1);
  svc.finish(id);  // retires the session
  EXPECT_THROW(svc.feed(id, std::span<const Symbol>(&one, 1)),
               std::out_of_range);
  EXPECT_THROW(svc.finish(id), std::out_of_range);
}

TEST(RecognizerService, VerdictsAreDeterministicUnderThePool) {
  // Same seeds, same words, different flush thresholds and pool sizes:
  // identical verdict vectors. Quantum recognizers make this bite — their
  // decisions consume RNG state fixed by the session seed.
  qols::util::Rng rng(33);
  const auto inst = LDisjInstance::make_with_intersections(2, 1, rng);
  const auto word = word_of(inst);
  const std::size_t num_sessions = 8;

  const auto serve = [&](std::size_t pool_threads,
                         std::uint64_t threshold) {
    qols::util::ThreadPool pool(pool_threads);
    RecognizerService::Config cfg;
    cfg.spec.kind = RecognizerKind::kQuantum;
    cfg.pool = &pool;
    cfg.flush_threshold = threshold;
    RecognizerService svc(cfg);
    std::vector<RecognizerService::SessionId> ids;
    for (std::size_t s = 0; s < num_sessions; ++s) {
      ids.push_back(svc.open(100 + s));
    }
    for (std::size_t s = 0; s < num_sessions; ++s) {
      feed_all(svc, ids[s], word, 61 + s);
    }
    std::vector<bool> verdicts;
    for (const auto id : ids) verdicts.push_back(svc.finish(id).accepted);
    return verdicts;
  };

  const auto reference = serve(1, 50);
  EXPECT_EQ(serve(4, 50), reference);
  EXPECT_EQ(serve(4, 1 << 20), reference);  // one big drain at finish
  EXPECT_EQ(serve(2, 0), reference);        // flush on every feed
}

TEST(RecognizerService, EvictThenFeedRevivesTransparently) {
  // Every kind with a snapshot codec: evict mid-word, keep feeding, and the
  // verdict must equal the uninterrupted single-stream run exactly.
  qols::util::Rng rng(70);
  const auto inst = LDisjInstance::make_disjoint(2, rng);
  const auto word = word_of(inst);
  const std::size_t cut = word.size() / 2;
  for (const RecognizerKind kind :
       {RecognizerKind::kClassicalBlock, RecognizerKind::kClassicalFull,
        RecognizerKind::kClassicalSampling, RecognizerKind::kClassicalBloom,
        RecognizerKind::kQuantum}) {
    RecognizerService svc({.spec = {.kind = kind}});
    const auto id = svc.open(17);
    svc.feed(id, std::span<const Symbol>(word.data(), cut));
    svc.evict(id);
    EXPECT_TRUE(svc.evicted(id));
    svc.evict(id);  // double-evict is a no-op
    EXPECT_TRUE(svc.evicted(id));
    svc.feed(id, std::span<const Symbol>(word.data() + cut,
                                         word.size() - cut));
    EXPECT_FALSE(svc.evicted(id));  // the feed revived it
    const auto verdict = svc.finish(id);

    RecognizerSpec spec;
    spec.kind = kind;
    auto reference = spec.make(17);
    reference->feed_chunk(word);
    EXPECT_EQ(verdict.accepted, reference->finish())
        << qols::service::recognizer_kind_name(kind);
    EXPECT_EQ(verdict.space.classical_bits,
              reference->space_used().classical_bits);
    EXPECT_EQ(verdict.space.qubits, reference->space_used().qubits);
  }
}

TEST(RecognizerService, ExplicitReviveAndFinishWhileEvicted) {
  qols::util::Rng rng(71);
  const auto inst = LDisjInstance::make_with_intersections(2, 1, rng);
  const auto word = word_of(inst);
  RecognizerService svc({.spec = {.kind = RecognizerKind::kClassicalBlock}});
  const auto a = svc.open(1);
  const auto b = svc.open(2);
  svc.feed(a, word);
  svc.feed(b, word);
  svc.evict(a);
  svc.evict(b);
  svc.revive(a);
  EXPECT_FALSE(svc.evicted(a));
  svc.revive(a);  // revive when resident is a no-op
  // finish() revives on its own; both paths give the single-stream verdict.
  RecognizerSpec spec;
  auto ref = spec.make(1);
  ref->feed_chunk(word);
  const bool expect = ref->finish();
  EXPECT_EQ(svc.finish(a).accepted, expect);
  EXPECT_EQ(svc.finish(b).accepted, expect);
}

TEST(RecognizerService, EvictUnknownOrFinishedThrows) {
  RecognizerService svc({.spec = {.kind = RecognizerKind::kClassicalBlock}});
  EXPECT_THROW(svc.evict(42), std::out_of_range);
  EXPECT_THROW(svc.revive(42), std::out_of_range);
  EXPECT_THROW(svc.evicted(42), std::out_of_range);
  const auto id = svc.open(1);
  svc.finish(id);
  EXPECT_THROW(svc.evict(id), std::out_of_range);
  EXPECT_THROW(svc.revive(id), std::out_of_range);
}

TEST(RecognizerService, SpillFilesAreCleanedUp) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() /
                   ("qols-test-spill-" + std::to_string(::getpid()));
  qols::util::Rng rng(72);
  const auto inst = LDisjInstance::make_disjoint(1, rng);
  const auto word = word_of(inst);
  {
    RecognizerService::Config cfg;
    cfg.spec.kind = RecognizerKind::kClassicalBlock;
    cfg.spill_dir = dir.string();
    RecognizerService svc(cfg);
    const auto a = svc.open(1);
    const auto b = svc.open(2);
    svc.feed(a, word);
    svc.feed(b, word);
    svc.evict(a);
    svc.evict(b);
    EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                            fs::directory_iterator()), 2);
    // finish() removes the revived session's spill file...
    svc.finish(a);
    EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                            fs::directory_iterator()), 1);
    // ...and the destructor sweeps whatever was still evicted.
  }
  EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                          fs::directory_iterator()), 0);
  fs::remove_all(dir);
}

TEST(RecognizerService, VerdictsSurviveEvictionSchedulesAndPoolSizes) {
  // The determinism contract extended to eviction: any evict/revive schedule
  // on any pool size yields verdict vectors bit-identical to the plain run.
  qols::util::Rng rng(73);
  const auto inst = LDisjInstance::make_with_intersections(2, 1, rng);
  const auto word = word_of(inst);
  const std::size_t num_sessions = 6;

  const auto serve = [&](std::size_t pool_threads, unsigned evict_stride) {
    qols::util::ThreadPool pool(pool_threads);
    RecognizerService::Config cfg;
    cfg.spec.kind = RecognizerKind::kQuantum;
    cfg.pool = &pool;
    cfg.flush_threshold = 128;
    RecognizerService svc(cfg);
    std::vector<RecognizerService::SessionId> ids;
    for (std::size_t s = 0; s < num_sessions; ++s) {
      ids.push_back(svc.open(300 + s));
    }
    std::vector<std::size_t> cursors(num_sessions, 0);
    unsigned lap = 0;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t s = 0; s < num_sessions; ++s) {
        if (cursors[s] >= word.size()) continue;
        const std::size_t n =
            std::min<std::size_t>(53 + 7 * s, word.size() - cursors[s]);
        svc.feed(ids[s],
                 std::span<const Symbol>(word.data() + cursors[s], n));
        cursors[s] += n;
        progressed = true;
      }
      if (evict_stride != 0 && ++lap % evict_stride == 0) {
        for (std::size_t s = 0; s < num_sessions; s += 2) {
          svc.evict(ids[s]);
        }
      }
    }
    std::vector<bool> verdicts;
    for (const auto id : ids) verdicts.push_back(svc.finish(id).accepted);
    return verdicts;
  };

  const auto reference = serve(1, 0);  // no eviction at all
  EXPECT_EQ(serve(1, 1), reference);   // evict half the fleet every lap
  EXPECT_EQ(serve(4, 1), reference);
  EXPECT_EQ(serve(4, 3), reference);
  EXPECT_EQ(serve(2, 2), reference);
}

TEST(RecognizerService, FeedBorrowedMatchesFeed) {
  // The zero-copy path interleaved with the buffering one, mid-session:
  // order within the session must hold and the verdict must be unchanged.
  qols::util::Rng rng(74);
  const auto inst = LDisjInstance::make_disjoint(2, rng);
  const auto word = word_of(inst);
  for (const RecognizerKind kind :
       {RecognizerKind::kClassicalBlock, RecognizerKind::kQuantum}) {
    RecognizerService svc({.spec = {.kind = kind}});
    const auto id = svc.open(21);
    std::size_t done = 0;
    bool borrow = true;
    while (done < word.size()) {
      const std::size_t n = std::min<std::size_t>(97, word.size() - done);
      const std::span<const Symbol> chunk(word.data() + done, n);
      if (borrow) {
        svc.feed_borrowed(id, chunk);
      } else {
        svc.feed(id, chunk);
      }
      borrow = !borrow;
      done += n;
    }
    const auto verdict = svc.finish(id);
    RecognizerSpec spec;
    spec.kind = kind;
    auto reference = spec.make(21);
    reference->feed_chunk(word);
    EXPECT_EQ(verdict.accepted, reference->finish())
        << qols::service::recognizer_kind_name(kind);
  }
}

TEST(RecognizerService, StatsCountFlushesAndThroughput) {
  RecognizerService::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  cfg.flush_threshold = 64;
  RecognizerService svc(cfg);
  qols::util::Rng rng(44);
  const auto inst = LDisjInstance::make_disjoint(2, rng);
  const auto word = word_of(inst);
  const auto id = svc.open(9);
  feed_all(svc, id, word, 64);  // every full chunk crosses the threshold
  EXPECT_GE(svc.stats().flushes, word.size() / 64);
  // Only the sub-threshold tail may remain buffered; finish() drains it.
  EXPECT_EQ(svc.buffered_symbols(), word.size() % 64);
  svc.finish(id);
  EXPECT_EQ(svc.buffered_symbols(), 0u);
  EXPECT_EQ(svc.stats().symbols_ingested, word.size());
  EXPECT_GT(svc.stats().symbols_per_second(), 0.0);
  EXPECT_GT(svc.stats().sessions_per_second(), 0.0);
}

TEST(RecognizerService, OpenAtClaimsCallerChosenIdsAndAutoOpenSkipsThem) {
  RecognizerService svc({.spec = {.kind = RecognizerKind::kClassicalBlock}});
  // Claim the ids the auto-assigner would hand out next; open() must step
  // over every one of them instead of colliding.
  const auto a = svc.open_at(1, 10);
  const auto b = svc.open_at(2, 11);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  const auto c = svc.open(12);
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  EXPECT_EQ(svc.open_sessions(), 3u);
  svc.finish(a);
  svc.finish(b);
  svc.finish(c);
}

TEST(RecognizerService, OpenAtRejectsResidentAndEvictedIdsUntilFinish) {
  RecognizerService svc({.spec = {.kind = RecognizerKind::kClassicalBlock}});
  qols::util::Rng rng(55);
  const auto word = word_of(LDisjInstance::make_disjoint(2, rng));

  svc.open_at(7, 21);
  EXPECT_THROW(svc.open_at(7, 99), std::invalid_argument);  // resident

  svc.feed(7, std::span<const Symbol>(word.data(), word.size() / 2));
  svc.evict(7);
  ASSERT_TRUE(svc.evicted(7));
  // Evicted is still open: the id names live (spilled) session state.
  EXPECT_THROW(svc.open_at(7, 99), std::invalid_argument);

  svc.feed(7, std::span<const Symbol>(word.data() + word.size() / 2,
                                      word.size() - word.size() / 2));
  const auto first = svc.finish(7);

  // The id-reuse rule: reusable the moment finish() retires it. The reused
  // session is a fresh recognizer — same seed, same word, same verdict.
  const auto id = svc.open_at(7, 21);
  EXPECT_EQ(id, 7u);
  svc.feed(7, word);
  EXPECT_EQ(svc.finish(7).accepted, first.accepted);
}

TEST(RecognizerService, StatsSnapshotsAndResetRaceFreeWithFeeds) {
  // stats() and reset_stats() are documented safe against a running feed
  // path (per-field atomics, no torn whole-struct writes). Hammer them from
  // a second thread while sessions churn; TSan (the ThreadSanitizer CI job
  // runs this binary) is the real assertion — the checks below just keep
  // the compiler honest about using the snapshots.
  RecognizerService::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  cfg.flush_threshold = 32;  // force pool flushes mid-feed
  RecognizerService svc(cfg);
  qols::util::Rng rng(66);
  const auto word = word_of(LDisjInstance::make_disjoint(2, rng));

  std::atomic<bool> done{false};
  std::uint64_t observed = 0;
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto snap = svc.stats();
      observed = std::max(observed, snap.symbols_ingested);
      svc.reset_stats();
    }
  });
  for (int round = 0; round < 50; ++round) {
    const auto id = svc.open(static_cast<std::uint64_t>(round));
    feed_all(svc, id, word, 48);
    svc.finish(id);
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();
  // Post-join reads are ordinary: whatever survived the resets is sane.
  EXPECT_LE(svc.stats().symbols_ingested, 50 * word.size());
  EXPECT_LE(observed, 50 * word.size());
}

TEST(RecognizerService, VerdictsExactAcrossPoolSizes) {
  qols::util::Rng rng(82);
  const auto inst = LDisjInstance::make_with_intersections(2, 1, rng);
  const auto word = word_of(inst);
  const std::size_t num_sessions = 5;

  const auto serve = [&](std::size_t pool_threads) {
    qols::util::ThreadPool pool(pool_threads);
    RecognizerService::Config cfg;
    cfg.spec.kind = RecognizerKind::kQuantum;
    cfg.pool = &pool;
    RecognizerService svc(cfg);
    std::vector<RecognizerService::SessionId> ids;
    for (std::size_t s = 0; s < num_sessions; ++s) {
      ids.push_back(svc.open(700 + s));
    }
    std::vector<std::size_t> cursors(num_sessions, 0);
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t s = 0; s < num_sessions; ++s) {
        if (cursors[s] >= word.size()) continue;
        const std::size_t n =
            std::min<std::size_t>(61 + 5 * s, word.size() - cursors[s]);
        svc.feed(ids[s],
                 std::span<const Symbol>(word.data() + cursors[s], n));
        cursors[s] += n;
        progressed = true;
      }
    }
    std::vector<bool> verdicts;
    for (const auto id : ids) verdicts.push_back(svc.finish(id).accepted);
    return verdicts;
  };

  const auto reference = serve(1);
  EXPECT_EQ(serve(2), reference);
  EXPECT_EQ(serve(4), reference);
}

TEST(RecognizerService, RecoveredSessionsCounterExactAcrossPoolSizes) {
  namespace fs = std::filesystem;
  qols::util::Rng rng(83);
  const auto word = word_of(LDisjInstance::make_disjoint(1, rng));
  const std::size_t num_sessions = 5;

  // References from plain runs.
  std::vector<bool> reference;
  for (std::size_t s = 0; s < num_sessions; ++s) {
    RecognizerSpec spec;
    spec.kind = RecognizerKind::kClassicalBlock;
    auto rec = spec.make(900 + s);
    rec->feed_chunk(word);
    reference.push_back(rec->finish());
  }

  // Persist under a 4-shard pool, recover under 1, 2, and 4: a session's
  // shard is its id modulo whatever pool the restarted process has, and the
  // recovered_sessions counter is exact every time.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    const auto dir = fs::temp_directory_path() /
                     ("qols-test-recover-pool-" + std::to_string(::getpid()) +
                      "-" + std::to_string(threads));
    fs::create_directories(dir);
    std::vector<RecognizerService::SessionId> ids;
    {
      qols::util::ThreadPool pool(4);
      RecognizerService::Config cfg;
      cfg.spec.kind = RecognizerKind::kClassicalBlock;
      cfg.pool = &pool;
      cfg.spill_dir = dir.string();
      cfg.durable = true;
      RecognizerService svc(cfg);
      for (std::size_t s = 0; s < num_sessions; ++s) {
        ids.push_back(svc.open(900 + s));
        svc.feed(ids.back(), word);
      }
      EXPECT_EQ(svc.persist(), num_sessions);
    }
    qols::util::ThreadPool pool(threads);
    RecognizerService::Config cfg;
    cfg.spec.kind = RecognizerKind::kClassicalBlock;
    cfg.pool = &pool;
    cfg.spill_dir = dir.string();
    cfg.durable = true;
    RecognizerService svc(cfg);
    const auto report = svc.recover();
    EXPECT_EQ(report.sessions_recovered, num_sessions) << threads;
    EXPECT_EQ(svc.stats().recovered_sessions, num_sessions) << threads;
    EXPECT_TRUE(report.lost.empty());
    for (std::size_t s = 0; s < num_sessions; ++s) {
      EXPECT_EQ(svc.finish(ids[s]).accepted, reference[s]) << threads;
    }
    fs::remove_all(dir);
  }
}

TEST(RecognizerService, EvictAndEvictedRaceFreeWithPoolFlushes) {
  // The PR 7 gap: evict()/evicted() read session state that pool workers
  // mutate mid-flush. The per-shard slot locks close it; TSan (the
  // ThreadSanitizer CI job runs this binary) is the real assertion, the
  // verdict checks below keep the interleaving honest. The side thread only
  // touches sessions the feeder never feeds during the race — feed()'s own
  // evicted-check is acceptor-state, not covered by the slot locks.
  qols::util::ThreadPool pool(4);
  RecognizerService::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  cfg.pool = &pool;
  cfg.flush_threshold = 64;  // pooled drains fire constantly
  RecognizerService svc(cfg);
  qols::util::Rng rng(84);
  const auto word = word_of(LDisjInstance::make_disjoint(2, rng));

  std::vector<RecognizerService::SessionId> fed_ids, parked_ids;
  for (int s = 0; s < 4; ++s) fed_ids.push_back(svc.open(30 + s));
  for (int s = 0; s < 4; ++s) parked_ids.push_back(svc.open(40 + s));
  const std::size_t parked_prefix = word.size() / 2;
  for (const auto id : parked_ids) {
    svc.feed(id, std::span<const Symbol>(word.data(), parked_prefix));
  }
  svc.flush();  // parked sessions' symbols are all consumed before the race

  std::atomic<bool> done{false};
  std::thread side([&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (const auto id : parked_ids) {
        (void)svc.evicted(id);
        svc.evict(id);
        svc.revive(id);
      }
    }
  });
  std::vector<std::size_t> cursors(fed_ids.size(), 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t s = 0; s < fed_ids.size(); ++s) {
      if (cursors[s] >= word.size()) continue;
      const std::size_t n =
          std::min<std::size_t>(96, word.size() - cursors[s]);
      svc.feed(fed_ids[s],
               std::span<const Symbol>(word.data() + cursors[s], n));
      cursors[s] += n;
      progressed = true;
    }
  }
  done.store(true, std::memory_order_relaxed);
  side.join();

  for (const auto id : parked_ids) {
    svc.feed(id, std::span<const Symbol>(word.data() + parked_prefix,
                                         word.size() - parked_prefix));
  }
  RecognizerSpec spec;
  spec.kind = RecognizerKind::kClassicalBlock;
  for (std::size_t s = 0; s < fed_ids.size(); ++s) {
    auto reference = spec.make(30 + s);
    reference->feed_chunk(word);
    EXPECT_EQ(svc.finish(fed_ids[s]).accepted, reference->finish());
  }
  for (std::size_t s = 0; s < parked_ids.size(); ++s) {
    auto reference = spec.make(40 + s);
    reference->feed_chunk(word);
    EXPECT_EQ(svc.finish(parked_ids[s]).accepted, reference->finish());
  }
}

// ---------------------------------------------------------------------------
// finish(span): a batch of sessions finished together, across the pool when
// at least two of them hold a large buffer.

/// Opens the batch-test sessions on `svc` and leaves them in a mix of
/// states: large buffers (above the pool gate), small buffers, an evicted
/// session, a session whose buffer a flush already drained, and one never
/// fed. Returns the ids in the order they were opened.
std::vector<RecognizerService::SessionId> open_batch_mix(
    RecognizerService& svc, const std::vector<Symbol>& big,
    const std::vector<Symbol>& small) {
  std::vector<RecognizerService::SessionId> ids;
  for (std::uint64_t s = 0; s < 7; ++s) ids.push_back(svc.open(500 + s));
  svc.feed(ids[0], big);    // large
  svc.feed(ids[1], small);  // small
  svc.feed(ids[2], big);    // large, then evicted (buffer drained)
  svc.evict(ids[2]);
  svc.feed(ids[4], big);    // drained by the flush below
  svc.flush();
  svc.feed(ids[3], big);    // large
  svc.feed(ids[5], small);  // small
  // ids[6] is never fed: an empty buffer and an empty word.
  return ids;
}

void expect_same_verdict(const RecognizerService::Verdict& got,
                         const RecognizerService::Verdict& want,
                         const std::string& what) {
  EXPECT_EQ(got.accepted, want.accepted) << what;
  EXPECT_EQ(got.fully_simulated, want.fully_simulated) << what;
  EXPECT_EQ(got.space.classical_bits, want.space.classical_bits) << what;
  EXPECT_EQ(got.space.qubits, want.space.qubits) << what;
}

TEST(RecognizerServiceBatch, FinishSpanMatchesOneAtATimeBitForBit) {
  // Quantum sessions consume RNG state fixed by their seed, so any mixing of
  // sessions across threads would show in the verdicts.
  qols::util::Rng rng(90);
  const auto big = word_of(LDisjInstance::make_with_intersections(5, 1, rng));
  const auto small = word_of(LDisjInstance::make_disjoint(3, rng));
  ASSERT_GE(big.size(), std::size_t{1} << 14);  // above the pool gate
  ASSERT_LT(small.size(), std::size_t{1} << 14);
  qols::util::ThreadPool pool(4);
  RecognizerService::Config cfg;
  cfg.spec.kind = RecognizerKind::kQuantum;
  cfg.pool = &pool;
  cfg.flush_threshold = std::uint64_t{1} << 30;  // buffers stay put

  RecognizerService one(cfg);
  const auto one_ids = open_batch_mix(one, big, small);
  std::vector<RecognizerService::Verdict> want;
  for (const auto id : one_ids) want.push_back(one.finish(id));

  RecognizerService batch(cfg);
  auto ids = open_batch_mix(batch, big, small);
  ASSERT_EQ(ids, one_ids);
  ASSERT_TRUE(batch.evicted(ids[2]));
  // Span order differs from open order; verdicts come back in span order.
  std::reverse(ids.begin(), ids.end());
  const auto got = batch.finish(ids);
  ASSERT_EQ(got.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    expect_same_verdict(got[i], want[ids.size() - 1 - i],
                        "session " + std::to_string(ids[i]));
  }
  EXPECT_EQ(batch.open_sessions(), 0u);
  EXPECT_EQ(batch.buffered_symbols(), 0u);
  EXPECT_EQ(batch.stats().sessions_finished, ids.size());
  EXPECT_EQ(batch.stats().revives, 1u);
  EXPECT_TRUE(batch.finish(std::span<const RecognizerService::SessionId>{})
                  .empty());

  // A batch of small sessions (inline path) agrees too.
  RecognizerService inline_svc(cfg);
  const auto a = inline_svc.open(500);
  const auto b = inline_svc.open(501);
  inline_svc.feed(a, big);
  inline_svc.feed(b, small);
  const std::vector<RecognizerService::SessionId> ab{a, b};
  const auto ab_got = inline_svc.finish(ab);
  RecognizerService ref(cfg);
  const auto ra = ref.open(500);
  const auto rb = ref.open(501);
  ref.feed(ra, big);
  ref.feed(rb, small);
  expect_same_verdict(ab_got[0], ref.finish(ra), "inline a");
  expect_same_verdict(ab_got[1], ref.finish(rb), "inline b");
}

TEST(RecognizerServiceBatch, BadOrDuplicateIdThrowsAndTouchesNothing) {
  qols::util::Rng rng(91);
  const auto word = word_of(LDisjInstance::make_disjoint(3, rng));
  RecognizerService::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  cfg.flush_threshold = std::uint64_t{1} << 30;
  RecognizerService svc(cfg);
  const auto a = svc.open(1);
  const auto b = svc.open(2);
  svc.feed(a, word);
  svc.feed(b, word);
  svc.evict(a);
  const auto buffered = svc.buffered_symbols();
  const auto before = svc.stats();

  const std::vector<RecognizerService::SessionId> unknown{a, b, 999};
  EXPECT_THROW(svc.finish(unknown), std::out_of_range);
  const std::vector<RecognizerService::SessionId> duplicate{a, b, a};
  EXPECT_THROW(svc.finish(duplicate), std::invalid_argument);

  EXPECT_EQ(svc.open_sessions(), 2u);
  EXPECT_TRUE(svc.evicted(a));  // not revived
  EXPECT_EQ(svc.buffered_symbols(), buffered);
  EXPECT_EQ(svc.stats().sessions_finished, before.sessions_finished);
  EXPECT_EQ(svc.stats().revives, before.revives);

  RecognizerSpec spec;
  auto reference = spec.make(1);
  reference->feed_chunk(word);
  const bool expect = reference->finish();
  const std::vector<RecognizerService::SessionId> both{a, b};
  const auto verdicts = svc.finish(both);
  EXPECT_EQ(verdicts[0].accepted, expect);
  EXPECT_EQ(svc.open_sessions(), 0u);
}

TEST(RecognizerServiceBatch, BusySecondsCountsAPoolBatchOnce) {
  // Four large sessions finish concurrently; busy time is the batch's wall
  // time, not the sum of the sessions' times.
  qols::util::Rng rng(92);
  const auto word = word_of(LDisjInstance::make_disjoint(5, rng));
  qols::util::ThreadPool pool(4);
  RecognizerService::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  cfg.pool = &pool;
  cfg.flush_threshold = std::uint64_t{1} << 30;
  RecognizerService svc(cfg);
  std::vector<RecognizerService::SessionId> ids;
  for (std::uint64_t s = 0; s < 4; ++s) {
    ids.push_back(svc.open(s));
    svc.feed(ids.back(), word);
  }
  ASSERT_EQ(svc.stats().busy_seconds, 0.0);  // nothing drained yet
  qols::util::Stopwatch wall;
  svc.finish(ids);
  const double elapsed = wall.seconds();
  EXPECT_GT(svc.stats().busy_seconds, 0.0);
  EXPECT_LE(svc.stats().busy_seconds, elapsed);
  EXPECT_EQ(svc.stats().sessions_finished, 4u);
}

TEST(RecognizerServiceBatch, DurableJournalHoldsFinishesInSpanOrder) {
  // Crash the manifest after k of the batch's kFinish records, for every k:
  // exactly the first k ids of the span are retired in the journal.
  namespace fs = std::filesystem;
  qols::util::Rng rng(93);
  const auto word = word_of(LDisjInstance::make_disjoint(3, rng));
  const std::vector<RecognizerService::SessionId> span{7, 3, 5};
  for (std::size_t k = 0; k <= span.size(); ++k) {
    const auto dir = fs::temp_directory_path() /
                     ("qols-test-batch-journal-" + std::to_string(::getpid()) +
                      "-" + std::to_string(k));
    fs::remove_all(dir);
    {
      RecognizerService::Config cfg;
      cfg.spec.kind = RecognizerKind::kClassicalBlock;
      cfg.spill_dir = dir.string();
      cfg.durable = true;
      RecognizerService svc(cfg);
      for (const auto id : span) {
        svc.open_at(id, id);
        svc.feed(id, word);
      }
      svc.persist_abort_after(k);
      if (k < span.size()) {
        EXPECT_THROW(svc.finish(span), qols::service::InjectedCrash) << k;
      } else {
        EXPECT_EQ(svc.finish(span).size(), span.size());
      }
    }
    const auto replay = qols::service::SessionTable::replay(dir.string());
    std::vector<RecognizerService::SessionId> live;
    for (const auto& [id, session] : replay.live) live.push_back(id);
    std::vector<RecognizerService::SessionId> expect(span.begin() + k,
                                                     span.end());
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(live, expect) << "crash after " << k << " kFinish records";
    EXPECT_EQ(replay.records, span.size() + k);  // kOpen x3, then kFinish x k
    fs::remove_all(dir);
  }
}

}  // namespace
