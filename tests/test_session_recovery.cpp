// Crash/restart harness for the durable session table (PR 10).
//
// The kill-point matrix is the heart: one scripted session workload runs
// against a durable RecognizerService with the injected-crash budget armed
// at every value n = 0, 1, 2, ... until the script completes uninterrupted.
// A tiny simulator mirrors the service's crash-point ordering (documented
// in session_table.hpp / recognizer_service.cpp) to predict, for each n,
// exactly which sessions must be recovered — evicted, with exactly the
// symbols their last spill captured — and which were resident at the crash
// and must be reported lost. Every recovered session is then fed its unfed
// suffix and finished; verdict AND SpaceReport must equal an uninterrupted
// run bit for bit.
//
// Around the matrix: the typed-error taxonomy (torn/corrupt/missing
// manifests, orphan and missing spills) and the compaction invariant.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "qols/lang/ldisj_instance.hpp"
#include "qols/service/recognizer_service.hpp"
#include "qols/service/session_table.hpp"
#include "qols/stream/symbol_stream.hpp"
#include "qols/util/crc32.hpp"
#include "qols/util/rng.hpp"
#include "qols/util/serde.hpp"
#include "qols/util/thread_pool.hpp"

namespace {

namespace fs = std::filesystem;

using qols::lang::LDisjInstance;
using qols::service::InjectedCrash;
using qols::service::ManifestCorrupt;
using qols::service::ManifestMissing;
using qols::service::ManifestTorn;
using qols::service::OrphanSpill;
using qols::service::RecognizerKind;
using qols::service::RecognizerService;
using qols::service::SessionTable;
using qols::service::SpillMissing;
using qols::stream::Symbol;

fs::path unique_dir(const std::string& tag) {
  static int counter = 0;
  const auto dir = fs::temp_directory_path() /
                   ("qols-recovery-" + tag + "-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(counter++));
  fs::create_directories(dir);
  return dir;
}

std::vector<Symbol> word_of(const LDisjInstance& inst) {
  std::vector<Symbol> out;
  auto s = inst.stream();
  while (auto sym = s->next()) out.push_back(*sym);
  return out;
}

RecognizerService::Config durable_config(const fs::path& dir,
                                         qols::util::ThreadPool* pool) {
  RecognizerService::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  cfg.spill_dir = dir.string();
  cfg.durable = true;
  cfg.pool = pool;
  return cfg;
}

/// Appends a kMigrate record to the journal in `dir`, framed by hand as
/// u32 len | u32 crc32 | payload (little-endian). The service no longer
/// writes this record type, but older builds did, and replay must still
/// accept their manifests.
void append_migrate_record(const fs::path& dir, std::uint64_t id,
                           std::uint64_t shard) {
  qols::util::serde::ByteWriter payload;
  payload.u8(static_cast<std::uint8_t>(SessionTable::RecordType::kMigrate));
  payload.u64(id);
  payload.u64(shard);
  qols::util::serde::ByteWriter framed;
  framed.u32(static_cast<std::uint32_t>(payload.size()));
  framed.u32(qols::util::crc32(payload.bytes()));
  std::ofstream out(SessionTable::path_in(dir.string()),
                    std::ios::binary | std::ios::app);
  for (const auto* bytes : {&framed.bytes(), &payload.bytes()}) {
    out.write(reinterpret_cast<const char*>(bytes->data()),
              static_cast<std::streamsize>(bytes->size()));
  }
  ASSERT_TRUE(out.good());
}

void expect_verdict_eq(const RecognizerService::Verdict& got,
                       const RecognizerService::Verdict& want,
                       const std::string& what) {
  EXPECT_EQ(got.accepted, want.accepted) << what;
  EXPECT_EQ(got.fully_simulated, want.fully_simulated) << what;
  EXPECT_EQ(got.space.classical_bits, want.space.classical_bits) << what;
  EXPECT_EQ(got.space.qubits, want.space.qubits) << what;
}

// ---------------------------------------------------------------------------
// The kill-point matrix.
// ---------------------------------------------------------------------------

enum class OpKind : std::uint8_t {
  kOpen,     ///< open the slot's session (seed = slot seed)
  kFeed,     ///< feed the next `count` symbols of the slot's word
  kEvict,    ///< spill the slot
  kFinish,   ///< finish the slot (collect its verdict)
  kPersist,  ///< checkpoint: evict every resident session + compact
};

struct Op {
  OpKind kind;
  std::size_t slot = 0;
  std::size_t count = 0;  // kFeed
};

/// What the simulator knows about one scripted session.
struct SimSession {
  bool open = false;
  bool evicted = false;
  std::size_t fed = 0;  ///< symbols consumed; == spill content when evicted
};

struct SimResult {
  std::vector<SimSession> slots;
  bool crashed = false;
};

/// Mirrors the service's crash-point ordering exactly: every journaled
/// operation fires crash_point() BEFORE any side effect, and compound
/// operations (finish-of-evicted = revive + finish, persist = evicts +
/// compact) fire one per leg.
SimResult simulate(const std::vector<Op>& ops, std::size_t slot_count,
                   std::uint64_t budget) {
  SimResult r;
  r.slots.resize(slot_count);
  std::uint64_t remaining = budget;
  // True = the crash fires here; the current leg has NOT taken effect.
  const auto cp = [&]() -> bool {
    if (remaining == 0) return true;
    --remaining;
    return false;
  };
  for (const Op& op : ops) {
    SimSession& s = r.slots[op.slot];
    switch (op.kind) {
      case OpKind::kOpen:
        if (cp()) {
          r.crashed = true;
          return r;
        }
        s.open = true;
        break;
      case OpKind::kFeed:
        if (s.evicted) {
          if (cp()) {
            r.crashed = true;
            return r;
          }
          s.evicted = false;
        }
        s.fed += op.count;
        break;
      case OpKind::kEvict:
        if (!s.evicted) {
          if (cp()) {
            r.crashed = true;
            return r;
          }
          s.evicted = true;
        }
        break;
      case OpKind::kFinish:
        if (s.evicted) {
          if (cp()) {
            r.crashed = true;
            return r;
          }
          s.evicted = false;
        }
        if (cp()) {
          r.crashed = true;
          return r;
        }
        s.open = false;
        break;
      case OpKind::kPersist:
        // persist() evicts residents in id order == slot order here.
        for (SimSession& t : r.slots) {
          if (t.open && !t.evicted) {
            if (cp()) {
              r.crashed = true;
              return r;
            }
            t.evicted = true;
          }
        }
        if (cp()) {  // the compaction's own crash point
          r.crashed = true;
          return r;
        }
        break;
    }
  }
  return r;
}

/// Runs the script against the real service. Returns true when it completed
/// without the injected crash firing; collected in-script verdicts land in
/// `verdicts` keyed by slot.
bool run_script(RecognizerService& svc, const std::vector<Op>& ops,
                const std::vector<std::vector<Symbol>>& slot_words,
                const std::vector<std::uint64_t>& slot_seeds,
                std::map<std::size_t, RecognizerService::Verdict>& verdicts) {
  std::vector<std::uint64_t> ids(slot_words.size(), 0);
  std::vector<std::size_t> cursor(slot_words.size(), 0);
  try {
    for (const Op& op : ops) {
      switch (op.kind) {
        case OpKind::kOpen:
          ids[op.slot] = svc.open(slot_seeds[op.slot]);
          break;
        case OpKind::kFeed: {
          const auto& w = slot_words[op.slot];
          const std::size_t n = std::min(op.count, w.size() - cursor[op.slot]);
          svc.feed(ids[op.slot],
                   std::span<const Symbol>(w.data() + cursor[op.slot], n));
          cursor[op.slot] += n;
          break;
        }
        case OpKind::kEvict:
          svc.evict(ids[op.slot]);
          break;
        case OpKind::kFinish:
          verdicts.emplace(op.slot, svc.finish(ids[op.slot]));
          break;
        case OpKind::kPersist:
          svc.persist();
          break;
      }
    }
  } catch (const InjectedCrash&) {
    return false;
  }
  return true;
}

TEST(SessionRecovery, KillPointMatrixRecoversExactVerdicts) {
  constexpr std::size_t kSlots = 3;
  constexpr std::size_t kShards = 4;
  qols::util::ThreadPool pool(kShards);

  qols::util::Rng rng(404);
  const auto member = word_of(LDisjInstance::make_disjoint(1, rng));
  const auto crossing =
      word_of(LDisjInstance::make_with_intersections(1, 1, rng));
  const std::vector<std::vector<Symbol>> slot_words = {member, crossing,
                                                       member};
  const std::vector<std::uint64_t> slot_seeds = {11, 12, 13};

  // Uninterrupted references: one plain service run per slot.
  std::vector<RecognizerService::Verdict> reference;
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    RecognizerService::Config cfg;
    cfg.spec.kind = RecognizerKind::kClassicalBlock;
    cfg.pool = &pool;
    RecognizerService svc(cfg);
    const auto id = svc.open(slot_seeds[slot]);
    svc.feed(id, slot_words[slot]);
    reference.push_back(svc.finish(id));
  }

  // The script: every record type the service writes, both finish paths,
  // revive-by-feed, and a closing persist(). Slot ids are 1, 2, 3 on shards
  // 1, 2, 3 (id % 4).
  const std::size_t cut0 = slot_words[0].size() / 2;
  const std::size_t cut2 = slot_words[2].size() / 3;
  const std::vector<Op> ops = {
      {OpKind::kOpen, 0},
      {OpKind::kOpen, 1},
      {OpKind::kOpen, 2},
      {OpKind::kFeed, 0, cut0},
      {OpKind::kEvict, 0},
      {OpKind::kFeed, 0, slot_words[0].size() - cut0},  // revive + feed
      {OpKind::kFeed, 1, slot_words[1].size()},
      {OpKind::kEvict, 1},
      {OpKind::kFinish, 1},  // finish-of-evicted: revive + finish
      {OpKind::kFeed, 2, cut2},
      {OpKind::kFeed, 2, slot_words[2].size() - cut2},
      {OpKind::kPersist, 0},
  };

  bool completed = false;
  std::uint64_t n = 0;
  for (; !completed && n < 64; ++n) {
    const auto dir = unique_dir("matrix");
    const SimResult sim = simulate(ops, kSlots, n);
    std::map<std::size_t, RecognizerService::Verdict> verdicts;
    {
      RecognizerService svc(durable_config(dir, &pool));
      svc.persist_abort_after(n);
      completed = run_script(svc, ops, slot_words, slot_seeds, verdicts);
      ASSERT_EQ(completed, !sim.crashed) << "crash budget " << n;
    }  // durable dtor leaves the manifest and spills in place

    // Verdicts the script collected before the crash are final — they must
    // already match the uninterrupted run.
    for (const auto& [slot, v] : verdicts) {
      expect_verdict_eq(v, reference[slot],
                        "in-script slot " + std::to_string(slot) +
                            " at budget " + std::to_string(n));
    }

    // What the manifest must yield, from the simulator.
    std::vector<std::uint64_t> want_recovered;
    std::vector<std::uint64_t> want_lost;
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      const SimSession& s = sim.slots[slot];
      if (!s.open) continue;
      (s.evicted ? want_recovered : want_lost).push_back(slot + 1);
    }

    // Restart: a fresh service over the same directory.
    RecognizerService svc(durable_config(dir, &pool));
    ASSERT_TRUE(svc.pending_recovery()) << "budget " << n;
    const auto report = svc.recover();
    EXPECT_EQ(report.sessions_recovered, want_recovered.size())
        << "budget " << n;
    auto lost = report.lost;
    std::sort(lost.begin(), lost.end());
    EXPECT_EQ(lost, want_lost) << "budget " << n;
    EXPECT_EQ(svc.stats().recovered_sessions, want_recovered.size());

    // Recovery compacts immediately: replaying the journal now must yield
    // exactly the adopted sessions, all evicted.
    const auto replayed = SessionTable::replay(dir.string());
    ASSERT_EQ(replayed.live.size(), want_recovered.size()) << "budget " << n;
    for (const auto id : want_recovered) {
      const auto it = replayed.live.find(id);
      ASSERT_NE(it, replayed.live.end()) << "budget " << n;
      EXPECT_TRUE(it->second.evicted);
      EXPECT_EQ(it->second.seed, slot_seeds[id - 1]);
      EXPECT_EQ(it->second.shard, id % kShards);
    }

    // Resume every recovered session: feed its unfed suffix, finish, and
    // demand the uninterrupted verdict — bit for bit, SpaceReport included.
    for (const auto id : want_recovered) {
      const std::size_t slot = id - 1;
      const auto& w = slot_words[slot];
      const std::size_t fed = sim.slots[slot].fed;
      ASSERT_LE(fed, w.size());
      if (fed < w.size()) {
        svc.feed(id, std::span<const Symbol>(w.data() + fed, w.size() - fed));
      }
      expect_verdict_eq(svc.finish(id), reference[slot],
                        "recovered slot " + std::to_string(slot) +
                            " at budget " + std::to_string(n));
    }
    fs::remove_all(dir);
  }
  // The loop must terminate by completing the script, and only after
  // exercising a healthy number of distinct kill points.
  EXPECT_TRUE(completed);
  EXPECT_GE(n, 10u);
}

// ---------------------------------------------------------------------------
// Typed manifest errors (SessionTable::replay directly).
// ---------------------------------------------------------------------------

TEST(SessionTableErrors, MissingJournalFile) {
  const auto dir = unique_dir("missing");
  EXPECT_THROW(SessionTable::replay(dir.string()), ManifestMissing);
  fs::remove_all(dir);
}

TEST(SessionTableErrors, ZeroByteJournalIsMissingNotTorn) {
  // A crash before the header write became durable leaves an empty file:
  // nothing was ever recoverable from it, so it is "missing", not damage.
  const auto dir = unique_dir("zerobyte");
  std::ofstream(SessionTable::path_in(dir.string()), std::ios::binary);
  EXPECT_THROW(SessionTable::replay(dir.string()), ManifestMissing);
  fs::remove_all(dir);
}

TEST(SessionTableErrors, TruncatedHeaderIsTorn) {
  const auto dir = unique_dir("shorthdr");
  {
    std::ofstream out(SessionTable::path_in(dir.string()), std::ios::binary);
    out.write("QOLS", 4);
  }
  EXPECT_THROW(SessionTable::replay(dir.string()), ManifestTorn);
  fs::remove_all(dir);
}

TEST(SessionTableErrors, BadMagicIsCorrupt) {
  const auto dir = unique_dir("badmagic");
  {
    std::ofstream out(SessionTable::path_in(dir.string()), std::ios::binary);
    out.write("NOTQOLS1", 8);
  }
  EXPECT_THROW(SessionTable::replay(dir.string()), ManifestCorrupt);
  fs::remove_all(dir);
}

TEST(SessionTableErrors, TornFinalRecord) {
  const auto dir = unique_dir("torn");
  {
    SessionTable table({dir.string(), 0});
    table.record_open(1, 7, 1);
    table.record_evict(1, 99);
  }
  const auto path = SessionTable::path_in(dir.string());
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - 3);  // the classic torn final append
  EXPECT_THROW(SessionTable::replay(dir.string()), ManifestTorn);
  fs::remove_all(dir);
}

TEST(SessionTableErrors, CrcFlipIsCorrupt) {
  const auto dir = unique_dir("crcflip");
  {
    SessionTable table({dir.string(), 0});
    table.record_open(1, 7, 1);
  }
  const auto path = SessionTable::path_in(dir.string());
  // Flip one byte inside the record payload (past header + 8-byte frame).
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(f.tellg());
  ASSERT_GT(size, 17u);
  f.seekp(17);
  char b = 0;
  f.seekg(17);
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(17);
  f.write(&b, 1);
  f.close();
  EXPECT_THROW(SessionTable::replay(dir.string()), ManifestCorrupt);
  fs::remove_all(dir);
}

TEST(SessionTableErrors, StateMachineViolationsAreCorrupt) {
  {  // revive of a session never opened
    const auto dir = unique_dir("sm-revive");
    {
      SessionTable table({dir.string(), 0});
      table.record_revive(9);
    }
    EXPECT_THROW(SessionTable::replay(dir.string()), ManifestCorrupt);
    fs::remove_all(dir);
  }
  {  // open of an id that is already live
    const auto dir = unique_dir("sm-reopen");
    {
      SessionTable table({dir.string(), 0});
      table.record_open(3, 1, 0);
      table.record_open(3, 2, 0);
    }
    EXPECT_THROW(SessionTable::replay(dir.string()), ManifestCorrupt);
    fs::remove_all(dir);
  }
  {  // evict of an unknown id
    const auto dir = unique_dir("sm-evict");
    {
      SessionTable table({dir.string(), 0});
      table.record_evict(5, 10);
    }
    EXPECT_THROW(SessionTable::replay(dir.string()), ManifestCorrupt);
    fs::remove_all(dir);
  }
  {  // kMigrate (older builds) of an unknown id
    const auto dir = unique_dir("sm-migrate");
    {
      SessionTable table({dir.string(), 0});
      table.record_open(1, 1, 1);
    }
    append_migrate_record(dir, 6, 0);
    EXPECT_THROW(SessionTable::replay(dir.string()), ManifestCorrupt);
    fs::remove_all(dir);
  }
}

TEST(SessionTable, ReplayRoundTripsEveryRecordType) {
  const auto dir = unique_dir("roundtrip");
  {
    SessionTable table({dir.string(), 0});
    table.record_open(1, 11, 1);
    table.record_open(2, 12, 2);
    table.record_open(3, 13, 3);
    table.record_evict(1, 100);
    table.record_revive(1);
    table.record_evict(2, 200);
    append_migrate_record(dir, 2, 0);  // O_APPEND: lands after the evict
    table.record_finish(3);
    EXPECT_EQ(table.records_appended(), 7u);  // the handle wrote 7 of 8
  }
  const auto r = SessionTable::replay(dir.string());
  EXPECT_EQ(r.records, 8u);
  ASSERT_EQ(r.live.size(), 2u);  // 3 finished
  EXPECT_FALSE(r.live.at(1).evicted);
  EXPECT_EQ(r.live.at(1).seed, 11u);
  EXPECT_EQ(r.live.at(1).shard, 1u);
  EXPECT_TRUE(r.live.at(2).evicted);
  EXPECT_EQ(r.live.at(2).spill_bytes, 200u);
  EXPECT_EQ(r.live.at(2).shard, 0u);  // the kMigrate moved it
  fs::remove_all(dir);
}

TEST(SessionTable, CompactionReplacesTheJournalWithTheMinimalEquivalent) {
  const auto dir = unique_dir("compact");
  std::map<std::uint64_t, SessionTable::LiveSession> live;
  live[4] = {40, 1, false, 0};
  live[9] = {90, 2, true, 123};
  {
    SessionTable table({dir.string(), 0});
    // A noisy history that compaction must fold away.
    table.record_open(1, 10, 1);
    table.record_open(4, 40, 0);
    table.record_evict(1, 55);
    table.record_revive(1);
    table.record_finish(1);
    append_migrate_record(dir, 4, 1);
    table.record_open(9, 90, 2);
    table.record_evict(9, 123);
    table.compact(live);
    EXPECT_EQ(table.compactions(), 1u);
    // The handle keeps appending to the compacted file.
    table.record_finish(4);
  }
  const auto r = SessionTable::replay(dir.string());
  // kOpen(4) + kOpen(9) + kEvict(9) from the compaction, + the kFinish.
  EXPECT_EQ(r.records, 4u);
  ASSERT_EQ(r.live.size(), 1u);
  EXPECT_TRUE(r.live.at(9).evicted);
  EXPECT_EQ(r.live.at(9).spill_bytes, 123u);
  fs::remove_all(dir);
}

TEST(SessionTable, FailedCompactionClosesItsTempFileAndKeepsTheJournal) {
  // A full disk mid-compaction: <manifest>.tmp is a symlink to /dev/full, so
  // every write to it fails with ENOSPC. compact() must throw without
  // leaking the temp descriptor, and the old journal must still recover.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const auto dir = unique_dir("compact-full");
  const auto open_fds = [] {
    return std::distance(fs::directory_iterator("/proc/self/fd"),
                         fs::directory_iterator{});
  };
  std::map<std::uint64_t, SessionTable::LiveSession> live;
  live[4] = {40, 1, false, 0};
  {
    SessionTable table({dir.string(), 0});
    table.record_open(4, 40, 1);
    table.record_open(7, 70, 0);
    fs::create_symlink("/dev/full",
                       SessionTable::path_in(dir.string()) + ".tmp");
    const auto before = open_fds();
    EXPECT_THROW(table.compact(live), std::runtime_error);
    EXPECT_EQ(open_fds(), before);
    EXPECT_EQ(table.compactions(), 0u);
  }
  const auto r = SessionTable::replay(dir.string());
  EXPECT_EQ(r.records, 2u);
  ASSERT_EQ(r.live.size(), 2u);
  EXPECT_EQ(r.live.at(7).seed, 70u);
  fs::remove_all(dir);
}

TEST(SessionTable, EvictRecordsForceASync) {
  const auto dir = unique_dir("sync");
  SessionTable table({dir.string(), 1000});  // batching would defer syncs
  table.record_open(1, 1, 0);
  const auto before = table.syncs();
  table.record_evict(1, 10);
  EXPECT_GT(table.syncs(), before);
  fs::remove_all(dir);
}

TEST(SessionTable, DeadTableRefusesAppends) {
  const auto dir = unique_dir("dead");
  SessionTable table({dir.string(), 0});
  table.abort_after(0);
  EXPECT_THROW(table.crash_point(), InjectedCrash);
  // Crashed processes stay crashed: every later write throws too.
  EXPECT_THROW(table.record_open(1, 1, 0), InjectedCrash);
  EXPECT_THROW(table.sync(), InjectedCrash);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Service-level recovery errors (spill files vs the manifest).
// ---------------------------------------------------------------------------

TEST(SessionRecoveryErrors, OrphanSpillRefusesRecovery) {
  qols::util::ThreadPool pool(2);
  const auto dir = unique_dir("orphan");
  qols::util::Rng rng(7);
  const auto word = word_of(LDisjInstance::make_disjoint(1, rng));
  {
    RecognizerService svc(durable_config(dir, &pool));
    const auto id = svc.open(1);
    svc.feed(id, word);
    svc.evict(id);
  }
  // A spill file the journal does not claim — the signature of a crash
  // between the spill write and its journal record.
  std::ofstream(dir / "qols-session-99.snap", std::ios::binary) << "x";
  RecognizerService svc(durable_config(dir, &pool));
  ASSERT_TRUE(svc.pending_recovery());
  EXPECT_THROW(svc.recover(), OrphanSpill);
  fs::remove_all(dir);
}

TEST(SessionRecoveryErrors, MissingSpillRefusesRecovery) {
  qols::util::ThreadPool pool(2);
  const auto dir = unique_dir("nospill");
  qols::util::Rng rng(7);
  const auto word = word_of(LDisjInstance::make_disjoint(1, rng));
  {
    RecognizerService svc(durable_config(dir, &pool));
    const auto id = svc.open(1);
    svc.feed(id, word);
    svc.evict(id);
  }
  fs::remove(dir / "qols-session-1.snap");
  RecognizerService svc(durable_config(dir, &pool));
  EXPECT_THROW(svc.recover(), SpillMissing);
  fs::remove_all(dir);
}

TEST(SessionRecoveryErrors, WrongSizeSpillRefusesRecovery) {
  qols::util::ThreadPool pool(2);
  const auto dir = unique_dir("shortspill");
  qols::util::Rng rng(7);
  const auto word = word_of(LDisjInstance::make_disjoint(1, rng));
  {
    RecognizerService svc(durable_config(dir, &pool));
    const auto id = svc.open(1);
    svc.feed(id, word);
    svc.evict(id);
  }
  const auto spill = dir / "qols-session-1.snap";
  fs::resize_file(spill, fs::file_size(spill) - 1);
  RecognizerService svc(durable_config(dir, &pool));
  EXPECT_THROW(svc.recover(), SpillMissing);
  fs::remove_all(dir);
}

TEST(SessionRecoveryErrors, EmptyManifestRecoversNothing) {
  qols::util::ThreadPool pool(2);
  const auto dir = unique_dir("empty");
  { RecognizerService svc(durable_config(dir, &pool)); }  // header only
  RecognizerService svc(durable_config(dir, &pool));
  ASSERT_TRUE(svc.pending_recovery());
  const auto report = svc.recover();
  EXPECT_EQ(report.sessions_recovered, 0u);
  EXPECT_TRUE(report.lost.empty());
  EXPECT_FALSE(svc.pending_recovery());
  fs::remove_all(dir);
}

TEST(SessionRecoveryErrors, JournaledOpsThrowUntilRecovered) {
  qols::util::ThreadPool pool(2);
  const auto dir = unique_dir("pending");
  { RecognizerService svc(durable_config(dir, &pool)); }
  RecognizerService svc(durable_config(dir, &pool));
  ASSERT_TRUE(svc.pending_recovery());
  // The prior manifest must be adopted (or fail loudly) before any session
  // operation can be journaled — silently starting fresh would leave the
  // old sessions' records to corrupt the replay state machine.
  EXPECT_THROW(svc.open(1), std::logic_error);
  svc.recover();
  EXPECT_NO_THROW(svc.finish(svc.open(1)));
  fs::remove_all(dir);
}

TEST(SessionRecoveryErrors, DurableModeRequiresASpillDir) {
  RecognizerService::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  cfg.durable = true;
  EXPECT_THROW(RecognizerService svc(cfg), std::invalid_argument);
}

TEST(SessionRecovery, ManifestWithAMigrateRecordRecovers) {
  // A directory written by an older build whose journal moved the session
  // off its id's shard: replay still applies the kMigrate, recover() places
  // the session by its id, and the word finishes with the straight-through
  // verdict.
  constexpr std::size_t kShards = 4;
  qols::util::ThreadPool pool(kShards);
  const auto dir = unique_dir("legacy-migrate");
  qols::util::Rng rng(7);
  const auto word =
      word_of(LDisjInstance::make_with_intersections(1, 1, rng));
  const std::size_t cut = word.size() / 2;

  RecognizerService::Verdict reference;
  {
    RecognizerService::Config cfg;
    cfg.spec.kind = RecognizerKind::kClassicalBlock;
    cfg.pool = &pool;
    RecognizerService svc(cfg);
    const auto id = svc.open(21);
    svc.feed(id, word);
    reference = svc.finish(id);
  }

  std::uint64_t id = 0;
  {
    RecognizerService svc(durable_config(dir, &pool));
    id = svc.open(21);
    svc.feed(id, std::span<const Symbol>(word.data(), cut));
    ASSERT_EQ(svc.persist(), 1u);
  }
  append_migrate_record(dir, id, (id + 1) % kShards);
  const auto before = SessionTable::replay(dir.string());
  ASSERT_EQ(before.live.size(), 1u);
  EXPECT_EQ(before.live.at(id).shard, (id + 1) % kShards);

  RecognizerService svc(durable_config(dir, &pool));
  const auto report = svc.recover();
  EXPECT_EQ(report.sessions_recovered, 1u);
  EXPECT_TRUE(report.lost.empty());
  // Recovery compacts to the derived shard: the old pin is gone.
  EXPECT_EQ(SessionTable::replay(dir.string()).live.at(id).shard,
            id % kShards);
  svc.feed(id, std::span<const Symbol>(word.data() + cut, word.size() - cut));
  expect_verdict_eq(svc.finish(id), reference, "legacy kMigrate manifest");
  fs::remove_all(dir);
}

}  // namespace
