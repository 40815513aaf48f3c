#pragma once
// The durable session table: a crash-safe, append-only manifest journal of
// session lifecycle records, written under the service's spill directory.
//
// The PR 7 snapshot codec can freeze any recognizer to bytes, but the
// session table itself — which ids are open, which are spilled, which shard
// owns them — lived only in memory, so a process restart orphaned every
// spill file. This journal is the missing half of the durability contract:
//
//   file    <spill_dir>/qols-manifest.journal
//   header  8 bytes: 'Q' 'O' 'L' 'S' 'M' 'A' 'N' <version=1>
//   record  u32 payload_len | u32 crc32(payload) | payload
//   payload u8 record type, then little-endian fields (util::serde):
//     kOpen    (1): u64 id, u64 seed, u64 shard
//     kEvict   (2): u64 id, u64 spill_bytes
//     kRevive  (3): u64 id
//     kFinish  (4): u64 id
//     kMigrate (5): u64 id, u64 shard — read only; written by older
//                   builds that could migrate a session between shards.
//                   Replay still validates and applies it.
//
// Write-ordering invariant: THE JOURNAL NEVER CLAIMS A SPILL THAT IS NOT
// DURABLE. evict() writes and syncs the spill file before appending kEvict;
// revive appends kRevive before unlinking the spill file. A real crash in
// either window therefore leaves a spill file the journal does not claim —
// recovery reports it as the typed OrphanSpill error, never a wrong verdict.
//
// Sync policy: records are written immediately (one write() per record) and
// fsync'd in batches of Options::sync_every; evict records and compaction
// force a sync (a spilled session must survive power loss, not just process
// death).
//
// Compaction invariant: compact(live) atomically (tmp + fsync + rename +
// dir fsync) replaces the journal with the minimal record sequence whose
// replay equals the live-session view — one kOpen per live session (with its
// shard, id % shard count) plus one kEvict per spilled session.
//
// Recovery (replay) is a pure function of the file. Typed errors:
//   ManifestMissing — no journal file, or a zero-byte file (a crash before
//                     the header became durable left nothing to recover);
//   ManifestTorn    — the file ends mid-header or mid-record (the classic
//                     torn final append);
//   ManifestCorrupt — bad magic/version, CRC mismatch, implausible record
//                     length, or a record that contradicts the replay state
//                     (open of a live id, evict of an unknown id, ...);
//   OrphanSpill     — a qols-session-*.snap file no live evicted session
//                     claims (raised by RecognizerService::recover);
//   SpillMissing    — a live evicted session whose spill file is absent or
//                     has the wrong size (raised by recover as well).

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace qols::service {

/// Base of every durability failure. Derives std::runtime_error: recovery
/// errors are environmental (a damaged directory), not programming errors.
class RecoveryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ManifestMissing : public RecoveryError {
 public:
  using RecoveryError::RecoveryError;
};

class ManifestTorn : public RecoveryError {
 public:
  using RecoveryError::RecoveryError;
};

class ManifestCorrupt : public RecoveryError {
 public:
  using RecoveryError::RecoveryError;
};

class OrphanSpill : public RecoveryError {
 public:
  using RecoveryError::RecoveryError;
};

class SpillMissing : public RecoveryError {
 public:
  using RecoveryError::RecoveryError;
};

/// Thrown by the test-only abort_after() hook to simulate a crash at a
/// journal record boundary. NOT a RecoveryError: production code never
/// throws or catches it; the kill-point matrix test does both.
class InjectedCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only journal over the manifest file. Single-writer (the service's
/// acceptor thread); replay() is static and touches only the file.
class SessionTable {
 public:
  enum class RecordType : std::uint8_t {
    kOpen = 1,
    kEvict = 2,
    kRevive = 3,
    kFinish = 4,
    kMigrate = 5,  ///< read only; written by older builds
  };

  struct Options {
    /// Directory holding the journal (and the spill files it describes).
    std::string dir;
    /// fsync after this many unsynced records; 0 = sync every record.
    /// Evict records and compaction always force a sync.
    std::uint64_t sync_every = 32;
  };

  /// One live session as the journal describes it.
  struct LiveSession {
    std::uint64_t seed = 0;
    std::uint64_t shard = 0;
    bool evicted = false;
    std::uint64_t spill_bytes = 0;
  };

  /// The replayed manifest: every session opened and not yet finished, in
  /// id order, plus the record count (the kill-point matrix coordinate).
  struct Replay {
    std::map<std::uint64_t, LiveSession> live;
    std::uint64_t records = 0;
  };

  /// Journal file name under the spill directory.
  static const char* file_name() noexcept { return "qols-manifest.journal"; }
  static std::string path_in(const std::string& dir);

  /// Opens (or creates) the journal for appending. A fresh file gets the
  /// header immediately. Throws std::runtime_error on I/O failure. NOTE:
  /// opening an existing journal does NOT validate it — call replay() first
  /// when prior records must be adopted (RecognizerService::recover does).
  explicit SessionTable(Options opts);
  ~SessionTable();

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  /// The injected-crash hook. The service calls this at the START of every
  /// journaled operation — before the spill file write in evict(), before
  /// the append elsewhere — so abort_after(n) leaves exactly n records and
  /// a directory whose spill files match them: a consistent crash image.
  /// No-op unless armed; throws InjectedCrash when the budget runs out and
  /// marks the table dead (all later writes throw too, the way a crashed
  /// process stays crashed).
  void crash_point();

  // One append per call. Appends do NOT consume the crash budget themselves
  // (the caller's crash_point() already did); a dead table refuses them.
  void record_open(std::uint64_t id, std::uint64_t seed, std::uint64_t shard);
  void record_evict(std::uint64_t id, std::uint64_t spill_bytes);
  void record_revive(std::uint64_t id);
  void record_finish(std::uint64_t id);

  /// Forces the journal to disk now.
  void sync();

  /// Atomically rewrites the journal to the minimal equivalent of `live`
  /// (see the compaction invariant above) and syncs it.
  void compact(const std::map<std::uint64_t, LiveSession>& live);

  /// Records appended through this handle (compaction resets the file but
  /// not this counter; it counts operations, the matrix coordinate).
  std::uint64_t records_appended() const noexcept { return appended_; }
  std::uint64_t syncs() const noexcept { return syncs_; }
  std::uint64_t compactions() const noexcept { return compactions_; }

  /// Test-only: arm crash_point() to throw on its (n+1)-th subsequent call
  /// (n = 0 crashes the very next journaled operation).
  void abort_after(std::uint64_t n) noexcept;

  /// Replays <dir>/qols-manifest.journal. Pure read; throws the typed
  /// errors documented above.
  static Replay replay(const std::string& dir);

 private:
  void ensure_alive() const;
  void append(RecordType type, const std::vector<std::uint8_t>& payload);
  void open_fd();

  Options opts_;
  std::string path_;
  int fd_ = -1;
  std::uint64_t appended_ = 0;
  std::uint64_t unsynced_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t compactions_ = 0;
  bool armed_ = false;
  std::uint64_t remaining_ = 0;
  bool dead_ = false;
};

}  // namespace qols::service
