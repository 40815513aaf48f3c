#pragma once
// The serving layer: many interleaved input streams, one recognizer family.
//
// Everything below core/ decides ONE stream per recognizer instance. Real
// deployments (the introduction's "data from large databases" scenario, or
// the multi-stream workloads of Khadiev et al.) interleave many independent
// words arriving chunk by chunk — a load balancer in front of a rack of
// online machines. RecognizerService models exactly that: it owns a
// factory-config (language scale is carried by the words themselves;
// recognizer kind and quantum backend id are fixed per service), hands out
// session handles, ingests chunks in any interleaving, and shards the
// buffered work of ready sessions across the process-wide ThreadPool.
//
// Determinism contract: a session's verdict is a pure function of its seed
// and the symbols fed to it, in order. The pool only decides WHICH WORKER
// advances a session, never the order of that session's symbols, so serving
// is bit-identical to running each stream alone through run_stream.
//
//   RecognizerService svc({.spec = {.kind = RecognizerKind::kClassicalBlock}});
//   auto a = svc.open(1), b = svc.open(2);
//   svc.feed(a, chunk_a0); svc.feed(b, chunk_b0); svc.feed(a, chunk_a1);
//   Verdict va = svc.finish(a);   // sessions finish in any order
//
// The public API is meant to be driven from one thread (the "acceptor");
// parallelism happens inside flush() and finish(span), across sessions.
// flush() drains shards on the pool, one task per shard. finish(span)
// detaches its sessions from the map on the acceptor, then lets any pool
// thread (or the acceptor itself) drain and finish each detached session —
// no shard lock is held, because nothing else can reach a detached session.
// Exception to the one-thread rule: evict(), revive(), evicted(), feed(),
// and stats() may race a flush() draining on the pool — they synchronize on
// per-shard slot locks. Map-shape operations (open/open_at/finish) remain
// acceptor-only.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include <atomic>

#include "qols/machine/online_recognizer.hpp"
#include "qols/service/session_table.hpp"
#include "qols/stream/symbol_stream.hpp"
#include "qols/telemetry/registry.hpp"
#include "qols/util/thread_pool.hpp"

namespace qols::service {

/// The recognizer families the service can serve. One service serves one
/// family — mirroring a deployment where a fleet is provisioned for a
/// specific machine and space budget.
enum class RecognizerKind {
  kClassicalBlock,     ///< Proposition 3.7 (Theta(n^{1/3}) bits)
  kClassicalFull,      ///< full x storage (Theta(n^{2/3}) bits)
  kClassicalSampling,  ///< sub-lower-bound sampler (must fail; E10)
  kClassicalBloom,     ///< sub-lower-bound Bloom filter (must fail; E10)
  kQuantum,            ///< Theorem 3.4 (O(log n) bits + qubits)
};

/// Human-readable kind name ("classical-block", ...), matching the
/// recognizers' own name() strings.
std::string recognizer_kind_name(RecognizerKind kind);

/// Factory-config: everything needed to build one recognizer per session.
struct RecognizerSpec {
  RecognizerKind kind = RecognizerKind::kClassicalBlock;
  /// Quantum backend id ("dense", "structured", "auto"; empty = auto with
  /// QOLS_BACKEND override). Ignored by the classical kinds.
  std::string backend{};
  /// Quantum precision knob: simulate with float amplitudes (the dense
  /// backend's SIMD fast mode). Verdicts, accept counts, and SpaceReports
  /// are precision-invariant (tests/test_precision_differential.cpp and
  /// fuzz property P6 enforce this); ignored by the classical kinds and by
  /// the double-only structured backend.
  bool float_amplitudes = false;
  /// Per-repetition index budget of the sampling recognizer.
  std::uint64_t sampling_budget = 16;
  /// Filter geometry of the Bloom recognizer.
  std::uint64_t bloom_filter_bits = 64;
  unsigned bloom_num_hashes = 2;

  /// Builds a fresh recognizer seeded for one session. Thread-safe (shares
  /// only immutable state). Throws std::invalid_argument on a bad backend.
  std::unique_ptr<machine::OnlineRecognizer> make(std::uint64_t seed) const;
};

class RecognizerService {
 public:
  using SessionId = std::uint64_t;

  /// A finished session's outcome: the decision, whether the machine's
  /// decision procedure actually ran (see OnlineRecognizer::
  /// fully_simulated), and its conceptual space footprint.
  struct Verdict {
    bool accepted = false;
    bool fully_simulated = true;
    machine::SpaceReport space;
  };

  struct Config {
    RecognizerSpec spec;
    /// Buffered symbols *within one shard* that trigger an automatic flush
    /// across the pool. Lower = fresher sessions, higher = better batching.
    /// 0 is legal: every feed() flushes immediately.
    std::uint64_t flush_threshold = std::uint64_t{1} << 18;
    /// Pool to shard session work onto; nullptr = util::ThreadPool::global().
    util::ThreadPool* pool = nullptr;
    /// Directory for evicted-session spill files; empty = a unique directory
    /// under the system temp path, created lazily on first evict() and
    /// removed (best effort) with the service. Durable services (below) keep
    /// their spill directory across restarts instead.
    std::string spill_dir{};
    /// Durable mode: journal every open/evict/revive/finish into the
    /// session manifest (SessionTable) under spill_dir, so persist() +
    /// recover() carry live sessions across a process restart. Requires a
    /// non-empty spill_dir (the directory IS the durable identity; the ctor
    /// throws std::invalid_argument otherwise). The destructor of a durable
    /// service leaves spill files and the manifest in place.
    bool durable = false;
  };

  /// Aggregate throughput counters (monotonic since construction or the
  /// last reset_stats()). This is a VALUE snapshot: stats() materializes it
  /// from the service's internal atomic cells, so a copy taken mid-drain is
  /// torn-free — every field is a plausible point-in-time reading even
  /// while pool workers are accumulating.
  struct Stats {
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_finished = 0;
    std::uint64_t symbols_ingested = 0;
    std::uint64_t flushes = 0;
    /// Wall-clock spent in recognizer work: flush drains, borrowed feeds
    /// and finish batches, each counted once however many threads it used.
    double busy_seconds = 0.0;
    std::uint64_t evictions = 0;
    std::uint64_t revives = 0;
    /// Spill-file bytes written by evict() / read back by revive.
    std::uint64_t spill_bytes_written = 0;
    std::uint64_t spill_bytes_read = 0;
    /// Sessions re-adopted from the manifest by recover().
    std::uint64_t recovered_sessions = 0;

    // NOTE: there is deliberately no reset() here. This struct is a VALUE
    // snapshot — a whole-struct `*this = Stats{}` on anything shared with a
    // running service would be a torn write racing the pool workers. The
    // live accumulators are zeroed with RecognizerService::reset_stats(),
    // which stores each atomic cell individually (TSan-verified concurrent
    // with flush drains); a held copy is reset by plain reassignment.

    double symbols_per_second() const noexcept {
      return busy_seconds > 0.0
                 ? static_cast<double>(symbols_ingested) / busy_seconds
                 : 0.0;
    }
    double sessions_per_second() const noexcept {
      return busy_seconds > 0.0
                 ? static_cast<double>(sessions_finished) / busy_seconds
                 : 0.0;
    }
  };

  explicit RecognizerService(Config config);
  ~RecognizerService();

  RecognizerService(const RecognizerService&) = delete;
  RecognizerService& operator=(const RecognizerService&) = delete;

  /// Opens a session: constructs the recognizer from `seed` and returns its
  /// handle. Auto-assigned ids are monotonic and skip any id currently held
  /// open (e.g. one claimed by open_at), so open() never collides. Each
  /// session is pinned to the shard id % pool-size for its whole life, so
  /// flush work for different shards never touches the same session state.
  SessionId open(std::uint64_t seed);

  /// Opens a session under a caller-chosen id — the network server maps
  /// wire session ids straight onto service ids with no translation table.
  /// Throws std::invalid_argument when `id` is currently open (resident OR
  /// evicted). The id-reuse rule: an id becomes reusable the moment
  /// finish() retires it (its spill file, if any, is removed by then), and
  /// never before. Returns `id`.
  SessionId open_at(SessionId id, std::uint64_t seed);

  /// Buffers a chunk for the session (copied; the caller's span may die).
  /// Triggers a pooled flush when the session's shard crosses the threshold.
  /// Transparently revives an evicted session first. Throws
  /// std::out_of_range on an unknown or finished session.
  void feed(SessionId id, std::span<const stream::Symbol> chunk);

  /// Zero-copy ingestion: drains the session's own buffer (order is
  /// preserved), then feeds `chunk` straight into the recognizer on the
  /// calling thread — nothing is copied into the session buffer, so spans
  /// lent by MappedFileStream::view_chunk reach feed_chunk untouched.
  /// Transparently revives an evicted session. Throws std::out_of_range on
  /// an unknown or finished session.
  void feed_borrowed(SessionId id, std::span<const stream::Symbol> chunk);

  /// Drains the session's remaining buffer, finishes the recognizer, and
  /// retires the session (reviving it first if evicted; its spill file is
  /// removed). Sessions may finish in any order. Throws std::out_of_range
  /// on an unknown or already-finished session. A batch of one.
  Verdict finish(SessionId id);

  /// Finishes a batch of sessions and returns their verdicts in span order,
  /// each bit-identical to finish(id) on its own. Every id is validated
  /// first: an unknown id throws std::out_of_range, a repeated one
  /// std::invalid_argument, and neither touches any session. Evicted
  /// sessions are revived, then all are detached and drained + finished —
  /// across the pool when at least two of them hold a large buffer, else
  /// inline. The journal (kFinish, span order) and Stats are written on the
  /// caller afterwards. A recognizer that throws retires its session
  /// without a verdict; the first such exception is rethrown after the
  /// whole batch's bookkeeping.
  std::vector<Verdict> finish(std::span<const SessionId> ids);

  /// Spills an idle session to disk: drains its buffer, serializes the
  /// recognizer (OnlineRecognizer::snapshot) into a file under the spill
  /// directory, and frees the in-memory recognizer. A later feed()/
  /// feed_borrowed()/finish() restores it bit-identically. Evicting an
  /// already-evicted session is a no-op; an unknown or finished session
  /// throws std::out_of_range; a recognizer that cannot snapshot throws
  /// machine::UnsupportedSnapshot and the session stays resident.
  void evict(SessionId id);

  /// Restores an evicted session into memory (no-op when resident). Throws
  /// std::out_of_range on an unknown or finished session.
  void revive(SessionId id);

  /// True when the session is currently spilled to disk.
  bool evicted(SessionId id);

  /// Feeds every buffered session in parallel across the pool, one task per
  /// shard. Called automatically by feed() at the threshold; call manually
  /// to drain.
  void flush();

  /// What recover() rebuilt from the manifest.
  struct RecoveryReport {
    /// Sessions re-adopted (all evicted; they revive lazily on first feed).
    std::uint64_t sessions_recovered = 0;
    /// Sessions the manifest shows resident at the crash: their state died
    /// with the process (only evict() makes state durable), so they cannot
    /// be resumed. Reported, not silently dropped.
    std::vector<SessionId> lost;
    std::uint64_t records_replayed = 0;
  };

  /// Durable-mode checkpoint: evicts every resident session (spilling its
  /// recognizer, journaling kEvict) and compacts the manifest, leaving a
  /// directory from which a fresh process can recover(). Returns the number
  /// of sessions persisted. Throws std::logic_error when not durable.
  std::size_t persist();

  /// Rebuilds the session table from the manifest in this service's (durable)
  /// spill_dir. Must run before any session operation when the directory
  /// holds a prior manifest — journaled operations throw std::logic_error
  /// until then. Verifies every claimed spill file exists with the recorded
  /// size (else SpillMissing) and that no unclaimed qols-session-*.snap
  /// remains (else OrphanSpill); torn/corrupt manifests raise the
  /// SessionTable typed errors. Never fabricates a verdict: recovered
  /// sessions resume bit-identically or recovery fails loudly.
  RecoveryReport recover();

  /// True when the durable ctor found a prior manifest and recover() has not
  /// run yet.
  bool pending_recovery() const noexcept { return pending_recovery_; }

  /// Test-only (the kill-point matrix): crash the manifest after n more
  /// journaled operations — see SessionTable::abort_after. No-op unless
  /// durable.
  void persist_abort_after(std::uint64_t n) noexcept;

  /// Manifest records appended so far (0 when not durable).
  std::uint64_t manifest_records() const noexcept;

  std::size_t open_sessions() const noexcept { return sessions_.size(); }
  /// True while `id` is open (resident or evicted).
  bool contains(SessionId id) const noexcept { return sessions_.contains(id); }
  /// Total buffered symbols, summed over shards (not maintained globally on
  /// the feed hot path).
  std::uint64_t buffered_symbols() const noexcept;
  /// Torn-free value snapshot of the internal atomic accumulators (safe to
  /// call while a flush is draining on the pool).
  Stats stats() const noexcept;
  /// Zeroes the live accumulators (benchmark warmup discard).
  void reset_stats() noexcept;
  const Config& config() const noexcept { return config_; }

 private:
  struct Session {
    std::unique_ptr<machine::OnlineRecognizer> recognizer;
    std::vector<stream::Symbol> pending;
    bool evicted = false;
    /// Construction seed — recorded so the manifest can be compacted to
    /// kOpen records that rebuild the session faithfully.
    std::uint64_t seed = 0;
    /// Spill-file size while evicted (0 when resident); recover() checks it
    /// against the file on disk.
    std::uint64_t spill_bytes = 0;
  };

  struct Shard {
    /// Sessions with non-empty buffers, in first-buffered order.
    std::vector<SessionId> ready;
    std::uint64_t buffered = 0;
  };

  /// The live accumulators behind stats(), and the only cell for each Stats
  /// fact (the STATS wire frame exports them). Plain relaxed atomics — NOT
  /// telemetry instruments — because Stats is functional accounting the
  /// tests rely on: it must keep counting with telemetry runtime-disabled.
  struct StatCells {
    std::atomic<std::uint64_t> sessions_opened{0};
    std::atomic<std::uint64_t> sessions_finished{0};
    std::atomic<std::uint64_t> symbols_ingested{0};
    std::atomic<std::uint64_t> flushes{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> revives{0};
    std::atomic<std::uint64_t> spill_bytes_written{0};
    std::atomic<std::uint64_t> spill_bytes_read{0};
    std::atomic<std::uint64_t> recovered_sessions{0};
  };

  /// Registry-backed instruments for what Stats does not hold (latency
  /// tails, borrowed-feed calls), resolved once at construction (references
  /// stay valid forever; recording is lock-free and gated by
  /// telemetry::enabled()).
  struct Instruments {
    telemetry::Counter& borrowed_chunks;
    telemetry::LatencyHistogram& flush_ns;
    telemetry::LatencyHistogram& finish_ns;

    Instruments();
  };

  Session& session_or_throw(SessionId id);
  /// The shard that owns a session: a function of its id alone, so no
  /// session ever changes shard and no operation needs two shard locks.
  std::size_t shard_for(SessionId id) const noexcept {
    return id % shards_.size();
  }
  /// Feeds the session's buffered symbols inline and removes it from its
  /// shard's ready list. Preconditions: session is resident AND the caller
  /// holds that session's shard mutex.
  void drain_locked(SessionId id, Session& session);
  void revive_session(SessionId id, Session& session);
  std::string spill_path(SessionId id);
  /// The durable journal, or nullptr outside durable mode. Throws
  /// std::logic_error while a prior manifest awaits recover().
  SessionTable* journal();
  /// sessions_ as the manifest's live-session view (compaction input).
  std::map<SessionId, SessionTable::LiveSession> live_view() const;

  Config config_;
  util::ThreadPool* pool_ = nullptr;
  SessionId next_id_ = 1;
  std::unordered_map<SessionId, Session> sessions_;
  std::vector<Shard> shards_;
  /// Per-shard slot locks. A flush worker owns its shard's mutex for the
  /// whole drain; evict/evicted/revive/feed/drain take the same lock, so
  /// spilling or probing a session mid-flush no longer races the pool (the
  /// documented PR 7 gap). Separate array because std::mutex is immovable
  /// and Shard must stay movable.
  std::unique_ptr<std::mutex[]> shard_mu_;
  /// One queue-depth gauge per shard ("service.shard_queue_depth.<i>"),
  /// written with absolute set()s so toggling telemetry at runtime can
  /// never leave a gauge out of sync with the shard.
  std::vector<telemetry::Gauge*> shard_depth_;
  std::string spill_dir_;        // resolved on first evict()
  bool owns_spill_dir_ = false;  // we created it; remove it in the dtor
  std::unique_ptr<SessionTable> table_;  // durable mode only
  bool pending_recovery_ = false;
  StatCells cells_;
  Instruments telem_;
};

}  // namespace qols::service
