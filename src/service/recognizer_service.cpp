#include "qols/service/recognizer_service.hpp"

#include <unistd.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <unordered_set>
#include <utility>

#include "qols/core/classical_recognizers.hpp"
#include "qols/core/quantum_recognizer.hpp"
#include "qols/util/file_io.hpp"
#include "qols/util/stopwatch.hpp"

namespace qols::service {

namespace {

/// The pool only pays for a finish batch when at least two of its sessions
/// each hold this many buffered symbols; smaller batches run inline on the
/// caller. On a 4-core host a whole k=5 quantum session (~85k buffered
/// symbols at FINISH) costs the same CPU on 4 threads as on 1 (1.43-1.58
/// ms), so spreading them nearly doubled quantum-k5 sessions/s. Without the
/// gate, short-block batches (~160 sessions of ~1.4k symbols) paid for the
/// handoff: +22% to +38% CPU per session.
constexpr std::size_t kBatchMinSymbols = std::size_t{1} << 14;

std::uint64_t to_ns(double seconds) {
  return seconds > 0.0 ? static_cast<std::uint64_t>(seconds * 1e9) : 0;
}

/// Writes a spill file in one shot. Durable services fsync it — the journal
/// may only claim a spill that would survive power loss, not just process
/// death (the manifest's write-ordering invariant).
void write_spill_file(const std::string& path,
                      const std::vector<std::uint8_t>& bytes, bool sync,
                      std::uint64_t id) {
  if (!util::write_file(path, bytes, sync)) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    throw std::runtime_error("RecognizerService: cannot spill session " +
                             std::to_string(id) + " (" +
                             std::to_string(bytes.size()) + " bytes) to " +
                             path);
  }
}

}  // namespace

RecognizerService::Instruments::Instruments()
    : borrowed_chunks(telemetry::MetricsRegistry::global().counter(
          "service.borrowed_chunks")),
      flush_ns(
          telemetry::MetricsRegistry::global().histogram("service.flush_ns")),
      finish_ns(
          telemetry::MetricsRegistry::global().histogram("service.finish_ns")) {
}

std::string recognizer_kind_name(RecognizerKind kind) {
  switch (kind) {
    case RecognizerKind::kClassicalBlock:
      return "classical-block";
    case RecognizerKind::kClassicalFull:
      return "classical-full";
    case RecognizerKind::kClassicalSampling:
      return "classical-sample";
    case RecognizerKind::kClassicalBloom:
      return "classical-bloom";
    case RecognizerKind::kQuantum:
      return "quantum";
  }
  // Unknown/future values (e.g. a static_cast from a corrupted config) must
  // surface as an error, not as UB-adjacent fallthrough text.
  throw std::invalid_argument("recognizer_kind_name: unknown RecognizerKind " +
                              std::to_string(static_cast<int>(kind)));
}

std::unique_ptr<machine::OnlineRecognizer> RecognizerSpec::make(
    std::uint64_t seed) const {
  switch (kind) {
    case RecognizerKind::kClassicalBlock:
      return std::make_unique<core::ClassicalBlockRecognizer>(seed);
    case RecognizerKind::kClassicalFull:
      return std::make_unique<core::ClassicalFullRecognizer>(seed);
    case RecognizerKind::kClassicalSampling:
      return std::make_unique<core::ClassicalSamplingRecognizer>(
          seed, sampling_budget);
    case RecognizerKind::kClassicalBloom:
      return std::make_unique<core::ClassicalBloomRecognizer>(
          seed, bloom_filter_bits, bloom_num_hashes);
    case RecognizerKind::kQuantum: {
      core::QuantumOnlineRecognizer::Options opts;
      opts.a3.backend = backend;
      opts.a3.precision = float_amplitudes ? quantum::Precision::kSingle
                                           : quantum::Precision::kDouble;
      return std::make_unique<core::QuantumOnlineRecognizer>(seed, opts);
    }
  }
  throw std::invalid_argument("RecognizerSpec: unknown RecognizerKind " +
                              std::to_string(static_cast<int>(kind)));
}

RecognizerService::RecognizerService(Config config)
    : config_(std::move(config)) {
  // Surface a bad backend id at service construction, not first open():
  // the spec is the service's contract with every future session.
  config_.spec.make(0);
  pool_ = config_.pool != nullptr ? config_.pool : &util::ThreadPool::global();
  const std::size_t n = pool_->thread_count();
  shards_.resize(n > 0 ? n : 1);
  shard_mu_ = std::make_unique<std::mutex[]>(shards_.size());
  shard_depth_.reserve(shards_.size());
  auto& registry = telemetry::MetricsRegistry::global();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard_depth_.push_back(
        &registry.gauge("service.shard_queue_depth." + std::to_string(i)));
  }
  if (config_.durable) {
    if (config_.spill_dir.empty()) {
      throw std::invalid_argument(
          "RecognizerService: durable mode requires a spill_dir — the "
          "directory is the durable identity recover() reattaches to");
    }
    std::error_code ec;
    std::filesystem::create_directories(config_.spill_dir, ec);
    if (ec) {
      throw std::runtime_error(
          "RecognizerService: cannot create spill directory " +
          config_.spill_dir + ": " + ec.message());
    }
    spill_dir_ = config_.spill_dir;
    std::error_code sec;
    const auto manifest_size =
        std::filesystem::file_size(SessionTable::path_in(spill_dir_), sec);
    if (!sec && manifest_size > 0) {
      // A prior life left a manifest. Nothing is adopted implicitly — the
      // caller must recover() (and see the typed errors) before any session
      // operation; journal() enforces that.
      pending_recovery_ = true;
    } else {
      table_ = std::make_unique<SessionTable>(
          SessionTable::Options{.dir = spill_dir_});
    }
  }
}

RecognizerService::~RecognizerService() {
  // A durable service's spill files and manifest ARE its persistent state —
  // leave them for the next incarnation to recover().
  if (config_.durable) return;
  // Best-effort spill cleanup: remove the spill file of every still-evicted
  // session, and the directory itself when this service created it.
  std::error_code ec;
  for (const auto& [id, session] : sessions_) {
    if (session.evicted) std::filesystem::remove(spill_path(id), ec);
  }
  if (owns_spill_dir_) std::filesystem::remove(spill_dir_, ec);
}

SessionTable* RecognizerService::journal() {
  if (pending_recovery_) {
    throw std::logic_error(
        "RecognizerService: a prior manifest awaits recover() — session "
        "operations would silently shadow the persisted table");
  }
  return table_.get();
}

RecognizerService::Session& RecognizerService::session_or_throw(SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::out_of_range("RecognizerService: unknown session " +
                            std::to_string(id));
  }
  return it->second;
}

RecognizerService::SessionId RecognizerService::open(std::uint64_t seed) {
  // Skip over ids claimed by open_at so auto-assignment never collides.
  while (sessions_.contains(next_id_)) ++next_id_;
  return open_at(next_id_++, seed);
}

RecognizerService::SessionId RecognizerService::open_at(SessionId id,
                                                        std::uint64_t seed) {
  if (sessions_.contains(id)) {
    throw std::invalid_argument("RecognizerService: session id " +
                                std::to_string(id) + " is already open");
  }
  // Build the recognizer before journaling: a make() failure must not leave
  // a kOpen record for a session that never existed.
  Session session;
  session.recognizer = config_.spec.make(seed);
  session.seed = seed;
  if (SessionTable* t = journal()) {
    t->crash_point();
    t->record_open(id, seed, shard_for(id));
  }
  sessions_.emplace(id, std::move(session));
  cells_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void RecognizerService::feed(SessionId id,
                             std::span<const stream::Symbol> chunk) {
  Session& session = session_or_throw(id);
  if (session.evicted) revive_session(id, session);
  bool over_threshold = false;
  {
    const std::size_t si = shard_for(id);
    std::lock_guard<std::mutex> lock(shard_mu_[si]);
    Shard& shard = shards_[si];
    if (session.pending.empty() && !chunk.empty()) shard.ready.push_back(id);
    session.pending.insert(session.pending.end(), chunk.begin(), chunk.end());
    shard.buffered += chunk.size();
    shard_depth_[si]->set(
        static_cast<std::int64_t>(shard.buffered));
    over_threshold = shard.buffered >= config_.flush_threshold;
  }
  cells_.symbols_ingested.fetch_add(chunk.size(), std::memory_order_relaxed);
  // The shard lock is released first: flush()'s worker re-takes it.
  if (over_threshold) flush();
}

void RecognizerService::feed_borrowed(SessionId id,
                                      std::span<const stream::Symbol> chunk) {
  Session& session = session_or_throw(id);
  if (session.evicted) revive_session(id, session);
  util::Stopwatch watch;
  {
    std::lock_guard<std::mutex> lock(shard_mu_[shard_for(id)]);
    // Order within the session must hold: anything already buffered goes
    // first, then the borrowed span — which is consumed before returning,
    // so the caller's view (e.g. a MappedFileStream page) may be
    // invalidated or released afterwards.
    if (!session.pending.empty()) drain_locked(id, session);
    session.recognizer->feed_chunk(chunk);
  }
  cells_.symbols_ingested.fetch_add(chunk.size(), std::memory_order_relaxed);
  cells_.busy_ns.fetch_add(to_ns(watch.seconds()), std::memory_order_relaxed);
  telem_.borrowed_chunks.add();
}

void RecognizerService::drain_locked(SessionId id, Session& session) {
  const std::size_t si = shard_for(id);
  Shard& shard = shards_[si];
  shard.buffered -= session.pending.size();
  session.recognizer->feed_chunk(session.pending);
  session.pending.clear();
  std::erase(shard.ready, id);
  shard_depth_[si]->set(static_cast<std::int64_t>(shard.buffered));
}

void RecognizerService::flush() {
  bool any = false;
  for (const Shard& shard : shards_) any = any || shard.buffered > 0;
  if (!any) return;
  util::Stopwatch watch;
  // One task per shard: a session is pinned to its shard for life, so no
  // two workers ever advance the same session, and symbols within a session
  // stay in order (the determinism contract). Shards drain concurrently.
  util::parallel_for(
      *pool_, 0, shards_.size(), 1, [this](std::size_t lo, std::size_t hi) {
        for (std::size_t si = lo; si < hi; ++si) {
          // The worker owns the shard's slot lock for the whole drain, so
          // evict()/evicted()/feed() on a session of this shard serialize
          // against it instead of racing the recognizer state.
          std::lock_guard<std::mutex> lock(shard_mu_[si]);
          Shard& shard = shards_[si];
          for (const SessionId id : shard.ready) {
            Session& s = sessions_.find(id)->second;
            s.recognizer->feed_chunk(s.pending);
            s.pending.clear();
          }
          shard.ready.clear();
          shard.buffered = 0;
          shard_depth_[si]->set(0);
        }
      });
  const std::uint64_t ns = to_ns(watch.seconds());
  cells_.busy_ns.fetch_add(ns, std::memory_order_relaxed);
  cells_.flushes.fetch_add(1, std::memory_order_relaxed);
  telem_.flush_ns.record(ns);
}

RecognizerService::Verdict RecognizerService::finish(SessionId id) {
  return finish(std::span<const SessionId>(&id, 1)).front();
}

std::vector<RecognizerService::Verdict> RecognizerService::finish(
    std::span<const SessionId> ids) {
  // Validate the whole batch before touching any session.
  SessionTable* t = journal();
  for (const SessionId id : ids) session_or_throw(id);
  std::vector<SessionId> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  if (const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
      dup != sorted.end()) {
    throw std::invalid_argument("RecognizerService: session " +
                                std::to_string(*dup) +
                                " appears twice in one finish batch");
  }
  // Revive, then detach, on the caller. Every revive runs first, so a failed
  // one leaves every session of the batch open. A detached session is out of
  // sessions_ and out of its shard's ready list, so nothing else can reach
  // it and no shard lock guards it: any thread may drain and finish it.
  for (const SessionId id : ids) {
    Session& session = sessions_.find(id)->second;
    if (session.evicted) revive_session(id, session);
  }
  std::vector<Session> batch;
  batch.reserve(ids.size());
  std::size_t heavy = 0;
  for (const SessionId id : ids) {
    const auto it = sessions_.find(id);
    Session& session = it->second;
    if (!session.pending.empty()) {
      const std::size_t si = shard_for(id);
      std::lock_guard<std::mutex> lock(shard_mu_[si]);
      Shard& shard = shards_[si];
      shard.buffered -= session.pending.size();
      std::erase(shard.ready, id);
      shard_depth_[si]->set(
          static_cast<std::int64_t>(shard.buffered));
    }
    if (session.pending.size() >= kBatchMinSymbols) ++heavy;
    batch.push_back(std::move(session));
    sessions_.erase(it);
  }

  std::vector<Verdict> verdicts(batch.size());
  std::vector<std::uint64_t> session_ns(batch.size(), 0);
  std::vector<std::exception_ptr> errors(batch.size());
  const auto run = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      util::Stopwatch watch;
      try {
        machine::OnlineRecognizer& rec = *batch[i].recognizer;
        if (!batch[i].pending.empty()) rec.feed_chunk(batch[i].pending);
        verdicts[i].accepted = rec.finish();
        verdicts[i].fully_simulated = rec.fully_simulated();
        verdicts[i].space = rec.space_used();
      } catch (...) {
        errors[i] = std::current_exception();
      }
      session_ns[i] = to_ns(watch.seconds());
    }
  };
  util::Stopwatch batch_watch;
  if (heavy >= 2) {
    // One session per claim: sessions differ in size by orders of magnitude,
    // so a static split would leave threads idle behind the largest chunk.
    util::parallel_for(*pool_, 0, batch.size(), 1, run, /*chunk=*/1);
  } else {
    run(0, batch.size());
  }
  // Wall time once per batch: summing session_ns would count the pool's
  // overlap several times and push busy_seconds past the elapsed time.
  cells_.busy_ns.fetch_add(to_ns(batch_watch.seconds()),
                           std::memory_order_relaxed);

  // Bookkeeping in span order, on the caller. A session whose recognizer
  // threw is retired all the same (its state is unusable), without a
  // verdict; the first such exception is rethrown below.
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (t != nullptr) {
      t->crash_point();
      t->record_finish(ids[i]);
    }
    if (errors[i]) {
      if (!first_error) first_error = errors[i];
      continue;
    }
    cells_.sessions_finished.fetch_add(1, std::memory_order_relaxed);
    telem_.finish_ns.record(session_ns[i]);
  }
  if (first_error) std::rethrow_exception(first_error);
  return verdicts;
}

std::uint64_t RecognizerService::buffered_symbols() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.buffered;
  return total;
}

std::string RecognizerService::spill_path(SessionId id) {
  if (spill_dir_.empty()) {
    if (!config_.spill_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(config_.spill_dir, ec);
      if (ec) {
        throw std::runtime_error(
            "RecognizerService: cannot create spill directory " +
            config_.spill_dir + ": " + ec.message());
      }
      spill_dir_ = config_.spill_dir;
    } else {
      // Unique per service instance: two services in one process (or across
      // processes) never collide on session ids.
      auto dir = std::filesystem::temp_directory_path() /
                 ("qols-spill-" + std::to_string(::getpid()) + "-" +
                  std::to_string(reinterpret_cast<std::uintptr_t>(this)));
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec) {
        throw std::runtime_error(
            "RecognizerService: cannot create spill directory " +
            dir.string() + ": " + ec.message());
      }
      spill_dir_ = dir.string();
      owns_spill_dir_ = true;
    }
  }
  return (std::filesystem::path(spill_dir_) /
          ("qols-session-" + std::to_string(id) + ".snap"))
      .string();
}

void RecognizerService::evict(SessionId id) {
  Session& session = session_or_throw(id);
  if (session.evicted) return;  // double-evict is a no-op
  // The crash hook fires before ANY side effect — an injected crash must
  // leave n records and exactly the spill files they claim, never a spill
  // the journal does not know about.
  SessionTable* t = journal();
  if (t != nullptr) t->crash_point();
  std::lock_guard<std::mutex> lock(shard_mu_[shard_for(id)]);
  // The buffer must reach the recognizer before the state is frozen —
  // snapshotting around unconsumed symbols would replay them out of order.
  if (!session.pending.empty()) drain_locked(id, session);
  const std::vector<std::uint8_t> bytes = session.recognizer->snapshot();
  const std::string path = spill_path(id);
  // Spill first (synced in durable mode), journal second: the manifest
  // never claims a spill that is not on disk.
  write_spill_file(path, bytes, /*sync=*/config_.durable, id);
  if (t != nullptr) {
    t->record_evict(id, bytes.size());
  }
  session.recognizer.reset();  // the point of evicting: free the memory
  session.evicted = true;
  session.spill_bytes = bytes.size();
  cells_.evictions.fetch_add(1, std::memory_order_relaxed);
  cells_.spill_bytes_written.fetch_add(bytes.size(),
                                       std::memory_order_relaxed);
}

void RecognizerService::revive_session(SessionId id, Session& session) {
  SessionTable* t = journal();
  if (t != nullptr) t->crash_point();
  std::lock_guard<std::mutex> lock(shard_mu_[shard_for(id)]);
  const std::string path = spill_path(id);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    throw std::runtime_error("RecognizerService: missing spill file " + path);
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in.good()) {
    throw std::runtime_error("RecognizerService: cannot read spill file " +
                             path + " (" + std::to_string(bytes.size()) +
                             " bytes expected)");
  }
  // The restore overwrites every bit of recognizer state, seed included, so
  // the construction seed here is immaterial.
  session.recognizer = config_.spec.make(0);
  session.recognizer->restore(bytes);
  // Journal before unlinking: a crash in between leaves a spill the journal
  // no longer claims (OrphanSpill on recovery) — never a claimed spill that
  // is gone.
  if (t != nullptr) {
    t->record_revive(id);
  }
  session.evicted = false;
  session.spill_bytes = 0;
  std::error_code ec;
  std::filesystem::remove(path, ec);
  cells_.revives.fetch_add(1, std::memory_order_relaxed);
  cells_.spill_bytes_read.fetch_add(bytes.size(), std::memory_order_relaxed);
}

void RecognizerService::revive(SessionId id) {
  Session& session = session_or_throw(id);
  if (session.evicted) revive_session(id, session);
}

bool RecognizerService::evicted(SessionId id) {
  Session& session = session_or_throw(id);
  std::lock_guard<std::mutex> lock(shard_mu_[shard_for(id)]);
  return session.evicted;
}

std::map<RecognizerService::SessionId, SessionTable::LiveSession>
RecognizerService::live_view() const {
  std::map<SessionId, SessionTable::LiveSession> live;
  for (const auto& [id, session] : sessions_) {
    SessionTable::LiveSession entry;
    entry.seed = session.seed;
    entry.shard = shard_for(id);
    entry.evicted = session.evicted;
    entry.spill_bytes = session.spill_bytes;
    live.emplace(id, entry);
  }
  return live;
}

std::size_t RecognizerService::persist() {
  if (!config_.durable) {
    throw std::logic_error("RecognizerService: persist() requires durable mode");
  }
  SessionTable* t = journal();
  // Evict in id order so the journal (and the kill-point matrix over it) is
  // deterministic — sessions_ iteration order is not.
  std::vector<SessionId> resident;
  resident.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    if (!session.evicted) resident.push_back(id);
  }
  std::sort(resident.begin(), resident.end());
  for (const SessionId id : resident) evict(id);
  t->crash_point();
  t->compact(live_view());
  return sessions_.size();
}

RecognizerService::RecoveryReport RecognizerService::recover() {
  if (!config_.durable) {
    throw std::logic_error("RecognizerService: recover() requires durable mode");
  }
  if (!sessions_.empty()) {
    throw std::logic_error(
        "RecognizerService: recover() on a service with open sessions");
  }
  SessionTable::Replay replayed = SessionTable::replay(spill_dir_);
  // Verify every claimed spill before adopting anything: recovery is all or
  // nothing. A session whose state cannot be restored exactly must fail
  // loudly here — a fabricated verdict later is the one unforgivable
  // outcome.
  std::unordered_set<std::string> claimed;
  for (const auto& [id, s] : replayed.live) {
    if (!s.evicted) continue;
    const std::string path = spill_path(id);
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec) {
      throw SpillMissing("session " + std::to_string(id) +
                         ": manifest claims a spill but " + path +
                         " is absent");
    }
    if (size != s.spill_bytes) {
      throw SpillMissing("session " + std::to_string(id) + ": spill file " +
                         path + " holds " + std::to_string(size) +
                         " bytes, manifest recorded " +
                         std::to_string(s.spill_bytes));
    }
    claimed.insert(std::filesystem::path(path).filename().string());
  }
  for (const auto& entry : std::filesystem::directory_iterator(spill_dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("qols-session-") && name.ends_with(".snap") &&
        !claimed.contains(name)) {
      throw OrphanSpill("unclaimed spill file " + entry.path().string() +
                        " (a crash between spill write and manifest append, "
                        "or foreign debris)");
    }
  }
  RecoveryReport report;
  report.records_replayed = replayed.records;
  for (const auto& [id, s] : replayed.live) {
    if (!s.evicted) {
      // Resident at the crash: its state lived only in the dead process.
      report.lost.push_back(id);
      continue;
    }
    Session session;
    session.evicted = true;
    session.seed = s.seed;
    session.spill_bytes = s.spill_bytes;
    sessions_.emplace(id, std::move(session));
    if (id >= next_id_) next_id_ = id + 1;
    ++report.sessions_recovered;
  }
  pending_recovery_ = false;
  table_ = std::make_unique<SessionTable>(
      SessionTable::Options{.dir = spill_dir_});
  // Compact to the adopted view: lost sessions drop out of the journal, and
  // replaying the recovered journal reproduces exactly this table.
  table_->compact(live_view());
  cells_.recovered_sessions.fetch_add(report.sessions_recovered,
                                      std::memory_order_relaxed);
  return report;
}

void RecognizerService::persist_abort_after(std::uint64_t n) noexcept {
  if (table_ != nullptr) table_->abort_after(n);
}

std::uint64_t RecognizerService::manifest_records() const noexcept {
  return table_ != nullptr ? table_->records_appended() : 0;
}

RecognizerService::Stats RecognizerService::stats() const noexcept {
  Stats s;
  s.sessions_opened = cells_.sessions_opened.load(std::memory_order_relaxed);
  s.sessions_finished =
      cells_.sessions_finished.load(std::memory_order_relaxed);
  s.symbols_ingested = cells_.symbols_ingested.load(std::memory_order_relaxed);
  s.flushes = cells_.flushes.load(std::memory_order_relaxed);
  s.busy_seconds =
      static_cast<double>(cells_.busy_ns.load(std::memory_order_relaxed)) /
      1e9;
  s.evictions = cells_.evictions.load(std::memory_order_relaxed);
  s.revives = cells_.revives.load(std::memory_order_relaxed);
  s.spill_bytes_written =
      cells_.spill_bytes_written.load(std::memory_order_relaxed);
  s.spill_bytes_read = cells_.spill_bytes_read.load(std::memory_order_relaxed);
  s.recovered_sessions =
      cells_.recovered_sessions.load(std::memory_order_relaxed);
  return s;
}

void RecognizerService::reset_stats() noexcept {
  cells_.sessions_opened.store(0, std::memory_order_relaxed);
  cells_.sessions_finished.store(0, std::memory_order_relaxed);
  cells_.symbols_ingested.store(0, std::memory_order_relaxed);
  cells_.flushes.store(0, std::memory_order_relaxed);
  cells_.busy_ns.store(0, std::memory_order_relaxed);
  cells_.evictions.store(0, std::memory_order_relaxed);
  cells_.revives.store(0, std::memory_order_relaxed);
  cells_.spill_bytes_written.store(0, std::memory_order_relaxed);
  cells_.spill_bytes_read.store(0, std::memory_order_relaxed);
  cells_.recovered_sessions.store(0, std::memory_order_relaxed);
}

}  // namespace qols::service
