#pragma once
// The network front end: a non-blocking, epoll-driven TCP server speaking
// the qols wire protocol (wire.hpp) over a shared RecognizerService.
//
// Threading model: ONE event-loop thread. RecognizerService's public API is
// single-acceptor by contract; the loop is the acceptor. Parallelism lives
// in two service calls the loop makes: flush(), which fans shard drains
// across the ThreadPool, and finish(span), which drains and finishes a
// batch of detached sessions on the pool with the loop thread claiming
// sessions too. Each SessionBroker::pump() batches the FINISH frames it
// decodes, and the loop reads ahead up to 64 KiB per pool thread before
// pumping, so a pump holds several FINISHes. The loop otherwise never
// contends on session state — it decodes frames, hands them to each
// connection's SessionBroker, and moves bytes.
//
// Backpressure (per connection):
//   - responses accumulate in a bounded write buffer; writes are driven by
//     EPOLLOUT, never by blocking;
//   - when the write buffer crosses Config::write_buffer_cap, pump() stops
//     decoding (frames stay buffered) and the loop stops READING from that
//     connection (EPOLLIN off) until the peer drains below cap/2 — a slow
//     consumer throttles exactly itself;
//   - feed-side pressure is bounded by the service: buffered symbols
//     auto-flush across the pool at the service's default flush_threshold
//     (2^18 symbols per shard), so a shard's backlog never exceeds the
//     threshold plus one chunk.
//
// Idle sessions: a periodic sweep (Config::sweep_interval_ms) spills
// sessions quiet for Config::idle_evict_ms onto the PR 7 snapshot codec
// (RecognizerService::evict); the next FEED/FINISH revives them
// transparently — the client cannot tell, bit for bit.
//
// Graceful drain: shutdown() (async-signal-safe; call it from a SIGTERM
// handler) stops the accept path, refuses new OPENs with kDraining, keeps
// serving FEED/FINISH until every accepted session has its verdict flushed,
// then closes everything and returns from run(). Connections that sit idle
// with no open sessions are closed as soon as their responses are flushed;
// Config::drain_timeout_ms bounds how long stragglers can hold the exit.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "qols/server/session_broker.hpp"
#include "qols/service/recognizer_service.hpp"

namespace qols::server {

class Server {
 public:
  struct Config {
    /// Recognizer family served (one family per server, like the service).
    service::RecognizerSpec spec;
    std::string bind_address = "127.0.0.1";
    /// 0 = ephemeral: the kernel picks; read it back with port().
    std::uint16_t port = 0;
    std::size_t max_connections = 1024;
    std::uint64_t max_sessions = std::uint64_t{1} << 17;
    /// Write-buffer high watermark per connection; reads pause above it.
    std::size_t write_buffer_cap = std::size_t{1} << 20;
    /// Spill sessions idle this long (0 = never evict).
    std::uint64_t idle_evict_ms = 0;
    /// Timer granularity for eviction sweeps and drain checks.
    int sweep_interval_ms = 50;
    /// Hard ceiling on drain: connections still open this long after
    /// shutdown() are closed, sessions abandoned (finished and discarded).
    std::uint64_t drain_timeout_ms = 30'000;
    /// SO_SNDBUF for accepted sockets; 0 = kernel default (autotuned).
    /// Tests pin it small so backpressure triggers deterministically
    /// instead of depending on how many megabytes the kernel absorbs.
    int so_sndbuf = 0;
    /// RecognizerService spill directory ("" = unique temp dir).
    std::string spill_dir{};
    /// Durable server: the service journals session lifecycle into a
    /// manifest under spill_dir (required non-empty), the constructor
    /// recover()s any prior manifest it finds there, and disconnected
    /// clients' sessions are preserved for the v2 RESUME frame instead of
    /// abandoned.
    bool durable = false;
    /// With durable: shutdown() persists every open session (spill +
    /// manifest compaction) instead of finishing it — the restart-resume
    /// path. In-flight responses still flush before the loop exits.
    bool persist_on_shutdown = false;
    /// Pool for service flushes; nullptr = ThreadPool::global().
    util::ThreadPool* pool = nullptr;
  };

  /// Creates the listening socket (bind + listen) — the port is live when
  /// the constructor returns. Throws std::system_error on socket errors.
  explicit Server(const Config& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (== Config::port unless that was 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Runs the event loop on the calling thread until a drain completes.
  void run();

  /// Requests a graceful drain. Async-signal-safe and thread-safe: the only
  /// work is an atomic store plus an eventfd write, so it may be called
  /// directly from a SIGTERM handler or from another thread while run()
  /// owns the loop.
  void shutdown() noexcept;

  /// The service behind the loop. Touch it only while run() is not active
  /// (the service is single-acceptor; the loop is the acceptor).
  service::RecognizerService& service() noexcept { return *svc_; }

  /// Loop-owned counters, readable after run() returns (and exported live
  /// via telemetry / the STATS frame while it runs).
  struct Counters {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t accept_rejected = 0;
    std::uint64_t backpressure_pauses = 0;
    std::uint64_t sessions_abandoned = 0;
    std::uint64_t idle_evictions = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    /// Sessions persisted by the shutdown checkpoint.
    std::uint64_t sessions_persisted = 0;
  };
  const Counters& counters() const noexcept { return counters_; }

 private:
  struct Connection;

  void accept_ready();
  /// On EMFILE/ENFILE: accept and close one queued peer through the reserve
  /// fd. False when nothing was accepted.
  bool shed_queued_peer();
  void connection_ready(Connection& conn, std::uint32_t events,
                        std::uint64_t now_ms);
  /// Decode+handle buffered frames within the write-budget; update the
  /// paused/closing state and epoll interest afterwards.
  void pump_connection(Connection& conn, std::uint64_t now_ms);
  bool flush_writes(Connection& conn);  // false: connection died
  void update_interest(Connection& conn);
  void close_connection(int fd);
  void sweep(std::uint64_t now_ms);
  void begin_drain(std::uint64_t now_ms);
  static std::uint64_t now_ms() noexcept;

  Config config_;
  std::unique_ptr<service::RecognizerService> svc_;
  std::unique_ptr<BrokerShared> shared_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  /// Held open (on /dev/null) so fd exhaustion can still accept-and-close.
  int reserve_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> shutdown_requested_{false};
  bool draining_ = false;
  std::uint64_t drain_deadline_ms_ = 0;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  /// recv() buffer shared by every connection (the loop is one thread).
  std::vector<std::uint8_t> read_buf_;
  /// Bytes a connection may ingest before it is pumped: 64 KiB per pool
  /// thread (256 KiB on 4 threads). On quantum-k5 on a 4-core host, one
  /// 64 KiB recv() per pump averaged one FINISH per pump; a 1 MiB
  /// read-ahead queued whole client windows behind one pump (p50 latency
  /// 22 -> 57 ms).
  std::size_t read_ahead_ = 0;
  Counters counters_;
};

}  // namespace qols::server
