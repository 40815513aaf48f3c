#pragma once
// Per-connection protocol engine: wire bytes in, wire bytes out.
//
// SessionBroker owns no sockets — the epoll transport (server.hpp), the
// fuzz harness (property P8), and the unit tests all drive the same code:
// ingest() buffers raw bytes, pump() decodes complete frames and handles
// them against the shared RecognizerService, appending response frames to
// the caller's output buffer.
//
// Contract: hostile input NEVER throws out of pump(). Malformed bytes
// (oversized length prefix, undecodable payload, invalid symbol byte,
// frames out of order) produce a typed ERROR frame and PumpResult::kClose;
// recoverable conditions (unknown session, duplicate OPEN, over-limit,
// draining) produce an ERROR frame and the connection lives on.
//
// Determinism: a session's verdict depends only on its seed and the symbol
// bytes fed to it, in order — never on how those bytes were split across
// FEED frames or ingest() calls (fuzz property P8 enforces this against
// direct RecognizerService runs).
//
// Batching: a FINISH is not finished on the spot. pump() appends a
// fixed-size VERDICT placeholder, defers the id, and finishes every deferred
// id as one RecognizerService::finish(span) batch — across the pool when the
// sessions are large — patching the placeholders in place. The batch is
// completed before pump() returns and before any frame whose response
// depends on it (HELLO, RESUME, STATS, METRICS, an OPEN of a pending id or
// at the session limit), so the response bytes are exactly those of
// handling one frame at a time.
//
// Wire session ids ARE service session ids (RecognizerService::open_at), so
// there is no translation table; the broker tracks which ids this
// connection owns and refuses to touch another connection's sessions.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "qols/server/wire.hpp"
#include "qols/service/recognizer_service.hpp"
#include "qols/telemetry/registry.hpp"

namespace qols::server {

/// State shared by every broker of one server: the service, the limits, and
/// the drain flag. Single-threaded like the service's acceptor contract.
struct BrokerShared {
  struct Options {
    /// Sessions across ALL connections (the service-wide cap).
    std::uint64_t max_sessions = std::uint64_t{1} << 17;
    /// On disconnect, RELEASE sessions (leave them open in the service for
    /// a later RESUME — the durable-server mode) instead of finishing and
    /// discarding them. Orphaned sessions still count against max_sessions
    /// and are reaped only by persist()/restart or an adopting RESUME.
    bool preserve_on_disconnect = false;
  };

  explicit BrokerShared(service::RecognizerService& service, Options options);

  service::RecognizerService& svc;
  Options opts;
  /// Set by the server on SIGTERM/shutdown(): OPEN is refused with
  /// kDraining; FEED/FINISH keep working so in-flight sessions complete.
  bool draining = false;
  /// Optional transport hook: called with the STATS document so the server
  /// can append its own section (connections, backpressure pauses, ...).
  std::function<void(util::json::Value&)> stats_hook;
  /// Session ids owned by SOME live connection of this server. RESUME may
  /// only adopt a session no live connection owns — two connections driving
  /// one recognizer would interleave their symbols nondeterministically.
  std::unordered_set<std::uint64_t> owned;

  /// Frame-grain instruments, resolved once for the whole server.
  telemetry::Counter& frames_in;
  telemetry::Counter& frames_out;
  telemetry::Counter& errors_sent;
  telemetry::Counter& malformed;
  telemetry::Counter& resumes;
  telemetry::LatencyHistogram& feed_frame_ns;
  telemetry::LatencyHistogram& finish_frame_ns;
};

class SessionBroker {
 public:
  enum class PumpResult : std::uint8_t {
    kIdle,       ///< no complete frame buffered; feed more bytes
    kOutBudget,  ///< stopped early: output grew past the budget (backpressure)
    kClose,      ///< fatal: flush `out`, then close the connection
  };

  explicit SessionBroker(BrokerShared& shared);
  /// Abandons (finishes and discards) any sessions still open — or, with
  /// Options::preserve_on_disconnect, releases them for a later RESUME.
  ~SessionBroker();

  SessionBroker(const SessionBroker&) = delete;
  SessionBroker& operator=(const SessionBroker&) = delete;

  /// Buffers raw wire bytes; frames are handled by the next pump().
  void ingest(std::span<const std::uint8_t> bytes);

  /// Decodes and handles buffered frames in order, appending responses to
  /// `out`, until no complete frame remains or out.size() reaches
  /// `out_budget` (the transport's write-buffer cap — remaining frames stay
  /// buffered for the next pump, which is what "stop reading under
  /// backpressure" hangs off). `now_ms` stamps session activity for idle
  /// eviction; any monotonic milli-clock works, 0 is fine for tests. The
  /// FINISHes decoded by one call are finished as one batch. Should that
  /// batch throw (a recognizer or spill failure), `out` is cut back to the
  /// first VERDICT placeholder and the exception propagates.
  PumpResult pump(std::vector<std::uint8_t>& out, std::size_t out_budget,
                  std::uint64_t now_ms = 0);

  /// A complete frame is buffered and unprocessed (pump stopped on budget).
  bool has_buffered_frames() const noexcept;
  std::size_t buffered_bytes() const noexcept;

  /// Evicts sessions (RecognizerService::evict) whose last activity is at
  /// or before `cutoff_ms`. Returns how many were spilled. A session whose
  /// recognizer cannot snapshot is skipped and not retried until its next
  /// activity refreshes the stamp.
  std::size_t evict_idle(std::uint64_t cutoff_ms);

  std::size_t open_sessions() const noexcept { return sessions_.size(); }
  bool hello_done() const noexcept { return hello_done_; }
  bool closed() const noexcept { return closed_; }
  /// Protocol version negotiated by HELLO (0 before HELLO).
  std::uint32_t negotiated_version() const noexcept { return version_; }

  /// Peer went away: with preserve_on_disconnect, release_sessions();
  /// otherwise finishes and discards, as one batch, every session this
  /// connection still owns. Returns how many sessions were handled either
  /// way.
  std::size_t abandon_sessions() noexcept;

  /// Detaches every session from this connection WITHOUT finishing it — the
  /// sessions stay open (and adoptable via RESUME) in the service. Returns
  /// how many were released.
  std::size_t release_sessions() noexcept;

 private:
  /// pump() minus completing the FINISH batch.
  PumpResult handle_frames(std::vector<std::uint8_t>& out,
                           std::size_t out_budget, std::uint64_t now_ms);
  /// Handles one frame; returns false when the connection must close.
  bool handle(const wire::Frame& frame, std::vector<std::uint8_t>& out,
              std::uint64_t now_ms);
  /// Finishes the deferred FINISHes as one batch and patches their VERDICT
  /// placeholders in `out`.
  void complete_finishes(std::vector<std::uint8_t>& out);
  bool finish_pending(std::uint64_t session) const noexcept;
  bool fail(std::vector<std::uint8_t>& out, wire::ErrorCode code,
            std::uint64_t session, std::string message);

  BrokerShared& shared_;
  wire::FrameDecoder decoder_;
  /// Wire/service session id -> last-activity stamp (ms, caller's clock).
  std::unordered_map<std::uint64_t, std::uint64_t> sessions_;
  /// FINISHes deferred within the current pump(), in frame order: the
  /// session and the offset of its VERDICT placeholder in `out`.
  struct PendingFinish {
    std::uint64_t session;
    std::size_t offset;
  };
  std::vector<PendingFinish> pending_;
  bool hello_done_ = false;
  bool closed_ = false;
  std::uint32_t version_ = 0;  ///< negotiated by HELLO
};

}  // namespace qols::server
