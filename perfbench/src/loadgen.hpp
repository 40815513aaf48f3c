#pragma once
// The single-threaded load generator: up to `connections` nonblocking TCP
// connections to one qols_server, polled from one loop.
//
// Two load patterns share the loop:
//   - closed loop: each connection keeps a fixed window of sessions in
//     flight; frames of the in-flight sessions are interleaved round robin,
//     and a verdict frees its slot for the next session;
//   - open loop (paced): sessions arrive at a fixed rate and each frame is
//     due at a fixed time; a frame is appended when due, whatever the
//     server's state, and its lateness is recorded as generator lag.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "qols/server/wire.hpp"
#include "traffic.hpp"

namespace perfbench {

/// What one session sends in a phase.
enum class Lifecycle : std::uint8_t {
  kFull,        ///< OPEN, every FEED, FINISH
  kOpenHalf,    ///< OPEN, the first half's FEEDs (restart, before SIGTERM)
  kResumeRest,  ///< RESUME, the second half's FEEDs, FINISH
};

/// Per-session record, indexed like the Traffic.
struct Outcome {
  bool verdict_seen = false;
  bool errored = false;      ///< an ERROR frame named this session
  bool finish_sent = false;
  bool ended = false;        ///< verdict, or an error after FINISH
  qols::server::wire::WireVerdict verdict;
  std::int64_t open_ns = 0;    ///< OPEN/RESUME appended
  std::int64_t finish_ns = 0;  ///< FINISH due (paced) or fully sent (closed)
  std::int64_t verdict_ns = 0;
};

struct Results {
  std::vector<Outcome> outcomes;
  std::uint64_t error_frames = 0;
  Outcome& at(std::size_t session) {
    if (outcomes.size() <= session) outcomes.resize(session + 1);
    return outcomes[session];
  }
};

class LoadGen {
 public:
  /// Connects and completes HELLO (v2) on every connection.
  LoadGen(Traffic& traffic, Results& results, std::uint16_t port,
          unsigned connections, SpanLog* spans = nullptr,
          bool capture = false);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// When the first HELLO_OK arrived.
  std::int64_t hello_ok_ns() const { return hello_ok_ns_; }

  /// Closed loop. `next_session` yields sessions until it returns nullopt;
  /// returns when every started session has finished its lifecycle.
  void run_closed(Lifecycle lc, std::size_t window,
                  const std::function<std::optional<std::size_t>()>& next_session);

  /// Open loop: `rate` arrivals per second for `duration_s`, each session's
  /// frames spread evenly over `stream_s`. Returns the sessions started, in
  /// arrival order, with their arrival times.
  struct Arrival {
    std::size_t session;
    std::int64_t due_ns;
  };
  std::vector<Arrival> run_paced(double rate, double stream_s, double duration_s);

  /// STATS round trip on every connection: every frame sent before it has
  /// been handled by the server.
  void settle();
  /// STATS_TEXT or METRICS_TEXT fetched on the first connection.
  std::string fetch_text(qols::server::wire::FrameType request);

  /// Closes every connection.
  void close();

  /// Generator lateness samples (ms): paced frames behind their due time;
  /// closed-loop slots refilled after a verdict freed them.
  std::vector<double> lag_ms;
  /// Bytes each connection sent, when constructed with capture = true.
  std::vector<std::vector<std::uint8_t>> captured;

 private:
  struct Conn;
  struct Slot {
    std::size_t session = 0;
    std::uint32_t step = 0;  ///< next frame of the lifecycle
    bool active = false;
    bool awaiting = false;   ///< FINISH sent, verdict pending
    std::int64_t freed_ns = 0;
  };

  /// Appends the session's next frame; returns true when its lifecycle has
  /// no frames left.
  bool append_step(Conn& c, Lifecycle lc, std::size_t session,
                   std::uint32_t& step, std::int64_t now);
  std::uint32_t steps(Lifecycle lc, std::size_t session) const;
  void on_frame(Conn& c, const qols::server::wire::Frame& f, std::int64_t now);
  /// The session will get no more answers: free its window slot.
  void end_session(std::size_t session, std::int64_t now);
  /// Sends and receives on every connection; waits up to `wait_ns` for I/O
  /// when nothing moved. Throws after 60 s without progress.
  void io(std::int64_t wait_ns);

  Traffic& traffic_;
  Results& results_;
  SpanLog* spans_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::int64_t hello_ok_ns_ = 0;
  std::int64_t last_progress_ns_ = 0;
  /// Session -> (connection, slot) while in a closed-loop window.
  std::vector<std::int64_t> slot_of_;
  std::uint64_t pending_verdicts_ = 0;
  /// Closed loops stamp FINISH when its last byte reaches the kernel;
  /// the paced loop keeps its due time.
  bool stamp_on_send_ = false;
  std::uint64_t texts_seen_ = 0;
  std::string last_text_;
};

}  // namespace perfbench
