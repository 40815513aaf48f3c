#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <queue>
#include <stdexcept>
#include <string>
#include <system_error>

namespace perfbench {

namespace wire = qols::server::wire;

namespace {

/// Frames are generated while a connection's unsent bytes stay below this.
constexpr std::size_t kHighWater = std::size_t{1} << 18;
constexpr std::int64_t kStallNs = 60'000'000'000LL;

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

struct LoadGen::Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  std::uint64_t appended = 0;  ///< bytes ever appended
  std::uint64_t sent = 0;      ///< bytes ever sent
  wire::FrameDecoder dec;
  bool hello_ok = false;
  std::vector<Slot> slots;
  std::size_t rr = 0;
  std::size_t active = 0;
  /// Frames appended but not yet fully handed to the kernel: FEEDs when
  /// tracing (for their spans), FINISHes in closed loops (for their stamp).
  struct Unsent {
    std::uint64_t end;
    std::size_t session;
    std::int64_t start;
    bool finish;
  };
  std::deque<Unsent> unsent;
  std::vector<std::uint8_t>* capture = nullptr;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  std::size_t pending() const { return out.size() - out_pos; }
};

LoadGen::LoadGen(Traffic& traffic, Results& results, std::uint16_t port,
                 unsigned connections, SpanLog* spans, bool capture)
    : traffic_(traffic),
      results_(results),
      spans_(spans != nullptr && spans->on ? spans : nullptr) {
  if (capture) captured.resize(connections);
  for (unsigned i = 0; i < connections; ++i) {
    auto c = std::make_unique<Conn>();
    c->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c->fd < 0) throw_errno("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c->fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      throw_errno("connect");
    }
    const int one = 1;
    ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int flags = ::fcntl(c->fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(c->fd, F_SETFL, flags | O_NONBLOCK) < 0) {
      throw_errno("fcntl");
    }
    if (capture) c->capture = &captured[i];
    wire::append_hello(c->out, {wire::kProtocolVersion, wire::kAnyKind});
    if (c->capture != nullptr) c->capture->assign(c->out.begin(), c->out.end());
    c->appended = c->out.size();
    conns_.push_back(std::move(c));
  }
  last_progress_ns_ = now_ns();
  for (;;) {
    bool all = true;
    for (const auto& c : conns_) all = all && c->hello_ok;
    if (all) break;
    io(1'000'000);
  }
}

LoadGen::~LoadGen() = default;

void LoadGen::close() { conns_.clear(); }

std::uint32_t LoadGen::steps(Lifecycle lc, std::size_t session) const {
  const SessionPlan& p = traffic_.plan(session);
  const auto frames = static_cast<std::uint32_t>(p.frames.size());
  switch (lc) {
    case Lifecycle::kFull: return frames + 2;
    case Lifecycle::kOpenHalf: return p.split + 1;
    case Lifecycle::kResumeRest: return frames - p.split + 2;
  }
  return 0;
}

bool LoadGen::append_step(Conn& c, Lifecycle lc, std::size_t session,
                          std::uint32_t& step, std::int64_t stamp) {
  const SessionPlan& p = traffic_.plan(session);
  const std::uint64_t id = session + 1;
  const std::uint32_t first = lc == Lifecycle::kResumeRest ? p.split : 0;
  const std::uint32_t last =
      lc == Lifecycle::kOpenHalf ? p.split
                                 : static_cast<std::uint32_t>(p.frames.size());
  const std::size_t before = c.out.size();
  bool feed = false;
  if (step == 0) {
    if (lc == Lifecycle::kResumeRest) {
      wire::append_resume(c.out, {id});
      Outcome& o = results_.at(session);
      o.finish_sent = o.ended = o.verdict_seen = false;
      o.open_ns = stamp;
    } else {
      results_.at(session) = Outcome{};
      results_.at(session).open_ns = stamp;
      wire::append_open(c.out, {id, p.seed});
    }
  } else if (step <= last - first) {
    const std::uint32_t frame = first + step - 1;
    std::size_t offset = 0;
    for (std::uint32_t i = 0; i < frame; ++i) offset += p.frames[i];
    const auto& word = traffic_.word_of(session);
    wire::append_feed(c.out, id,
                      std::span<const Symbol>(word.data() + offset,
                                              p.frames[frame]));
    feed = true;
  } else {
    wire::append_finish(c.out, {id});
    Outcome& o = results_.at(session);
    o.finish_ns = stamp;
    o.finish_sent = true;
  }
  if (c.capture != nullptr) {
    c.capture->insert(c.capture->end(),
                      c.out.begin() + static_cast<std::ptrdiff_t>(before),
                      c.out.end());
  }
  c.appended += c.out.size() - before;
  if (feed && spans_ != nullptr) c.unsent.push_back({c.appended, session, stamp, false});
  if (!feed && step > 0 && stamp_on_send_) c.unsent.push_back({c.appended, session, stamp, true});
  ++step;
  return step == steps(lc, session);
}

void LoadGen::end_session(std::size_t s, std::int64_t now) {
  Outcome& o = results_.at(s);
  if (o.ended) return;
  o.ended = true;
  if (pending_verdicts_ > 0) --pending_verdicts_;
  if (s < slot_of_.size() && slot_of_[s] >= 0) {
    const auto packed = static_cast<std::uint64_t>(slot_of_[s]);
    Conn& owner = *conns_[packed >> 32];
    Slot& slot = owner.slots[packed & 0xffffffffULL];
    slot.active = false;
    slot.awaiting = false;
    slot.freed_ns = now;
    --owner.active;
    slot_of_[s] = -1;
  }
}

void LoadGen::on_frame(Conn& c, const wire::Frame& f, std::int64_t now) {
  switch (f.type) {
    case wire::FrameType::kHelloOk:
      (void)wire::read_hello_ok(f.payload);
      c.hello_ok = true;
      if (hello_ok_ns_ == 0) hello_ok_ns_ = now;
      return;
    case wire::FrameType::kOpenOk:
    case wire::FrameType::kResumeOk: {
      const bool open = f.type == wire::FrameType::kOpenOk;
      const std::uint64_t id = open ? wire::read_open_ok(f.payload).session
                                    : wire::read_resume_ok(f.payload).session;
      if (spans_ != nullptr && id >= 1) {
        spans_->add(id, open ? "open" : "resume", "loopback",
                    results_.at(id - 1).open_ns, now);
      }
      return;
    }
    case wire::FrameType::kVerdict: {
      const auto v = wire::read_verdict(f.payload);
      if (v.session == 0) throw std::runtime_error("verdict for session 0");
      Outcome& o = results_.at(v.session - 1);
      o.verdict_seen = true;
      o.verdict = v;
      o.verdict_ns = now;
      if (spans_ != nullptr) {
        spans_->add(v.session, "finish", "loopback", o.finish_ns, now);
      }
      end_session(v.session - 1, now);
      return;
    }
    case wire::FrameType::kError: {
      const auto e = wire::read_error(f.payload);
      ++results_.error_frames;
      if (wire::error_is_fatal(e.code)) {
        throw std::runtime_error(std::string("fatal server error ") +
                                 wire::error_code_name(e.code) + ": " +
                                 e.message);
      }
      if (e.session == 0) return;
      Outcome& o = results_.at(e.session - 1);
      o.errored = true;
      // An error once FINISH is out means no verdict will come.
      if (o.finish_sent) end_session(e.session - 1, now);
      return;
    }
    case wire::FrameType::kStatsText:
    case wire::FrameType::kMetricsText:
      last_text_ = wire::read_text(f.payload);
      ++texts_seen_;
      return;
    default:
      throw std::runtime_error("unexpected frame from server");
  }
}

void LoadGen::io(std::int64_t wait_ns) {
  bool progress = false;
  std::int64_t now = now_ns();
  for (auto& cp : conns_) {
    Conn& c = *cp;
    while (c.pending() > 0) {
      const ssize_t n =
          ::send(c.fd, c.out.data() + c.out_pos, c.pending(), MSG_NOSIGNAL);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
        c.sent += static_cast<std::uint64_t>(n);
        progress = true;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      throw_errno("send");
    }
    if (c.out_pos == c.out.size()) {
      c.out.clear();
      c.out_pos = 0;
    }
    if (!c.unsent.empty()) {
      now = now_ns();
      while (!c.unsent.empty() && c.unsent.front().end <= c.sent) {
        const Conn::Unsent& u = c.unsent.front();
        if (u.finish) {
          results_.at(u.session).finish_ns = now;
        } else {
          spans_->add(u.session + 1, "feed", "loopback", u.start, now);
        }
        c.unsent.pop_front();
      }
    }
  }
  for (auto& cp : conns_) {
    Conn& c = *cp;
    std::uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.dec.append({buf, static_cast<std::size_t>(n)});
        progress = true;
        continue;
      }
      if (n == 0) throw std::runtime_error("server closed a connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (c.dec.frame_available()) {
      now = now_ns();
      while (auto f = c.dec.next()) on_frame(c, *f, now);
    }
  }
  now = now_ns();
  if (progress) {
    last_progress_ns_ = now;
    return;
  }
  if (now - last_progress_ns_ > kStallNs) {
    throw std::runtime_error("load generator: no progress for 60 s");
  }
  if (wait_ns <= 0) return;
  std::vector<pollfd> fds;
  for (const auto& c : conns_) {
    fds.push_back({c->fd, static_cast<short>(POLLIN | (c->pending() > 0 ? POLLOUT : 0)), 0});
  }
  timespec ts{wait_ns / 1'000'000'000, wait_ns % 1'000'000'000};
  ::ppoll(fds.data(), fds.size(), &ts, nullptr);
}

void LoadGen::run_closed(
    Lifecycle lc, std::size_t window,
    const std::function<std::optional<std::size_t>()>& next_session) {
  const bool has_finish = lc != Lifecycle::kOpenHalf;
  stamp_on_send_ = true;
  for (auto& c : conns_) {
    c->slots.assign(std::max<std::size_t>(1, window), Slot{});
    c->rr = 0;
    c->active = 0;
  }
  bool source_done = false;
  for (;;) {
    const std::int64_t now = now_ns();
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      Conn& c = *conns_[ci];
      std::size_t scanned = 0;
      while (c.pending() < kHighWater && scanned < c.slots.size()) {
        const std::size_t si = c.rr;
        Slot& s = c.slots[si];
        c.rr = (c.rr + 1) % c.slots.size();
        ++scanned;
        if (!s.active) {
          if (source_done) continue;
          const auto next = next_session();
          if (!next) {
            source_done = true;
            continue;
          }
          if (s.freed_ns > 0) lag_ms.push_back(ns_to_ms(now - s.freed_ns));
          s = Slot{*next, 0, true, false, 0};
          ++c.active;
          if (slot_of_.size() <= *next) slot_of_.resize(*next + 1, -1);
          slot_of_[*next] = static_cast<std::int64_t>((ci << 32) | si);
        }
        if (s.awaiting) continue;
        scanned = 0;
        if (!append_step(c, lc, s.session, s.step, now)) continue;
        if (has_finish) {
          s.awaiting = true;
          ++pending_verdicts_;
        } else {
          s.active = false;
          --c.active;
          slot_of_[s.session] = -1;
        }
      }
    }
    bool idle = source_done;
    for (const auto& c : conns_) {
      idle = idle && c->active == 0 && c->pending() == 0 && c->unsent.empty();
    }
    if (idle) return;
    io(1'000'000);
  }
}

std::vector<LoadGen::Arrival> LoadGen::run_paced(double rate, double stream_s,
                                                 double duration_s) {
  struct Due {
    std::int64_t due;
    std::int64_t arrival;
    std::size_t session;
    std::uint32_t step;
    std::uint32_t conn;
    bool operator>(const Due& o) const { return due > o.due; }
  };
  std::priority_queue<Due, std::vector<Due>, std::greater<>> heap;
  stamp_on_send_ = false;
  std::vector<Arrival> arrivals;
  const auto total = static_cast<std::size_t>(std::floor(duration_s * rate));
  const double interval_ns = 1e9 / rate;
  const auto stream_ns = static_cast<std::int64_t>(stream_s * 1e9);
  const std::int64_t start = now_ns() + 1'000'000;
  std::size_t next_arrival = 0;
  auto arrival_due = [&](std::size_t i) {
    return start + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
  };
  for (;;) {
    std::int64_t now = now_ns();
    while (next_arrival < total && arrival_due(next_arrival) <= now) {
      const std::size_t s = traffic_.add_session(false);
      const std::int64_t due = arrival_due(next_arrival);
      arrivals.push_back({s, due});
      heap.push({due, due, s, 0,
                 static_cast<std::uint32_t>(next_arrival % conns_.size())});
      ++next_arrival;
    }
    while (!heap.empty() && heap.top().due <= now) {
      Due d = heap.top();
      heap.pop();
      lag_ms.push_back(ns_to_ms(now - d.due));
      const std::uint32_t n = steps(Lifecycle::kFull, d.session);
      if (append_step(*conns_[d.conn], Lifecycle::kFull, d.session, d.step,
                      d.due)) {
        ++pending_verdicts_;
        continue;
      }
      d.due = d.arrival + stream_ns * d.step / (n - 1);
      heap.push(d);
    }
    bool sent = true;
    for (const auto& c : conns_) sent = sent && c->pending() == 0 && c->unsent.empty();
    if (next_arrival == total && heap.empty() && pending_verdicts_ == 0 && sent) {
      return arrivals;
    }
    std::int64_t next_due = now + 1'000'000;
    if (!heap.empty()) next_due = std::min(next_due, heap.top().due);
    if (next_arrival < total) next_due = std::min(next_due, arrival_due(next_arrival));
    now = now_ns();
    io(std::max<std::int64_t>(0, next_due - now));
  }
}

void LoadGen::settle() {
  const std::uint64_t want = texts_seen_ + conns_.size();
  for (auto& c : conns_) {
    const std::size_t before = c->out.size();
    wire::append_frame(c->out, wire::FrameType::kStats, {});
    c->appended += c->out.size() - before;
  }
  while (texts_seen_ < want) io(1'000'000);
}

std::string LoadGen::fetch_text(wire::FrameType request) {
  const std::uint64_t want = texts_seen_ + 1;
  Conn& c = *conns_.front();
  const std::size_t before = c.out.size();
  wire::append_frame(c.out, request, {});
  c.appended += c.out.size() - before;
  while (texts_seen_ < want) io(1'000'000);
  return last_text_;
}

}  // namespace perfbench
