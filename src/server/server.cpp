#include "qols/server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>
#include <utility>

namespace qols::server {

namespace {

constexpr int kListenBacklog = 256;
/// recv() chunk size. A connection reads up to kReadChunk per pool thread
/// before its frames are pumped (Server::read_ahead_).
constexpr std::size_t kReadChunk = std::size_t{1} << 16;

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

struct Server::Connection {
  Connection(BrokerShared& shared, int fd_in) : fd(fd_in), broker(shared) {}

  int fd = -1;
  SessionBroker broker;
  std::vector<std::uint8_t> write_buf;
  std::size_t write_pos = 0;
  std::uint32_t registered = 0;  ///< epoll events currently armed
  bool paused = false;           ///< reads off: write buffer over the cap
  bool closing = false;          ///< flush write_buf, then close

  std::size_t pending_out() const noexcept {
    return write_buf.size() - write_pos;
  }
  void compact() {
    if (write_pos == 0) return;
    write_buf.erase(write_buf.begin(),
                    write_buf.begin() + static_cast<std::ptrdiff_t>(write_pos));
    write_pos = 0;
  }
};

std::uint64_t Server::now_ms() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Server::Server(const Config& config)
    : config_(config), read_buf_(kReadChunk) {
  read_ahead_ = kReadChunk *
                (config_.pool != nullptr ? *config_.pool
                                         : util::ThreadPool::global())
                    .thread_count();
  service::RecognizerService::Config svc_cfg;
  svc_cfg.spec = config_.spec;
  svc_cfg.pool = config_.pool;
  svc_cfg.spill_dir = config_.spill_dir;
  svc_cfg.durable = config_.durable;
  svc_ = std::make_unique<service::RecognizerService>(std::move(svc_cfg));
  if (svc_->pending_recovery()) {
    // A prior incarnation left a manifest in spill_dir: adopt its sessions
    // before the first connection arrives. Typed recovery errors propagate —
    // a damaged directory must refuse to serve, never mis-serve.
    svc_->recover();
  }

  BrokerShared::Options opts;
  opts.max_sessions = config_.max_sessions;
  opts.preserve_on_disconnect = config_.durable;
  shared_ = std::make_unique<BrokerShared>(*svc_, opts);
  shared_->stats_hook = [this](util::json::Value& doc) {
    auto& srv = doc.set("server", util::json::Value::object());
    srv.set("connections",
            static_cast<std::uint64_t>(connections_.size()));
    srv.set("connections_accepted", counters_.connections_accepted);
    srv.set("connections_closed", counters_.connections_closed);
    srv.set("accept_rejected", counters_.accept_rejected);
    srv.set("backpressure_pauses", counters_.backpressure_pauses);
    srv.set("sessions_abandoned", counters_.sessions_abandoned);
    srv.set("idle_evictions", counters_.idle_evictions);
    srv.set("bytes_in", counters_.bytes_in);
    srv.set("bytes_out", counters_.bytes_out);
    srv.set("sessions_persisted", counters_.sessions_persisted);
    srv.set("draining", draining_);
  };

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");

  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw_errno("eventfd");
  epoll_event wev{};
  wev.events = EPOLLIN;
  wev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wev) < 0) {
    throw_errno("epoll_ctl(wake)");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    throw_errno("inet_pton (IPv4 address expected)");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    throw_errno("bind");
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) throw_errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  epoll_event lev{};
  lev.events = EPOLLIN;
  lev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &lev) < 0) {
    throw_errno("epoll_ctl(listen)");
  }
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (reserve_fd_ < 0) throw_errno("open(/dev/null)");
}

Server::~Server() {
  // Brokers abandon their sessions in their destructors; connections_ must
  // die before shared_/svc_, which member order already guarantees — but
  // fds are ours to close.
  for (const auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Server::shutdown() noexcept {
  shutdown_requested_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  // Best effort: if the write fails the sweep timeout still notices.
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void Server::update_interest(Connection& conn) {
  std::uint32_t want = 0;
  if (!conn.closing && !conn.paused) want |= EPOLLIN;
  if (conn.pending_out() > 0) want |= EPOLLOUT;
  if (want == conn.registered) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.registered = want;
  }
}

void Server::close_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  counters_.sessions_abandoned += it->second->broker.abandon_sessions();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(it);
  ++counters_.connections_closed;
}

bool Server::flush_writes(Connection& conn) {
  while (conn.pending_out() > 0) {
    const ssize_t n =
        ::send(conn.fd, conn.write_buf.data() + conn.write_pos,
               conn.pending_out(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.write_pos += static_cast<std::size_t>(n);
      counters_.bytes_out += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer is gone (EPIPE, ECONNRESET, ...)
  }
  conn.compact();
  return true;
}

void Server::pump_connection(Connection& conn, std::uint64_t now) {
  for (;;) {
    conn.compact();
    const auto result =
        conn.broker.pump(conn.write_buf, config_.write_buffer_cap, now);
    if (result == SessionBroker::PumpResult::kClose) {
      conn.closing = true;
      break;
    }
    if (!flush_writes(conn)) {
      close_connection(conn.fd);
      return;
    }
    if (!conn.broker.has_buffered_frames()) break;
    // Frames remain because the write buffer is full: wait for EPOLLOUT to
    // drain below half the cap before decoding more.
    if (conn.pending_out() >= config_.write_buffer_cap / 2) break;
  }
  const bool pause = !conn.closing &&
                     (conn.pending_out() >= config_.write_buffer_cap ||
                      conn.broker.has_buffered_frames());
  if (pause && !conn.paused) ++counters_.backpressure_pauses;
  conn.paused = pause;
  if (conn.closing && conn.pending_out() == 0) {
    close_connection(conn.fd);
    return;
  }
  update_interest(conn);
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      if ((errno == EMFILE || errno == ENFILE) && shed_queued_peer()) continue;
      return;  // transient accept errors (ECONNABORTED) drop the peer
    }
    if (connections_.size() >= config_.max_connections) {
      ::close(fd);
      ++counters_.accept_rejected;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.so_sndbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.so_sndbuf,
                   sizeof(config_.so_sndbuf));
    }
    auto conn = std::make_unique<Connection>(*shared_, fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conn->registered = EPOLLIN;
    connections_.emplace(fd, std::move(conn));
    ++counters_.connections_accepted;
  }
}

bool Server::shed_queued_peer() {
  // Out of fds, the peer would stay queued and keep the level-triggered
  // listen fd readable: epoll_wait would return at once, forever. Spend the
  // reserve fd to accept it, close it, then take the reserve back.
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
  const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd >= 0) {
    ::close(fd);
    ++counters_.accept_rejected;
  }
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  return fd >= 0;
}

void Server::connection_ready(Connection& conn, std::uint32_t events,
                              std::uint64_t now) {
  const int fd = conn.fd;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    close_connection(fd);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!flush_writes(conn)) {
      close_connection(fd);
      return;
    }
    if (conn.closing && conn.pending_out() == 0) {
      close_connection(fd);
      return;
    }
    // Room again: resume decoding frames parked by backpressure.
    if (conn.broker.has_buffered_frames() &&
        conn.pending_out() < config_.write_buffer_cap / 2) {
      pump_connection(conn, now);
      if (connections_.find(fd) == connections_.end()) return;
    } else {
      conn.paused = conn.pending_out() >= config_.write_buffer_cap ||
                    conn.broker.has_buffered_frames();
      update_interest(conn);
    }
  }
  if ((events & EPOLLIN) != 0 && !conn.closing) {
    for (;;) {
      // Read ahead up to read_ahead_ bytes before pumping, so one pump sees
      // enough FINISH frames to batch them across the pool.
      std::size_t got = 0;
      bool drained = false;  // EAGAIN: the socket is empty for now
      bool gone = false;     // orderly close or a socket error
      while (got < read_ahead_) {
        const ssize_t n =
            ::recv(conn.fd, read_buf_.data(), read_buf_.size(), 0);
        if (n > 0) {
          counters_.bytes_in += static_cast<std::uint64_t>(n);
          conn.broker.ingest({read_buf_.data(), static_cast<std::size_t>(n)});
          got += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        drained = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
        gone = !drained;
        break;
      }
      if (got > 0) {
        pump_connection(conn, now);
        if (connections_.find(fd) == connections_.end()) return;
        // Backpressure: stop reading. A seen close is read again on resume.
        if (conn.paused || conn.closing) return;
      }
      if (gone) {
        close_connection(fd);
        return;
      }
      if (drained) return;
    }
  }
}

void Server::begin_drain(std::uint64_t now) {
  draining_ = true;
  shared_->draining = true;
  drain_deadline_ms_ = now + config_.drain_timeout_ms;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::sweep(std::uint64_t now) {
  if (config_.idle_evict_ms > 0 && now >= config_.idle_evict_ms) {
    const std::uint64_t cutoff = now - config_.idle_evict_ms;
    for (const auto& [fd, conn] : connections_) {
      counters_.idle_evictions += conn->broker.evict_idle(cutoff);
    }
  }
  if (!draining_) return;
  const bool expired = now >= drain_deadline_ms_;
  // A persisting shutdown does not wait for verdicts: once a connection's
  // ingested frames are processed and its responses flushed, it closes (the
  // broker releases its sessions for the post-drain persist()).
  const bool persisting = config_.durable && config_.persist_on_shutdown;
  std::vector<int> doomed;
  for (const auto& [fd, conn] : connections_) {
    const bool quiesced = !conn->broker.has_buffered_frames() &&
                          conn->pending_out() == 0;
    const bool done =
        quiesced && (persisting || conn->broker.open_sessions() == 0);
    if (done || expired) doomed.push_back(fd);
  }
  for (const int fd : doomed) close_connection(fd);
}

void Server::run() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!(draining_ && connections_.empty())) {
    const bool timed = draining_ || config_.idle_evict_ms > 0;
    const int timeout = timed ? config_.sweep_interval_ms : -1;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
    const std::uint64_t now = now_ms();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        accept_ready();
      } else if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const auto r =
            ::read(wake_fd_, &drained, sizeof(drained));
      } else {
        // The connection may have been closed by an earlier event in this
        // same batch; look it up fresh.
        const auto it = connections_.find(fd);
        if (it != connections_.end()) {
          connection_ready(*it->second, events[i].events, now);
        }
      }
    }
    if (shutdown_requested_.load(std::memory_order_acquire) && !draining_) {
      begin_drain(now_ms());
    }
    sweep(now_ms());
  }
  if (config_.durable && config_.persist_on_shutdown) {
    // Every connection is gone (their brokers released, not finished, their
    // sessions): checkpoint the lot for the next incarnation to recover().
    counters_.sessions_persisted = svc_->persist();
  }
}

}  // namespace qols::server
