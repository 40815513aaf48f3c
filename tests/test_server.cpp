// Unit tests: the network subsystem — wire codec round trips, hostile-frame
// rejection in the FrameDecoder and SessionBroker, and loopback end-to-end
// runs against a live epoll Server: framing-invariant verdicts, write-side
// backpressure, idle eviction + transparent revive, graceful drain (also
// with 10^4 sessions in flight), and the accept loop under fd exhaustion.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <functional>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "qols/lang/ldisj_instance.hpp"
#include "qols/machine/online_recognizer.hpp"
#include "qols/server/server.hpp"
#include "qols/server/session_broker.hpp"
#include "qols/server/wire.hpp"
#include "qols/service/recognizer_service.hpp"
#include "qols/util/rng.hpp"
#include "qols/util/serde.hpp"

namespace {

namespace wire = qols::server::wire;
using qols::lang::LDisjInstance;
using qols::server::BrokerShared;
using qols::server::Server;
using qols::server::SessionBroker;
using qols::service::RecognizerKind;
using qols::service::RecognizerService;
using qols::service::RecognizerSpec;
using qols::stream::Symbol;
using qols::util::serde::DecodeError;

std::vector<Symbol> word_of(const LDisjInstance& inst) {
  std::vector<Symbol> out;
  auto s = inst.stream();
  while (auto sym = s->next()) out.push_back(*sym);
  return out;
}

/// The reference every wire verdict must match bit for bit.
struct DirectOutcome {
  bool accepted;
  bool fully_simulated;
  std::uint64_t classical_bits;
  std::uint64_t qubits;
};

DirectOutcome direct_run(const RecognizerSpec& spec, std::uint64_t seed,
                         const std::vector<Symbol>& word) {
  auto rec = spec.make(seed);
  rec->feed_chunk(word);
  DirectOutcome out{};
  out.accepted = rec->finish();
  out.fully_simulated = rec->fully_simulated();
  const auto space = rec->space_used();
  out.classical_bits = space.classical_bits;
  out.qubits = space.qubits;
  return out;
}

void expect_verdict_matches(const wire::WireVerdict& v,
                            const DirectOutcome& ref, const char* what) {
  EXPECT_EQ(v.accepted, ref.accepted) << what;
  EXPECT_EQ(v.fully_simulated, ref.fully_simulated) << what;
  EXPECT_EQ(v.classical_bits, ref.classical_bits) << what;
  EXPECT_EQ(v.qubits, ref.qubits) << what;
}

// ---------------------------------------------------------------------------
// A minimal blocking test client: deterministic, one connection each.

class TestClient {
 public:
  /// `rcvbuf` > 0 shrinks SO_RCVBUF before connecting (so the window is
  /// negotiated small) — the backpressure test uses it to keep the kernel
  /// from absorbing the server's responses on loopback.
  explicit TestClient(std::uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("connect() failed");
    }
  }
  ~TestClient() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send_all(std::span<const std::uint8_t> bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + done, bytes.size() - done, 0);
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      done += static_cast<std::size_t>(n);
    }
  }

  /// Blocks (with a 10 s guard) until one complete frame arrives.
  wire::Frame next_frame() {
    for (;;) {
      if (auto f = decoder_.next()) return *f;
      pollfd p{fd_, POLLIN, 0};
      const int r = ::poll(&p, 1, 10'000);
      if (r <= 0) throw std::runtime_error("next_frame: timeout");
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) throw std::runtime_error("next_frame: connection closed");
      decoder_.append({buf, static_cast<std::size_t>(n)});
    }
  }

  /// True when the server closed the connection (EOF), draining any
  /// trailing bytes first.
  bool wait_eof() {
    for (;;) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 10'000) <= 0) return false;
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
      decoder_.append({buf, static_cast<std::size_t>(n)});
    }
  }

  void hello() {
    std::vector<std::uint8_t> out;
    wire::append_hello(out, {});
    send_all(out);
    const auto f = next_frame();
    ASSERT_EQ(f.type, wire::FrameType::kHelloOk);
  }

  void open(std::uint64_t session, std::uint64_t seed) {
    std::vector<std::uint8_t> out;
    wire::append_open(out, {session, seed});
    send_all(out);
    const auto f = next_frame();
    ASSERT_EQ(f.type, wire::FrameType::kOpenOk);
    EXPECT_EQ(wire::read_open_ok(f.payload).session, session);
  }

  wire::WireVerdict finish(std::uint64_t session) {
    std::vector<std::uint8_t> out;
    wire::append_finish(out, {session});
    send_all(out);
    const auto f = next_frame();
    if (f.type != wire::FrameType::kVerdict) {
      throw std::runtime_error(std::string("finish: got ") +
                               wire::frame_type_name(f.type));
    }
    return wire::read_verdict(f.payload);
  }

  int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
  wire::FrameDecoder decoder_;
};

/// Runs server.run() on a worker thread for one test's lifetime.
class ServerRunner {
 public:
  explicit ServerRunner(const Server::Config& cfg)
      : server_(cfg), thread_([this] { server_.run(); }) {}
  ~ServerRunner() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_.shutdown();
      thread_.join();
    }
  }

  Server& server() noexcept { return server_; }
  std::uint16_t port() const noexcept { return server_.port(); }

 private:
  Server server_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Wire codec

TEST(WireCodec, RoundTripsEveryPayloadType) {
  std::vector<std::uint8_t> bytes;
  wire::append_hello(bytes, {wire::kProtocolVersion, 3});
  wire::append_hello_ok(bytes, {wire::kProtocolVersion, 4, true, 77});
  wire::append_open(bytes, {42, 0xdead'beef});
  wire::append_open_ok(bytes, {42});
  const std::vector<Symbol> syms = {Symbol::kOne, Symbol::kSep, Symbol::kZero};
  wire::append_feed(bytes, 42, syms);
  wire::append_finish(bytes, {42});
  wire::append_verdict(bytes, {42, true, false, 123, 9});
  wire::append_text(bytes, wire::FrameType::kStatsText, "{\"a\":1}");
  wire::append_error(bytes,
                     {wire::ErrorCode::kUnknownSession, 7, "no such id"});

  wire::FrameDecoder dec;
  dec.append(bytes);

  auto f = dec.next();
  ASSERT_TRUE(f && f->type == wire::FrameType::kHello);
  const auto hello = wire::read_hello(f->payload);
  EXPECT_EQ(hello.version, wire::kProtocolVersion);
  EXPECT_EQ(hello.kind_tag, 3);

  f = dec.next();
  ASSERT_TRUE(f && f->type == wire::FrameType::kHelloOk);
  const auto hok = wire::read_hello_ok(f->payload);
  EXPECT_EQ(hok.kind, 4);
  EXPECT_TRUE(hok.float_amplitudes);
  EXPECT_EQ(hok.max_sessions, 77u);

  f = dec.next();
  ASSERT_TRUE(f && f->type == wire::FrameType::kOpen);
  const auto open = wire::read_open(f->payload);
  EXPECT_EQ(open.session, 42u);
  EXPECT_EQ(open.seed, 0xdead'beefu);

  f = dec.next();
  ASSERT_TRUE(f && f->type == wire::FrameType::kOpenOk);
  EXPECT_EQ(wire::read_open_ok(f->payload).session, 42u);

  f = dec.next();
  ASSERT_TRUE(f && f->type == wire::FrameType::kFeed);
  const auto feed = wire::read_feed(f->payload);
  EXPECT_EQ(feed.session, 42u);
  ASSERT_EQ(feed.symbols.size(), syms.size());
  EXPECT_TRUE(std::equal(syms.begin(), syms.end(), feed.symbols.begin()));

  f = dec.next();
  ASSERT_TRUE(f && f->type == wire::FrameType::kFinish);
  EXPECT_EQ(wire::read_finish(f->payload).session, 42u);

  f = dec.next();
  ASSERT_TRUE(f && f->type == wire::FrameType::kVerdict);
  const auto v = wire::read_verdict(f->payload);
  EXPECT_EQ(v.session, 42u);
  EXPECT_TRUE(v.accepted);
  EXPECT_FALSE(v.fully_simulated);
  EXPECT_EQ(v.classical_bits, 123u);
  EXPECT_EQ(v.qubits, 9u);

  f = dec.next();
  ASSERT_TRUE(f && f->type == wire::FrameType::kStatsText);
  EXPECT_EQ(wire::read_text(f->payload), "{\"a\":1}");

  f = dec.next();
  ASSERT_TRUE(f && f->type == wire::FrameType::kError);
  const auto err = wire::read_error(f->payload);
  EXPECT_EQ(err.code, wire::ErrorCode::kUnknownSession);
  EXPECT_EQ(err.session, 7u);
  EXPECT_EQ(err.message, "no such id");

  EXPECT_FALSE(dec.next());
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(WireCodec, DecoderReassemblesByteByByte) {
  // The most adversarial legal framing: every byte arrives alone. Each
  // frame must complete exactly when its last byte lands.
  std::vector<std::uint8_t> bytes;
  wire::append_open(bytes, {1, 2});
  wire::append_finish(bytes, {1});
  wire::append_frame(bytes, wire::FrameType::kStats, {});

  wire::FrameDecoder dec;
  std::vector<wire::FrameType> seen;
  for (const std::uint8_t b : bytes) {
    dec.append({&b, 1});
    while (auto f = dec.next()) seen.push_back(f->type);
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], wire::FrameType::kOpen);
  EXPECT_EQ(seen[1], wire::FrameType::kFinish);
  EXPECT_EQ(seen[2], wire::FrameType::kStats);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(WireCodec, DecoderRejectsOversizedLengthPrefixBeforeAllocating) {
  // 0xffffffff payload length: hostile by definition. frame_available()
  // must say true (so callers reach the throwing next()) and next() must
  // throw instead of trying to buffer 4 GiB.
  const std::uint8_t hostile[] = {0xff, 0xff, 0xff, 0xff, 0x03};
  wire::FrameDecoder dec;
  dec.append(hostile);
  EXPECT_TRUE(dec.frame_available());
  EXPECT_THROW(dec.next(), DecodeError);
}

TEST(WireCodec, ReadersRejectTruncatedAndTrailingPayloads) {
  // Truncated OPEN (one u64 short) and an OPEN with trailing garbage: both
  // must throw, not read out of bounds or silently ignore bytes.
  std::vector<std::uint8_t> good;
  wire::append_open(good, {5, 6});
  const std::span<const std::uint8_t> payload(
      good.data() + wire::kFrameHeaderSize, good.size() - wire::kFrameHeaderSize);
  EXPECT_NO_THROW(wire::read_open(payload));
  EXPECT_THROW(wire::read_open(payload.subspan(0, payload.size() - 1)),
               DecodeError);
  std::vector<std::uint8_t> trailing(payload.begin(), payload.end());
  trailing.push_back(0);
  EXPECT_THROW(wire::read_open(trailing), DecodeError);
  EXPECT_THROW(wire::read_finish({}), DecodeError);
}

TEST(WireCodec, ReadFeedRejectsInvalidSymbolBytes) {
  std::vector<std::uint8_t> frame;
  wire::append_feed(frame, 1,
                    std::vector<Symbol>{Symbol::kZero, Symbol::kOne});
  std::span<std::uint8_t> payload(frame.data() + wire::kFrameHeaderSize,
                                  frame.size() - wire::kFrameHeaderSize);
  EXPECT_NO_THROW(wire::read_feed(payload));
  payload[8] = 0x03;  // first symbol byte: > kSep
  EXPECT_THROW(wire::read_feed(payload), DecodeError);
}

// ---------------------------------------------------------------------------
// SessionBroker (socket-free): hostile frames produce typed errors, never
// crashes; recoverable errors leave the connection alive.

struct BrokerFixture {
  RecognizerService svc;
  BrokerShared shared;
  SessionBroker broker;
  std::vector<std::uint8_t> out;

  static RecognizerService::Config service_config() {
    RecognizerService::Config cfg;
    cfg.spec.kind = RecognizerKind::kClassicalBlock;
    return cfg;
  }

  explicit BrokerFixture(BrokerShared::Options opts = {})
      : svc(service_config()), shared(svc, opts), broker(shared) {}

  SessionBroker::PumpResult feed_bytes(std::span<const std::uint8_t> bytes) {
    broker.ingest(bytes);
    return broker.pump(out, std::size_t{1} << 24);
  }

  /// Decodes every response frame accumulated so far and clears the buffer.
  std::vector<std::pair<wire::FrameType, std::vector<std::uint8_t>>>
  drain_responses() {
    wire::FrameDecoder dec;
    dec.append(out);
    out.clear();
    std::vector<std::pair<wire::FrameType, std::vector<std::uint8_t>>> frames;
    while (auto f = dec.next()) {
      frames.emplace_back(
          f->type, std::vector<std::uint8_t>(f->payload.begin(),
                                             f->payload.end()));
    }
    EXPECT_EQ(dec.buffered_bytes(), 0u);
    return frames;
  }

  void do_hello() {
    std::vector<std::uint8_t> bytes;
    wire::append_hello(bytes, {});
    ASSERT_EQ(feed_bytes(bytes), SessionBroker::PumpResult::kIdle);
    const auto frames = drain_responses();
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(frames[0].first, wire::FrameType::kHelloOk);
  }
};

/// Asserts the (single) response is an ERROR frame with `code`.
void expect_error(BrokerFixture& fx, wire::ErrorCode code) {
  const auto frames = fx.drain_responses();
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].first, wire::FrameType::kError);
  EXPECT_EQ(wire::read_error(frames[0].second).code, code);
}

TEST(SessionBroker, RejectsFramesBeforeHello) {
  BrokerFixture fx;
  std::vector<std::uint8_t> bytes;
  wire::append_open(bytes, {1, 1});
  EXPECT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kClose);
  expect_error(fx, wire::ErrorCode::kProtocolError);
  EXPECT_TRUE(fx.broker.closed());
}

TEST(SessionBroker, RejectsWrongProtocolVersion) {
  BrokerFixture fx;
  std::vector<std::uint8_t> bytes;
  wire::append_hello(bytes, {wire::kProtocolVersion + 1, wire::kAnyKind});
  EXPECT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kClose);
  expect_error(fx, wire::ErrorCode::kBadVersion);
}

TEST(SessionBroker, RejectsKindMismatch) {
  BrokerFixture fx;  // serves classical-block
  std::vector<std::uint8_t> bytes;
  wire::append_hello(
      bytes, {wire::kProtocolVersion,
              static_cast<std::uint8_t>(RecognizerKind::kQuantum)});
  EXPECT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kClose);
  expect_error(fx, wire::ErrorCode::kSpecMismatch);
}

TEST(SessionBroker, RejectsDuplicateHello) {
  BrokerFixture fx;
  fx.do_hello();
  std::vector<std::uint8_t> bytes;
  wire::append_hello(bytes, {});
  EXPECT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kClose);
  expect_error(fx, wire::ErrorCode::kProtocolError);
}

TEST(SessionBroker, RejectsUnknownFrameType) {
  BrokerFixture fx;
  fx.do_hello();
  std::vector<std::uint8_t> bytes;
  wire::append_frame(bytes, static_cast<wire::FrameType>(0x55), {});
  EXPECT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kClose);
  expect_error(fx, wire::ErrorCode::kProtocolError);
}

TEST(SessionBroker, RejectsServerToClientFrameFromClient) {
  BrokerFixture fx;
  fx.do_hello();
  std::vector<std::uint8_t> bytes;
  wire::append_verdict(bytes, {1, true, true, 0, 0});
  EXPECT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kClose);
  expect_error(fx, wire::ErrorCode::kProtocolError);
}

TEST(SessionBroker, RejectsTruncatedOpenPayload) {
  BrokerFixture fx;
  fx.do_hello();
  // A hand-built OPEN frame with a 12-byte payload (needs 16).
  std::vector<std::uint8_t> bytes = {12, 0, 0, 0,
                                     static_cast<std::uint8_t>(
                                         wire::FrameType::kOpen)};
  bytes.resize(bytes.size() + 12, 0);
  EXPECT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kClose);
  expect_error(fx, wire::ErrorCode::kMalformedFrame);
}

TEST(SessionBroker, RejectsInvalidFeedSymbolByte) {
  BrokerFixture fx;
  fx.do_hello();
  std::vector<std::uint8_t> open;
  wire::append_open(open, {1, 1});
  fx.feed_bytes(open);
  fx.drain_responses();
  std::vector<std::uint8_t> feed;
  wire::append_feed(feed, 1, std::vector<Symbol>{Symbol::kZero});
  feed[wire::kFrameHeaderSize + 8] = 0x09;  // not a Symbol
  EXPECT_EQ(fx.feed_bytes(feed), SessionBroker::PumpResult::kClose);
  expect_error(fx, wire::ErrorCode::kMalformedFrame);
}

TEST(SessionBroker, RejectsOversizedLengthPrefix) {
  BrokerFixture fx;
  fx.do_hello();
  const std::uint8_t hostile[] = {0xff, 0xff, 0xff, 0x7f, 0x03};
  EXPECT_EQ(fx.feed_bytes(hostile), SessionBroker::PumpResult::kClose);
  expect_error(fx, wire::ErrorCode::kMalformedFrame);
}

TEST(SessionBroker, RejectsStatsWithPayload) {
  BrokerFixture fx;
  fx.do_hello();
  const std::uint8_t junk[1] = {0};
  std::vector<std::uint8_t> bytes;
  wire::append_frame(bytes, wire::FrameType::kStats, junk);
  EXPECT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kClose);
  expect_error(fx, wire::ErrorCode::kMalformedFrame);
}

TEST(SessionBroker, UnknownSessionErrorsAreRecoverable) {
  BrokerFixture fx;
  fx.do_hello();
  std::vector<std::uint8_t> bytes;
  wire::append_feed(bytes, 99, std::vector<Symbol>{Symbol::kOne});
  wire::append_finish(bytes, {99});
  EXPECT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kIdle);
  const auto frames = fx.drain_responses();
  ASSERT_EQ(frames.size(), 2u);
  for (const auto& [type, payload] : frames) {
    ASSERT_EQ(type, wire::FrameType::kError);
    const auto err = wire::read_error(payload);
    EXPECT_EQ(err.code, wire::ErrorCode::kUnknownSession);
    EXPECT_EQ(err.session, 99u);
  }
  EXPECT_FALSE(fx.broker.closed());  // the connection lives on

  // ... and a session opened afterwards works normally.
  std::vector<std::uint8_t> open;
  wire::append_open(open, {1, 1});
  fx.feed_bytes(open);
  const auto ok = fx.drain_responses();
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].first, wire::FrameType::kOpenOk);
}

TEST(SessionBroker, DuplicateOpenIsRecoverable) {
  BrokerFixture fx;
  fx.do_hello();
  std::vector<std::uint8_t> bytes;
  wire::append_open(bytes, {7, 1});
  wire::append_open(bytes, {7, 2});
  EXPECT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kIdle);
  const auto frames = fx.drain_responses();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].first, wire::FrameType::kOpenOk);
  ASSERT_EQ(frames[1].first, wire::FrameType::kError);
  EXPECT_EQ(wire::read_error(frames[1].second).code,
            wire::ErrorCode::kSessionExists);
  EXPECT_FALSE(fx.broker.closed());
}

TEST(SessionBroker, SessionLimitIsEnforced) {
  BrokerFixture fx({.max_sessions = 2});
  fx.do_hello();
  std::vector<std::uint8_t> bytes;
  wire::append_open(bytes, {1, 1});
  wire::append_open(bytes, {2, 1});
  wire::append_open(bytes, {3, 1});
  EXPECT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kIdle);
  const auto frames = fx.drain_responses();
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].first, wire::FrameType::kOpenOk);
  EXPECT_EQ(frames[1].first, wire::FrameType::kOpenOk);
  ASSERT_EQ(frames[2].first, wire::FrameType::kError);
  EXPECT_EQ(wire::read_error(frames[2].second).code,
            wire::ErrorCode::kOverLimit);
  EXPECT_FALSE(fx.broker.closed());
}

TEST(SessionBroker, DrainingRefusesOpenButServesFeedAndFinish) {
  qols::util::Rng rng(31);
  const auto word = word_of(LDisjInstance::make_disjoint(2, rng));
  BrokerFixture fx;
  fx.do_hello();
  std::vector<std::uint8_t> open;
  wire::append_open(open, {1, 5});
  fx.feed_bytes(open);
  fx.drain_responses();

  fx.shared.draining = true;
  std::vector<std::uint8_t> bytes;
  wire::append_open(bytes, {2, 5});
  wire::append_feed(bytes, 1, word);
  wire::append_finish(bytes, {1});
  EXPECT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kIdle);
  const auto frames = fx.drain_responses();
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_EQ(frames[0].first, wire::FrameType::kError);
  EXPECT_EQ(wire::read_error(frames[0].second).code,
            wire::ErrorCode::kDraining);
  ASSERT_EQ(frames[1].first, wire::FrameType::kVerdict);
  const auto v = wire::read_verdict(frames[1].second);
  RecognizerSpec spec;
  spec.kind = RecognizerKind::kClassicalBlock;
  expect_verdict_matches(v, direct_run(spec, 5, word), "drained finish");
}

TEST(SessionBroker, OutputBudgetParksFramesForTheNextPump) {
  BrokerFixture fx;
  fx.do_hello();
  // Ten STATS probes; each response is far larger than the 1-byte budget,
  // so the first pump emits one frame and parks the rest.
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 10; ++i) {
    wire::append_frame(bytes, wire::FrameType::kStats, {});
  }
  fx.broker.ingest(bytes);
  ASSERT_EQ(fx.broker.pump(fx.out, 1), SessionBroker::PumpResult::kOutBudget);
  EXPECT_TRUE(fx.broker.has_buffered_frames());
  const std::size_t first = fx.drain_responses().size();
  EXPECT_EQ(first, 1u);
  // A budget-less pump drains the remaining nine.
  ASSERT_EQ(fx.broker.pump(fx.out, std::size_t{1} << 24),
            SessionBroker::PumpResult::kIdle);
  EXPECT_EQ(fx.drain_responses().size(), 9u);
  EXPECT_FALSE(fx.broker.has_buffered_frames());
}

// ---------------------------------------------------------------------------
// FINISH batching: one pump finishes its FINISH frames as one service batch,
// yet answers with exactly the bytes of handling one frame per pump.

std::vector<std::uint8_t> frame_bytes(
    const std::function<void(std::vector<std::uint8_t>&)>& append) {
  std::vector<std::uint8_t> bytes;
  append(bytes);
  return bytes;
}

/// Hands `frames` to a fresh broker — all at once and pumped once, or one
/// frame per pump — after `setup` (HELLO, OPENs, FEEDs) was pumped, and
/// returns the responses to `frames` only.
std::vector<std::uint8_t> serve_frames(
    const std::vector<std::vector<std::uint8_t>>& setup,
    const std::vector<std::vector<std::uint8_t>>& frames, bool one_pump,
    BrokerShared::Options opts = {}) {
  BrokerFixture fx(opts);
  for (const auto& f : setup) fx.feed_bytes(f);
  fx.out.clear();
  if (one_pump) {
    for (const auto& f : frames) fx.broker.ingest(f);
    EXPECT_EQ(fx.broker.pump(fx.out, std::size_t{1} << 24),
              SessionBroker::PumpResult::kIdle);
  } else {
    for (const auto& f : frames) fx.feed_bytes(f);
  }
  return fx.out;
}

/// The STATS document minus its wall-clock field.
std::string stats_without_clock(std::span<const std::uint8_t> payload) {
  std::string text(payload.begin(), payload.end());
  const auto at = text.find("\"busy_seconds\":");
  if (at == std::string::npos) return text;
  const auto end = text.find_first_of(",}", at);
  return text.erase(at, end - at);
}

/// Sessions 1, 3 and 5 opened and fed whole k=5 words: each buffer is above
/// the service's pool gate, so a batch of two or more runs on the pool.
std::vector<std::vector<std::uint8_t>> batch_setup(
    const std::vector<Symbol>& word) {
  std::vector<std::vector<std::uint8_t>> setup;
  setup.push_back(frame_bytes([](auto& b) { wire::append_hello(b, {}); }));
  for (const std::uint64_t id : {1, 3, 5}) {
    setup.push_back(
        frame_bytes([&](auto& b) { wire::append_open(b, {id, 100 + id}); }));
    setup.push_back(
        frame_bytes([&](auto& b) { wire::append_feed(b, id, word); }));
  }
  return setup;
}

TEST(SessionBrokerBatch, OnePumpAnswersWithTheBytesOfOneFramePerPump) {
  qols::util::Rng rng(61);
  const auto word = word_of(LDisjInstance::make_with_intersections(5, 1, rng));
  const auto setup = batch_setup(word);
  // FINISH a, OPEN b, FINISH c, OPEN a (a is pending: completes the batch),
  // then FINISH e, STATS (e is pending: STATS must count it finished).
  const std::vector<std::vector<std::uint8_t>> frames{
      frame_bytes([](auto& b) { wire::append_finish(b, {1}); }),
      frame_bytes([](auto& b) { wire::append_open(b, {2, 7}); }),
      frame_bytes([](auto& b) { wire::append_finish(b, {3}); }),
      frame_bytes([](auto& b) { wire::append_open(b, {1, 8}); }),
      frame_bytes([](auto& b) { wire::append_finish(b, {5}); }),
      frame_bytes(
          [](auto& b) { wire::append_frame(b, wire::FrameType::kStats, {}); }),
  };
  const auto batched = serve_frames(setup, frames, /*one_pump=*/true);
  const auto sequential = serve_frames(setup, frames, /*one_pump=*/false);

  wire::FrameDecoder got_dec, want_dec;
  got_dec.append(batched);
  want_dec.append(sequential);
  std::vector<wire::FrameType> types;
  for (;;) {
    const auto got = got_dec.next();
    const auto want = want_dec.next();
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got) break;
    ASSERT_EQ(got->type, want->type);
    types.push_back(got->type);
    if (got->type == wire::FrameType::kStatsText) {
      // busy_seconds is a wall clock; every other field must agree.
      EXPECT_EQ(stats_without_clock(got->payload),
                stats_without_clock(want->payload));
    } else {
      EXPECT_TRUE(std::equal(got->payload.begin(), got->payload.end(),
                             want->payload.begin(), want->payload.end()))
          << wire::frame_type_name(got->type);
    }
  }
  EXPECT_EQ(types, (std::vector<wire::FrameType>{
                       wire::FrameType::kVerdict, wire::FrameType::kOpenOk,
                       wire::FrameType::kVerdict, wire::FrameType::kOpenOk,
                       wire::FrameType::kVerdict,
                       wire::FrameType::kStatsText}));

  // The bytes are also right, not merely consistent.
  wire::FrameDecoder dec;
  dec.append(batched);
  const auto spec = BrokerFixture::service_config().spec;
  expect_verdict_matches(wire::read_verdict(dec.next()->payload),
                         direct_run(spec, 101, word), "session 1");
  dec.next();
  expect_verdict_matches(wire::read_verdict(dec.next()->payload),
                         direct_run(spec, 103, word), "session 3");
  dec.next();
  expect_verdict_matches(wire::read_verdict(dec.next()->payload),
                         direct_run(spec, 105, word), "session 5");
}

TEST(SessionBrokerBatch, OutputBudgetStopCompletesThePendingFinishes) {
  qols::util::Rng rng(62);
  const auto word = word_of(LDisjInstance::make_disjoint(5, rng));
  BrokerFixture fx;
  for (const auto& f : batch_setup(word)) fx.feed_bytes(f);
  fx.out.clear();
  std::vector<std::uint8_t> bytes;
  for (const std::uint64_t id : {1, 3, 5}) wire::append_finish(bytes, {id});
  wire::append_frame(bytes, wire::FrameType::kStats, {});
  fx.broker.ingest(bytes);
  // Two 31-byte VERDICTs cross a 40-byte budget: the pump stops with both
  // FINISHes answered for real and the rest parked.
  ASSERT_EQ(fx.broker.pump(fx.out, 40), SessionBroker::PumpResult::kOutBudget);
  EXPECT_TRUE(fx.broker.has_buffered_frames());
  const auto spec = BrokerFixture::service_config().spec;
  auto frames = fx.drain_responses();
  ASSERT_EQ(frames.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(frames[i].first, wire::FrameType::kVerdict);
    const auto v = wire::read_verdict(frames[i].second);
    EXPECT_EQ(v.session, 1u + 2 * i);
    expect_verdict_matches(v, direct_run(spec, 101 + 2 * i, word), "parked");
  }
  EXPECT_EQ(fx.svc.open_sessions(), 1u);
  ASSERT_EQ(fx.broker.pump(fx.out, std::size_t{1} << 24),
            SessionBroker::PumpResult::kIdle);
  frames = fx.drain_responses();
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_EQ(frames[0].first, wire::FrameType::kVerdict);
  expect_verdict_matches(wire::read_verdict(frames[0].second),
                         direct_run(spec, 105, word), "after the stop");
  EXPECT_EQ(frames[1].first, wire::FrameType::kStatsText);
}

TEST(SessionBrokerBatch, SessionLimitWithFinishesPendingMatchesSequential) {
  qols::util::Rng rng(63);
  const auto word = word_of(LDisjInstance::make_disjoint(5, rng));
  auto setup = batch_setup(word);
  setup.resize(5);  // HELLO + sessions 1 and 3: at the limit of two
  const std::vector<std::vector<std::uint8_t>> frames{
      frame_bytes([](auto& b) { wire::append_finish(b, {1}); }),
      frame_bytes([](auto& b) { wire::append_open(b, {2, 7}); }),
      frame_bytes([](auto& b) { wire::append_finish(b, {3}); }),
      frame_bytes([](auto& b) { wire::append_open(b, {4, 7}); }),
      frame_bytes([](auto& b) { wire::append_open(b, {6, 7}); }),
  };
  BrokerShared::Options opts;
  opts.max_sessions = 2;
  const auto batched = serve_frames(setup, frames, true, opts);
  EXPECT_EQ(batched, serve_frames(setup, frames, false, opts));
  wire::FrameDecoder dec;
  dec.append(batched);
  std::vector<wire::FrameType> types;
  while (auto f = dec.next()) types.push_back(f->type);
  EXPECT_EQ(types, (std::vector<wire::FrameType>{
                       wire::FrameType::kVerdict, wire::FrameType::kOpenOk,
                       wire::FrameType::kVerdict, wire::FrameType::kOpenOk,
                       wire::FrameType::kError}));
}

TEST(SessionBrokerBatch, AbandonFinishesEverySessionInOneBatch) {
  qols::util::Rng rng(64);
  const auto word = word_of(LDisjInstance::make_disjoint(5, rng));
  BrokerFixture fx;
  for (const auto& f : batch_setup(word)) fx.feed_bytes(f);
  ASSERT_EQ(fx.svc.open_sessions(), 3u);
  EXPECT_EQ(fx.broker.abandon_sessions(), 3u);
  EXPECT_EQ(fx.svc.open_sessions(), 0u);
  EXPECT_EQ(fx.svc.stats().sessions_finished, 3u);
  EXPECT_EQ(fx.broker.open_sessions(), 0u);
}

// ---------------------------------------------------------------------------
// Loopback end-to-end against a live Server.

// ---------------------------------------------------------------------------
// RESUME (wire v2): adopting sessions a dropped connection left behind.

TEST(SessionBroker, HelloEchoesClientVersionAndV1StillServes) {
  BrokerFixture fx;
  std::vector<std::uint8_t> bytes;
  wire::append_hello(bytes, {1, wire::kAnyKind});  // a v1 client
  ASSERT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kIdle);
  auto frames = fx.drain_responses();
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].first, wire::FrameType::kHelloOk);
  // The server echoes the CLIENT's version: the conversation proceeds at
  // the lower of the two, and the client needs no version table.
  EXPECT_EQ(wire::read_hello_ok(frames[0].second).version, 1u);
  EXPECT_EQ(fx.broker.negotiated_version(), 1u);

  // The v1 lifecycle is untouched.
  bytes.clear();
  wire::append_open(bytes, {1, 3});
  wire::append_finish(bytes, {1});
  ASSERT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kIdle);
  frames = fx.drain_responses();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].first, wire::FrameType::kOpenOk);
  EXPECT_EQ(frames[1].first, wire::FrameType::kVerdict);
}

TEST(SessionBroker, ResumeRequiresNegotiatedV2) {
  BrokerFixture fx;
  std::vector<std::uint8_t> bytes;
  wire::append_hello(bytes, {1, wire::kAnyKind});
  ASSERT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kIdle);
  fx.drain_responses();
  bytes.clear();
  wire::append_resume(bytes, {1});
  EXPECT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kClose);
  expect_error(fx, wire::ErrorCode::kProtocolError);
}

TEST(SessionBroker, ResumeUnknownSessionIsRecoverable) {
  BrokerFixture fx;
  fx.do_hello();
  std::vector<std::uint8_t> bytes;
  wire::append_resume(bytes, {42});
  EXPECT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kIdle);
  expect_error(fx, wire::ErrorCode::kUnknownSession);
  EXPECT_FALSE(fx.broker.closed());
}

TEST(SessionBroker, ResumeOfOwnedSessionsIsNotResumable) {
  BrokerShared::Options opts;
  opts.preserve_on_disconnect = true;
  BrokerFixture fx(opts);
  fx.do_hello();
  std::vector<std::uint8_t> bytes;
  wire::append_open(bytes, {1, 7});
  ASSERT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kIdle);
  fx.drain_responses();

  // Resuming a session THIS connection already drives is refused...
  bytes.clear();
  wire::append_resume(bytes, {1});
  EXPECT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kIdle);
  expect_error(fx, wire::ErrorCode::kNotResumable);

  // ...and so is one owned by ANOTHER live connection: two connections
  // driving one recognizer would interleave nondeterministically.
  SessionBroker other(fx.shared);
  std::vector<std::uint8_t> other_out;
  bytes.clear();
  wire::append_hello(bytes, {});
  wire::append_resume(bytes, {1});
  other.ingest(bytes);
  EXPECT_EQ(other.pump(other_out, std::size_t{1} << 24),
            SessionBroker::PumpResult::kIdle);
  wire::FrameDecoder dec;
  dec.append(other_out);
  auto hello_ok = dec.next();
  ASSERT_TRUE(hello_ok && hello_ok->type == wire::FrameType::kHelloOk);
  auto err = dec.next();
  ASSERT_TRUE(err && err->type == wire::FrameType::kError);
  EXPECT_EQ(wire::read_error(err->payload).code,
            wire::ErrorCode::kNotResumable);

  // The refused RESUME left the owner untouched: it still finishes.
  bytes.clear();
  wire::append_finish(bytes, {1});
  ASSERT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kIdle);
  const auto frames = fx.drain_responses();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, wire::FrameType::kVerdict);
}

TEST(SessionBroker, ResumeAdoptsAReleasedSessionWithExactVerdict) {
  qols::util::Rng rng(55);
  const auto word = word_of(LDisjInstance::make_disjoint(1, rng));
  const std::size_t half = word.size() / 2;

  BrokerShared::Options opts;
  opts.preserve_on_disconnect = true;
  BrokerFixture fx(opts);
  {
    // The first connection: open, feed half, vanish without finishing.
    SessionBroker first(fx.shared);
    std::vector<std::uint8_t> bytes, out;
    wire::append_hello(bytes, {});
    wire::append_open(bytes, {1, 9});
    wire::append_feed(bytes, 1, std::span<const Symbol>(word.data(), half));
    first.ingest(bytes);
    ASSERT_EQ(first.pump(out, std::size_t{1} << 24),
              SessionBroker::PumpResult::kIdle);
  }  // dtor releases (not finishes) the session for a later RESUME

  fx.do_hello();
  std::vector<std::uint8_t> bytes;
  wire::append_resume(bytes, {1});
  wire::append_feed(bytes, 1,
                    std::span<const Symbol>(word.data() + half,
                                            word.size() - half));
  wire::append_finish(bytes, {1});
  ASSERT_EQ(fx.feed_bytes(bytes), SessionBroker::PumpResult::kIdle);
  const auto frames = fx.drain_responses();
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_EQ(frames[0].first, wire::FrameType::kResumeOk);
  EXPECT_EQ(wire::read_resume_ok(frames[0].second).session, 1u);
  ASSERT_EQ(frames[1].first, wire::FrameType::kVerdict);
  expect_verdict_matches(wire::read_verdict(frames[1].second),
                         direct_run(BrokerFixture::service_config().spec, 9,
                                    word),
                         "resumed session");
}

TEST(ServerLoopback, RaggedByteSplitsReproduceRunStream) {
  qols::util::Rng rng(17);
  const auto member = LDisjInstance::make_disjoint(2, rng);
  const auto crossing = LDisjInstance::make_with_intersections(2, 1, rng);

  Server::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  ServerRunner runner(cfg);

  // Two sessions, FEEDs interleaved, the whole byte stream delivered at
  // awkward seeded sizes that never align with frame boundaries.
  const std::vector<Symbol> words[2] = {word_of(member), word_of(crossing)};
  std::vector<std::uint8_t> script;
  wire::append_hello(script, {});
  wire::append_open(script, {1, 11});
  wire::append_open(script, {2, 12});
  qols::util::SplitMix64 sm(99);
  std::size_t cursors[2] = {0, 0};
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (int s = 0; s < 2; ++s) {
      if (cursors[s] >= words[s].size()) continue;
      const std::size_t n = std::min<std::size_t>(
          1 + sm.next() % 61, words[s].size() - cursors[s]);
      wire::append_feed(script, static_cast<std::uint64_t>(s + 1),
                        std::span<const Symbol>(words[s].data() + cursors[s],
                                                n));
      cursors[s] += n;
      progressed = true;
    }
  }
  wire::append_finish(script, {2});
  wire::append_finish(script, {1});

  TestClient client(runner.port());
  std::size_t done = 0;
  while (done < script.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + sm.next() % 173, script.size() - done);
    client.send_all({script.data() + done, n});
    done += n;
  }
  const auto hello_ok = client.next_frame();
  ASSERT_EQ(hello_ok.type, wire::FrameType::kHelloOk);
  ASSERT_EQ(client.next_frame().type, wire::FrameType::kOpenOk);
  ASSERT_EQ(client.next_frame().type, wire::FrameType::kOpenOk);
  const auto f2 = client.next_frame();
  ASSERT_EQ(f2.type, wire::FrameType::kVerdict);
  const auto v2 = wire::read_verdict(f2.payload);
  const auto f1 = client.next_frame();
  ASSERT_EQ(f1.type, wire::FrameType::kVerdict);
  const auto v1 = wire::read_verdict(f1.payload);
  EXPECT_EQ(v1.session, 1u);
  EXPECT_EQ(v2.session, 2u);
  expect_verdict_matches(v1, direct_run(cfg.spec, 11, words[0]), "member");
  expect_verdict_matches(v2, direct_run(cfg.spec, 12, words[1]), "crossing");
}

TEST(ServerLoopback, MalformedFrameGetsTypedErrorThenClose) {
  Server::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  ServerRunner runner(cfg);

  TestClient client(runner.port());
  client.hello();
  const std::uint8_t hostile[] = {0xff, 0xff, 0xff, 0xff, 0x03};
  client.send_all(hostile);
  const auto f = client.next_frame();
  ASSERT_EQ(f.type, wire::FrameType::kError);
  EXPECT_EQ(wire::read_error(f.payload).code,
            wire::ErrorCode::kMalformedFrame);
  EXPECT_TRUE(client.wait_eof());
}

TEST(ServerLoopback, BackpressurePausesReadsAndRecovers) {
  Server::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  cfg.write_buffer_cap = 2048;  // tiny: a handful of STATS texts fills it
  cfg.so_sndbuf = 4096;  // and a tiny kernel send buffer under it
  ServerRunner runner(cfg);

  // A tiny receive window to match: between the pinned SO_SNDBUF and this,
  // the kernel can absorb only ~15 KB end to end, so the server's send()
  // hits EAGAIN within the first few dozen responses no matter how fast or
  // slow this machine is (the TSan job runs this test too).
  TestClient client(runner.port(), 4096);
  client.hello();
  // Flood STATS probes without reading a byte. Each response is several
  // hundred bytes, so the server's write buffer crosses the cap and the
  // loop must stop reading this connection instead of buffering without
  // bound — then recover once we drain.
  constexpr int kProbes = 2000;
  std::vector<std::uint8_t> probes;
  for (int i = 0; i < kProbes; ++i) {
    wire::append_frame(probes, wire::FrameType::kStats, {});
  }
  client.send_all(probes);
  // Sit on our hands: the server churns through the probes while nobody
  // reads, so its responses fill the (tiny) kernel buffers until send()
  // returns EAGAIN and the write buffer crosses the cap. Reading right
  // away would drain at loopback speed and never apply any pressure.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // Now read every response; the server resumes as the socket drains.
  for (int i = 0; i < kProbes; ++i) {
    const auto f = client.next_frame();
    ASSERT_EQ(f.type, wire::FrameType::kStatsText) << "probe " << i;
  }
  client.close();
  runner.stop();
  EXPECT_GT(runner.server().counters().backpressure_pauses, 0u);
}

TEST(ServerLoopback, IdleSessionsEvictAndReviveTransparently) {
  qols::util::Rng rng(23);
  const auto word = word_of(LDisjInstance::make_disjoint(2, rng));

  Server::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  cfg.idle_evict_ms = 30;
  cfg.sweep_interval_ms = 10;
  ServerRunner runner(cfg);

  TestClient client(runner.port());
  client.hello();
  client.open(1, 77);
  const std::size_t half = word.size() / 2;
  std::vector<std::uint8_t> bytes;
  wire::append_feed(bytes, 1, std::span<const Symbol>(word.data(), half));
  client.send_all(bytes);
  // Idle long enough for several sweeps to pass the eviction cutoff.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  bytes.clear();
  wire::append_feed(
      bytes, 1, std::span<const Symbol>(word.data() + half,
                                        word.size() - half));
  client.send_all(bytes);
  const auto v = client.finish(1);
  expect_verdict_matches(v, direct_run(cfg.spec, 77, word), "revived");
  client.close();
  runner.stop();
  EXPECT_GT(runner.server().counters().idle_evictions, 0u);
}

TEST(ServerLoopback, GracefulDrainFinishesInFlightSessions) {
  qols::util::Rng rng(41);
  const auto word = word_of(LDisjInstance::make_disjoint(2, rng));

  Server::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  Server server(cfg);
  std::thread loop([&] { server.run(); });

  TestClient client(server.port());
  client.hello();
  client.open(1, 13);
  const std::size_t half = word.size() / 2;
  std::vector<std::uint8_t> bytes;
  wire::append_feed(bytes, 1, std::span<const Symbol>(word.data(), half));
  client.send_all(bytes);

  // Drain begins mid-session: new OPENs are refused, the in-flight session
  // still completes with the exact single-stream verdict. (The shutdown
  // wake travels over an eventfd; give the loop a beat to observe it
  // before the OPEN races in over TCP.)
  server.shutdown();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  bytes.clear();
  wire::append_open(bytes, {2, 1});
  client.send_all(bytes);
  const auto refusal = client.next_frame();
  ASSERT_EQ(refusal.type, wire::FrameType::kError);
  EXPECT_EQ(wire::read_error(refusal.payload).code,
            wire::ErrorCode::kDraining);

  bytes.clear();
  wire::append_feed(
      bytes, 1, std::span<const Symbol>(word.data() + half,
                                        word.size() - half));
  client.send_all(bytes);
  const auto v = client.finish(1);
  expect_verdict_matches(v, direct_run(cfg.spec, 13, word), "drained");

  // With its last session finished, the server closes the connection and
  // run() returns — the drain completed without abandoning anything.
  EXPECT_TRUE(client.wait_eof());
  loop.join();
  EXPECT_EQ(server.counters().sessions_abandoned, 0u);
  EXPECT_EQ(server.counters().connections_closed,
            server.counters().connections_accepted);
}

TEST(ServerLoopback, NewConnectionsAreRefusedWhileDraining) {
  Server::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  Server server(cfg);
  std::thread loop([&] { server.run(); });
  {
    // Hold a connection open so the drain cannot finish instantly.
    TestClient holder(server.port());
    holder.hello();
    server.shutdown();
    // The listen socket closes on drain: a fresh connect must fail or be
    // reset rather than be served. (Loopback connects may still complete in
    // the backlog race, so accept either failure mode: refused connect or
    // immediate EOF.)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    bool refused = false;
    try {
      TestClient late(server.port());
      refused = late.wait_eof();
    } catch (const std::runtime_error&) {
      refused = true;
    }
    EXPECT_TRUE(refused);
    holder.close();
  }
  loop.join();
}

/// The `"key":<integer>` value in a STATS text, or -1 when absent.
long long stats_value(const std::string& text, const std::string& key) {
  const auto at = text.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + key.size() + 3));
}

TEST(ServerLoopback, MetricsExportsTheInstrumentsTheBenchmarkParses) {
  qols::util::Rng rng(29);
  const auto word = word_of(LDisjInstance::make_disjoint(2, rng));
  Server::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  ServerRunner runner(cfg);
  TestClient client(runner.port());
  client.hello();
  client.open(1, 31);
  std::vector<std::uint8_t> bytes;
  wire::append_feed(bytes, 1, std::span<const Symbol>(word));
  client.send_all(bytes);
  expect_verdict_matches(client.finish(1), direct_run(cfg.spec, 31, word),
                         "before METRICS");

  bytes.clear();
  wire::append_frame(bytes, wire::FrameType::kMetrics, {});
  client.send_all(bytes);
  const auto f = client.next_frame();
  ASSERT_EQ(f.type, wire::FrameType::kMetricsText);
  const std::string text = wire::read_text(f.payload);
  // perfbench/src/main.cpp reads exactly these four series.
  EXPECT_NE(text.find("# TYPE qols_service_flush_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE qols_server_feed_frame_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE qols_server_finish_frame_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE qols_server_frames_in counter"),
            std::string::npos);
  // Stats facts travel in STATS only; the registry does not mirror them.
  EXPECT_EQ(text.find("qols_service_symbols_ingested"), std::string::npos);
}

TEST(ServerLoopback, FdExhaustionShedsQueuedPeersWithoutSpinning) {
  qols::util::Rng rng(43);
  const auto word = word_of(LDisjInstance::make_disjoint(2, rng));
  Server::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  ServerRunner runner(cfg);
  TestClient first(runner.port());
  first.hello();
  first.open(1, 19);

  // Cap this process's fd table at its lowest free fd: connect() on the
  // excess peers' already-open sockets needs no new fd, but every accept()
  // of them fails with EMFILE. The guard lifts the cap again on any exit.
  constexpr int kExcess = 24;
  struct CappedPeers {
    rlimit saved{};
    std::vector<int> fds;
    ~CappedPeers() {
      ::setrlimit(RLIMIT_NOFILE, &saved);
      for (const int fd : fds) ::close(fd);
    }
  } peers;
  for (int i = 0; i < kExcess; ++i) {
    peers.fds.push_back(::socket(AF_INET, SOCK_STREAM, 0));
    ASSERT_GE(peers.fds.back(), 0);
  }
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &peers.saved), 0);
  const int lowest_free = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  const rlimit cap{static_cast<rlim_t>(lowest_free), peers.saved.rlim_max};
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &cap), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(runner.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (const int fd : peers.fds) {
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
  }

  // A loop that leaves them queued wakes on the level-triggered listen fd
  // forever (a full core); one that sheds them goes back to sleep. This
  // thread sleeps meanwhile, so the process CPU clock is the server's.
  auto cpu_seconds = [] {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
  };
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double cpu0 = cpu_seconds();
  const auto wall0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu = cpu_seconds() - cpu0;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();
  ASSERT_LT(cpu, wall / 4) << "server spun on the listen fd: " << cpu
                           << " s CPU over " << wall << " s";

  // Every excess peer was accepted and closed...
  for (const int fd : peers.fds) {
    pollfd p{fd, POLLIN, 0};
    ASSERT_EQ(::poll(&p, 1, 10'000), 1);
    std::uint8_t byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "peer not closed";
  }
  std::vector<std::uint8_t> bytes;
  wire::append_frame(bytes, wire::FrameType::kStats, {});
  first.send_all(bytes);
  const auto stats = first.next_frame();
  ASSERT_EQ(stats.type, wire::FrameType::kStatsText);
  EXPECT_EQ(stats_value(wire::read_text(stats.payload), "accept_rejected"),
            kExcess);
  // ...and the connection accepted before the cap is still served.
  bytes.clear();
  wire::append_feed(bytes, 1, std::span<const Symbol>(word));
  first.send_all(bytes);
  expect_verdict_matches(first.finish(1), direct_run(cfg.spec, 19, word),
                         "under fd exhaustion");
}

TEST(ServerLoopback, DurableRestartResumesWithExactVerdicts) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("qols-test-server-restart-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  qols::util::Rng rng(7);
  const std::vector<Symbol> words[2] = {
      word_of(LDisjInstance::make_disjoint(2, rng)),
      word_of(LDisjInstance::make_with_intersections(2, 1, rng)),
  };

  Server::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  cfg.spill_dir = dir.string();
  cfg.durable = true;
  cfg.persist_on_shutdown = true;

  {
    // Incarnation one: open two sessions, feed half of each, then shut down
    // mid-word. persist_on_shutdown checkpoints them instead of finishing.
    Server server(cfg);
    std::thread loop([&] { server.run(); });
    TestClient client(server.port());
    client.hello();
    std::vector<std::uint8_t> bytes;
    for (std::uint64_t s = 0; s < 2; ++s) {
      client.open(s + 1, 100 + s);
      bytes.clear();
      wire::append_feed(bytes, s + 1,
                        std::span<const Symbol>(words[s].data(),
                                                words[s].size() / 2));
      client.send_all(bytes);
    }
    // A STATS round trip proves both FEEDs reached the service before the
    // drain starts (frames are handled strictly in order).
    bytes.clear();
    wire::append_frame(bytes, wire::FrameType::kStats, {});
    client.send_all(bytes);
    ASSERT_EQ(client.next_frame().type, wire::FrameType::kStatsText);

    client.close();
    server.shutdown();
    loop.join();
    EXPECT_EQ(server.counters().sessions_persisted, 2u);
  }

  {
    // Incarnation two over the same spill_dir: the constructor replays the
    // manifest, RESUME re-adopts each session, and the finished verdicts
    // are bit-identical to uninterrupted single-process runs.
    Server server(cfg);
    EXPECT_EQ(server.service().stats().recovered_sessions, 2u);
    std::thread loop([&] { server.run(); });
    TestClient client(server.port());
    client.hello();
    std::vector<std::uint8_t> stats_req;
    wire::append_frame(stats_req, wire::FrameType::kStats, {});
    client.send_all(stats_req);
    const auto stats = client.next_frame();
    ASSERT_EQ(stats.type, wire::FrameType::kStatsText);
    EXPECT_EQ(stats_value(wire::read_text(stats.payload),
                          "recovered_sessions"),
              2);
    for (std::uint64_t s = 0; s < 2; ++s) {
      std::vector<std::uint8_t> bytes;
      wire::append_resume(bytes, {s + 1});
      client.send_all(bytes);
      const auto f = client.next_frame();
      ASSERT_EQ(f.type, wire::FrameType::kResumeOk);
      EXPECT_EQ(wire::read_resume_ok(f.payload).session, s + 1);
      bytes.clear();
      const std::size_t half = words[s].size() / 2;
      wire::append_feed(bytes, s + 1,
                        std::span<const Symbol>(words[s].data() + half,
                                                words[s].size() - half));
      client.send_all(bytes);
      const auto v = client.finish(s + 1);
      expect_verdict_matches(v, direct_run(cfg.spec, 100 + s, words[s]),
                             s == 0 ? "resumed member" : "resumed crossing");
    }
    client.close();
    server.shutdown();
    loop.join();
    // Everything finished this time: nothing is left to persist.
    EXPECT_EQ(server.counters().sessions_persisted, 0u);
  }
  fs::remove_all(dir);
}

TEST(ServerLoopback, TenThousandConcurrentSessionsDrainWithExactVerdicts) {
  // 10^4 sessions over four connections, every one OPEN before the first
  // FINISH, then a drain that must finish them all: each wire verdict equals
  // a direct RecognizerService run and nothing is abandoned.
  constexpr std::uint64_t kSessions = 10'000;
  constexpr std::uint64_t kConnections = 4;
  constexpr std::uint64_t kPerConnection = kSessions / kConnections;
  // Sessions per round trip: small enough that the requests and replies
  // in flight fit in the loopback socket buffers, so blocking sends cannot
  // deadlock against unread replies.
  constexpr std::uint64_t kBatch = 500;
  constexpr std::uint64_t kSeeds = 16;

  // Session s (wire id s + 1) streams words[s % 2] under seed_of(s), on
  // connection s / kPerConnection.
  qols::util::Rng rng(25);
  const std::vector<Symbol> words[2] = {
      word_of(LDisjInstance::make_disjoint(2, rng)),
      word_of(LDisjInstance::make_with_intersections(2, 1, rng)),
  };
  const auto seed_of = [](std::uint64_t s) { return 1000 + s % kSeeds; };

  Server::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  // One direct run per (word, seed) pair: session s has the word and seed
  // of reference[s % (2 * kSeeds)].
  std::vector<RecognizerService::Verdict> reference;
  {
    RecognizerService::Config svc_cfg;
    svc_cfg.spec = cfg.spec;
    RecognizerService direct(svc_cfg);
    for (std::uint64_t s = 0; s < 2 * kSeeds; ++s) {
      const auto id = direct.open(seed_of(s));
      direct.feed(id, words[s % 2]);
      reference.push_back(direct.finish(id));
    }
  }

  ServerRunner runner(cfg);
  std::vector<std::unique_ptr<TestClient>> clients;
  for (std::uint64_t c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<TestClient>(runner.port()));
    clients.back()->hello();
  }
  // For every batch of kBatch sessions: sends the frames `append` writes
  // for each on the session's connection, then `check`s one response per
  // session (a frame's payload lives only until the next frame is read).
  const auto round_trips = [&](auto&& append, auto&& check) {
    for (std::uint64_t first = 0; first < kSessions; first += kBatch) {
      TestClient& client = *clients[first / kPerConnection];
      std::vector<std::uint8_t> bytes;
      for (std::uint64_t s = first; s < first + kBatch; ++s) append(bytes, s);
      client.send_all(bytes);
      for (std::uint64_t s = first; s < first + kBatch; ++s) {
        check(client.next_frame(), s);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  };

  round_trips(
      [&](std::vector<std::uint8_t>& out, std::uint64_t s) {
        wire::append_open(out, {s + 1, seed_of(s)});
      },
      [](const wire::Frame& f, std::uint64_t s) {
        ASSERT_EQ(f.type, wire::FrameType::kOpenOk);
        ASSERT_EQ(wire::read_open_ok(f.payload).session, s + 1);
      });
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  std::vector<std::uint8_t> stats_req;
  wire::append_frame(stats_req, wire::FrameType::kStats, {});
  clients[0]->send_all(stats_req);
  const auto stats = clients[0]->next_frame();
  ASSERT_EQ(stats.type, wire::FrameType::kStatsText);
  ASSERT_EQ(stats_value(wire::read_text(stats.payload), "sessions_open"),
            static_cast<long long>(kSessions));

  // Drain with every session in flight: FEED and FINISH are still served.
  runner.server().shutdown();
  std::uint64_t mismatches = 0;
  round_trips(
      [&](std::vector<std::uint8_t>& out, std::uint64_t s) {
        wire::append_feed(out, s + 1, std::span<const Symbol>(words[s % 2]));
        wire::append_finish(out, {s + 1});
      },
      [&](const wire::Frame& f, std::uint64_t s) {
        ASSERT_EQ(f.type, wire::FrameType::kVerdict);
        const auto v = wire::read_verdict(f.payload);
        ASSERT_EQ(v.session, s + 1);
        const auto& ref = reference[s % (2 * kSeeds)];
        if (v.accepted != ref.accepted ||
            v.fully_simulated != ref.fully_simulated ||
            v.classical_bits != ref.space.classical_bits ||
            v.qubits != ref.space.qubits) {
          ++mismatches;
        }
      });
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(mismatches, 0u);
  runner.stop();
  EXPECT_EQ(runner.server().counters().sessions_abandoned, 0u);
}

}  // namespace
