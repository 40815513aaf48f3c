#include "qols/server/session_broker.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "qols/util/json.hpp"
#include "qols/util/stopwatch.hpp"

namespace qols::server {

namespace {
namespace json = util::json;
using util::serde::DecodeError;

telemetry::MetricsRegistry& reg() { return telemetry::MetricsRegistry::global(); }
}  // namespace

BrokerShared::BrokerShared(service::RecognizerService& service,
                           Options options)
    : svc(service),
      opts(options),
      frames_in(reg().counter("server.frames_in")),
      frames_out(reg().counter("server.frames_out")),
      errors_sent(reg().counter("server.errors_sent")),
      malformed(reg().counter("server.malformed_frames")),
      resumes(reg().counter("server.sessions_resumed")),
      feed_frame_ns(reg().histogram("server.feed_frame_ns")),
      finish_frame_ns(reg().histogram("server.finish_frame_ns")) {}

SessionBroker::SessionBroker(BrokerShared& shared) : shared_(shared) {}

SessionBroker::~SessionBroker() { abandon_sessions(); }

void SessionBroker::ingest(std::span<const std::uint8_t> bytes) {
  decoder_.append(bytes);
}

SessionBroker::PumpResult SessionBroker::pump(std::vector<std::uint8_t>& out,
                                              std::size_t out_budget,
                                              std::uint64_t now_ms) {
  if (closed_) return PumpResult::kClose;
  PumpResult result;
  try {
    result = handle_frames(out, out_budget, now_ms);
  } catch (...) {
    complete_finishes(out);
    throw;
  }
  complete_finishes(out);
  return result;
}

SessionBroker::PumpResult SessionBroker::handle_frames(
    std::vector<std::uint8_t>& out, std::size_t out_budget,
    std::uint64_t now_ms) {
  for (;;) {
    if (out.size() >= out_budget) {
      return has_buffered_frames() ? PumpResult::kOutBudget
                                   : PumpResult::kIdle;
    }
    std::optional<wire::Frame> frame;
    try {
      frame = decoder_.next();
    } catch (const DecodeError& e) {
      shared_.malformed.add();
      fail(out, wire::ErrorCode::kMalformedFrame, 0, e.what());
      closed_ = true;
      return PumpResult::kClose;
    }
    if (!frame) return PumpResult::kIdle;
    shared_.frames_in.add();
    if (!handle(*frame, out, now_ms)) {
      closed_ = true;
      return PumpResult::kClose;
    }
  }
}

bool SessionBroker::finish_pending(std::uint64_t session) const noexcept {
  return std::any_of(
      pending_.begin(), pending_.end(),
      [session](const PendingFinish& p) { return p.session == session; });
}

void SessionBroker::complete_finishes(std::vector<std::uint8_t>& out) {
  if (pending_.empty()) return;
  std::vector<std::uint64_t> ids;
  ids.reserve(pending_.size());
  for (const PendingFinish& p : pending_) ids.push_back(p.session);
  std::vector<service::RecognizerService::Verdict> verdicts;
  std::uint64_t ns = 0;
  try {
    util::Stopwatch watch;
    verdicts = shared_.svc.finish(ids);
    ns = static_cast<std::uint64_t>(watch.seconds() * 1e9);
  } catch (...) {
    // No verdict may go out unpatched: drop every response from the first
    // placeholder on.
    out.resize(pending_.front().offset);
    pending_.clear();
    throw;
  }
  std::vector<std::uint8_t> frame;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const auto& verdict = verdicts[i];
    wire::WireVerdict wv;
    wv.session = pending_[i].session;
    wv.accepted = verdict.accepted;
    wv.fully_simulated = verdict.fully_simulated;
    wv.classical_bits = verdict.space.classical_bits;
    wv.qubits = verdict.space.qubits;
    frame.clear();
    wire::append_verdict(frame, wv);
    std::copy(frame.begin(), frame.end(),
              out.begin() + static_cast<std::ptrdiff_t>(pending_[i].offset));
    // Each FINISH frame waited for the whole batch.
    shared_.finish_frame_ns.record(ns);
  }
  pending_.clear();
}

bool SessionBroker::has_buffered_frames() const noexcept {
  return decoder_.frame_available();
}

std::size_t SessionBroker::buffered_bytes() const noexcept {
  return decoder_.buffered_bytes();
}

std::size_t SessionBroker::evict_idle(std::uint64_t cutoff_ms) {
  std::size_t evicted = 0;
  for (auto& [id, stamp] : sessions_) {
    if (stamp > cutoff_ms) continue;
    try {
      if (!shared_.svc.evicted(id)) {
        shared_.svc.evict(id);
        ++evicted;
      }
    } catch (const std::exception&) {
      // Cannot snapshot (e.g. a gate-sink quantum machine): park the stamp
      // so the sweep stops re-trying until the session is touched again.
      stamp = std::numeric_limits<std::uint64_t>::max();
    }
  }
  return evicted;
}

std::size_t SessionBroker::abandon_sessions() noexcept {
  if (shared_.opts.preserve_on_disconnect) return release_sessions();
  std::vector<std::uint64_t> ids;
  for (const auto& [id, stamp] : sessions_) {
    (void)stamp;
    shared_.owned.erase(id);
    if (shared_.svc.contains(id)) ids.push_back(id);
  }
  sessions_.clear();
  // Sorted: the service journals kFinish in span order.
  std::sort(ids.begin(), ids.end());
  try {
    shared_.svc.finish(ids);
  } catch (const std::exception&) {
    return 0;  // a recognizer or spill failed; nothing more to reclaim
  }
  return ids.size();
}

std::size_t SessionBroker::release_sessions() noexcept {
  const std::size_t n = sessions_.size();
  for (const auto& [id, stamp] : sessions_) {
    (void)stamp;
    shared_.owned.erase(id);
  }
  sessions_.clear();
  return n;
}

bool SessionBroker::fail(std::vector<std::uint8_t>& out, wire::ErrorCode code,
                         std::uint64_t session, std::string message) {
  wire::append_error(out, {code, session, std::move(message)});
  shared_.errors_sent.add();
  shared_.frames_out.add();
  return !wire::error_is_fatal(code);
}

bool SessionBroker::handle(const wire::Frame& frame,
                           std::vector<std::uint8_t>& out,
                           std::uint64_t now_ms) {
  using wire::ErrorCode;
  using wire::FrameType;

  if (!hello_done_ && frame.type != FrameType::kHello) {
    return fail(out, ErrorCode::kProtocolError, 0,
                "first frame must be HELLO");
  }

  switch (frame.type) {
    case FrameType::kHello: {
      complete_finishes(out);
      if (hello_done_) {
        return fail(out, ErrorCode::kProtocolError, 0, "duplicate HELLO");
      }
      wire::Hello hello;
      try {
        hello = wire::read_hello(frame.payload);
      } catch (const DecodeError& e) {
        shared_.malformed.add();
        return fail(out, ErrorCode::kMalformedFrame, 0, e.what());
      }
      if (hello.version < wire::kMinProtocolVersion ||
          hello.version > wire::kProtocolVersion) {
        return fail(out, ErrorCode::kBadVersion, 0,
                    "server speaks protocol versions " +
                        std::to_string(wire::kMinProtocolVersion) + ".." +
                        std::to_string(wire::kProtocolVersion));
      }
      const auto kind = static_cast<std::uint8_t>(
          shared_.svc.config().spec.kind);
      if (hello.kind_tag != wire::kAnyKind && hello.kind_tag != kind) {
        return fail(out, ErrorCode::kSpecMismatch, 0,
                    "server serves " +
                        service::recognizer_kind_name(
                            shared_.svc.config().spec.kind));
      }
      hello_done_ = true;
      version_ = hello.version;
      wire::HelloOk ok;
      // Echo the client's version: the conversation proceeds at the LOWER
      // of the two, so a v1 client never sees a v2-only frame.
      ok.version = hello.version;
      ok.kind = kind;
      ok.float_amplitudes = shared_.svc.config().spec.float_amplitudes;
      ok.max_sessions = shared_.opts.max_sessions;
      wire::append_hello_ok(out, ok);
      shared_.frames_out.add();
      return true;
    }

    case FrameType::kOpen: {
      wire::Open open;
      try {
        open = wire::read_open(frame.payload);
      } catch (const DecodeError& e) {
        shared_.malformed.add();
        return fail(out, ErrorCode::kMalformedFrame, 0, e.what());
      }
      if (shared_.draining) {
        return fail(out, ErrorCode::kDraining, open.session,
                    "server is draining");
      }
      // A pending FINISH still holds its id and its slot in the service.
      if (finish_pending(open.session) ||
          shared_.svc.open_sessions() >= shared_.opts.max_sessions) {
        complete_finishes(out);
      }
      if (shared_.svc.open_sessions() >= shared_.opts.max_sessions) {
        return fail(out, ErrorCode::kOverLimit, open.session,
                    "session limit reached");
      }
      try {
        shared_.svc.open_at(open.session, open.seed);
      } catch (const std::invalid_argument&) {
        return fail(out, ErrorCode::kSessionExists, open.session,
                    "session id already open");
      }
      sessions_[open.session] = now_ms;
      shared_.owned.insert(open.session);
      wire::append_open_ok(out, {open.session});
      shared_.frames_out.add();
      return true;
    }

    case FrameType::kResume: {
      complete_finishes(out);
      if (version_ < 2) {
        return fail(out, ErrorCode::kProtocolError, 0,
                    "RESUME requires protocol version 2");
      }
      wire::Resume resume;
      try {
        resume = wire::read_resume(frame.payload);
      } catch (const DecodeError& e) {
        shared_.malformed.add();
        return fail(out, ErrorCode::kMalformedFrame, 0, e.what());
      }
      if (sessions_.contains(resume.session)) {
        return fail(out, ErrorCode::kNotResumable, resume.session,
                    "session already attached to this connection");
      }
      if (shared_.owned.contains(resume.session)) {
        return fail(out, ErrorCode::kNotResumable, resume.session,
                    "session owned by a live connection");
      }
      try {
        // Probe only — the session revives lazily on its first FEED/FINISH.
        shared_.svc.evicted(resume.session);
      } catch (const std::out_of_range&) {
        return fail(out, ErrorCode::kUnknownSession, resume.session,
                    "no such session to resume");
      }
      sessions_[resume.session] = now_ms;
      shared_.owned.insert(resume.session);
      shared_.resumes.add();
      wire::append_resume_ok(out, {resume.session});
      shared_.frames_out.add();
      return true;
    }

    case FrameType::kFeed: {
      wire::FeedView feed;
      try {
        feed = wire::read_feed(frame.payload);
      } catch (const DecodeError& e) {
        shared_.malformed.add();
        return fail(out, ErrorCode::kMalformedFrame, 0, e.what());
      }
      const auto it = sessions_.find(feed.session);
      if (it == sessions_.end()) {
        return fail(out, ErrorCode::kUnknownSession, feed.session,
                    "session not open on this connection");
      }
      {
        telemetry::ScopedTimer timer(shared_.feed_frame_ns);
        shared_.svc.feed(feed.session, feed.symbols);
      }
      it->second = now_ms;
      return true;  // FEED is fire-and-forget: no response frame
    }

    case FrameType::kFinish: {
      wire::Finish fin;
      try {
        fin = wire::read_finish(frame.payload);
      } catch (const DecodeError& e) {
        shared_.malformed.add();
        return fail(out, ErrorCode::kMalformedFrame, 0, e.what());
      }
      const auto it = sessions_.find(fin.session);
      if (it == sessions_.end()) {
        return fail(out, ErrorCode::kUnknownSession, fin.session,
                    "session not open on this connection");
      }
      // Deferred: the pump finishes its FINISHes as one batch, then patches
      // this fixed-size placeholder with the real VERDICT.
      sessions_.erase(it);
      shared_.owned.erase(fin.session);
      pending_.push_back({fin.session, out.size()});
      wire::append_verdict(out, {.session = fin.session});
      shared_.frames_out.add();
      return true;
    }

    case FrameType::kStats: {
      complete_finishes(out);
      if (!frame.payload.empty()) {
        shared_.malformed.add();
        return fail(out, ErrorCode::kMalformedFrame, 0,
                    "STATS carries no payload");
      }
      const auto stats = shared_.svc.stats();
      auto doc = json::Value::object();
      auto& svc = doc.set("service", json::Value::object());
      svc.set("sessions_open",
              static_cast<std::uint64_t>(shared_.svc.open_sessions()));
      svc.set("buffered_symbols", shared_.svc.buffered_symbols());
      svc.set("sessions_opened", stats.sessions_opened);
      svc.set("sessions_finished", stats.sessions_finished);
      svc.set("symbols_ingested", stats.symbols_ingested);
      svc.set("flushes", stats.flushes);
      svc.set("busy_seconds", stats.busy_seconds);
      svc.set("evictions", stats.evictions);
      svc.set("revives", stats.revives);
      svc.set("spill_bytes_written", stats.spill_bytes_written);
      svc.set("spill_bytes_read", stats.spill_bytes_read);
      svc.set("recovered_sessions", stats.recovered_sessions);
      auto& conn = doc.set("connection", json::Value::object());
      conn.set("open_sessions",
               static_cast<std::uint64_t>(sessions_.size()));
      conn.set("draining", shared_.draining);
      if (shared_.stats_hook) shared_.stats_hook(doc);
      wire::append_text(out, FrameType::kStatsText, doc.dump(0));
      shared_.frames_out.add();
      return true;
    }

    case FrameType::kMetrics: {
      complete_finishes(out);
      if (!frame.payload.empty()) {
        shared_.malformed.add();
        return fail(out, ErrorCode::kMalformedFrame, 0,
                    "METRICS carries no payload");
      }
      std::ostringstream os;
      telemetry::render_prometheus(os);
      wire::append_text(out, FrameType::kMetricsText, os.str());
      shared_.frames_out.add();
      return true;
    }

    case FrameType::kHelloOk:
    case FrameType::kOpenOk:
    case FrameType::kVerdict:
    case FrameType::kStatsText:
    case FrameType::kMetricsText:
    case FrameType::kResumeOk:
    case FrameType::kError:
      return fail(out, ErrorCode::kProtocolError, 0,
                  "server-to-client frame sent by client");
  }
  return fail(out, ErrorCode::kProtocolError, 0, "unknown frame type");
}

}  // namespace qols::server
