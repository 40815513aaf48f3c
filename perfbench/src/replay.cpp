#include "replay.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "qols/server/session_broker.hpp"
#include "qols/telemetry/registry.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace wire = qols::server::wire;
using qols::service::RecognizerService;

namespace {

constexpr std::size_t kChunk = std::size_t{1} << 16;  // the server's recv size

bool wire_matches(const Results& wire, std::size_t session, const Verdict& v) {
  if (session >= wire.outcomes.size()) return false;
  const Outcome& o = wire.outcomes[session];
  return o.verdict_seen && same_verdict(o.verdict, v);
}

RecognizerService::Config service_config(const ReplayInput& in,
                                         const std::string& leaf) {
  RecognizerService::Config cfg;
  cfg.spec = in.traffic.spec().recognizer;
  if (in.traffic.spec().durable) {
    cfg.durable = true;
    cfg.spill_dir = (fs::path(in.scratch_dir) / leaf).string();
    fs::remove_all(cfg.spill_dir);
    fs::create_directories(cfg.spill_dir);
  }
  return cfg;
}

/// Client frames of the traced run, decoded once, interleaved one frame per
/// connection in turn. Payload spans point into `decoders`.
struct Op {
  wire::FrameType type;
  std::uint64_t session;
  std::uint64_t seed;
  std::span<const Symbol> symbols;
};

std::vector<Op> decode_ops(const ReplayInput& in,
                           std::vector<std::unique_ptr<wire::FrameDecoder>>& decoders) {
  std::vector<std::vector<Op>> per_conn;
  for (const auto& bytes : in.captured) {
    decoders.push_back(std::make_unique<wire::FrameDecoder>());
    decoders.back()->append(bytes);
    std::vector<Op> ops;
    while (auto f = decoders.back()->next()) {
      switch (f->type) {
        case wire::FrameType::kOpen: {
          const auto o = wire::read_open(f->payload);
          ops.push_back({f->type, o.session, o.seed, {}});
          break;
        }
        case wire::FrameType::kFeed: {
          const auto v = wire::read_feed(f->payload);
          ops.push_back({f->type, v.session, 0, v.symbols});
          break;
        }
        case wire::FrameType::kFinish:
          ops.push_back({f->type, wire::read_finish(f->payload).session, 0, {}});
          break;
        default:
          break;
      }
    }
    per_conn.push_back(std::move(ops));
  }
  std::vector<Op> all;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& ops : per_conn) {
      if (i < ops.size()) {
        all.push_back(ops[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  return all;
}

}  // namespace

CoreReplay replay_core(const ReplayInput& in) {
  auto& reg = qols::telemetry::MetricsRegistry::global();
  reg.reset_all();
  CoreReplay r;
  std::uint64_t symbols = 0;
  std::int64_t feed_ns = 0, finish_ns = 0;
  const std::int64_t t0 = now_ns();
  for (const std::size_t s : in.sessions) {
    const SessionPlan& p = in.traffic.plan(s);
    const auto& word = in.traffic.word_of(s);
    auto rec = in.traffic.spec().recognizer.make(p.seed);
    std::size_t at = 0;
    for (const std::uint32_t len : p.frames) {
      const std::int64_t a = now_ns();
      rec->feed_chunk(std::span<const Symbol>(word.data() + at, len));
      const std::int64_t b = now_ns();
      in.spans.add(s + 1, "core.feed_chunk", "replay.core", a, b);
      feed_ns += b - a;
      at += len;
    }
    symbols += at;
    const std::int64_t a = now_ns();
    Verdict v;
    v.accepted = rec->finish();
    v.fully_simulated = rec->fully_simulated();
    v.space = rec->space_used();
    const std::int64_t b = now_ns();
    in.spans.add(s + 1, "core.finish", "replay.core", a, b);
    finish_ns += b - a;
    if (!wire_matches(in.wire, s, v)) ++r.mismatches;
  }
  r.wall_s = ns_to_s(now_ns() - t0);
  r.feed_ns_per_symbol = static_cast<double>(feed_ns) / static_cast<double>(std::max<std::uint64_t>(1, symbols));
  r.finish_us = static_cast<double>(finish_ns) * 1e-3 /
                static_cast<double>(std::max<std::size_t>(1, in.sessions.size()));
  r.diffusion_ns = static_cast<double>(reg.histogram("quantum.diffusion.ns").snapshot().sum);
  r.gates = static_cast<double>(reg.counter("quantum.gates_total").value());
  return r;
}

ServiceReplay replay_service(const ReplayInput& in) {
  std::vector<std::unique_ptr<wire::FrameDecoder>> decoders;
  const std::vector<Op> ops = decode_ops(in, decoders);
  ServiceReplay r;
  std::int64_t open_ns = 0, feed_ns = 0, finish_ns = 0;
  std::uint64_t symbols = 0, opens = 0, finishes = 0;
  {
    RecognizerService svc(service_config(in, "service-replay"));
    const std::int64_t t0 = now_ns();
    for (const Op& op : ops) {
      const std::int64_t a = now_ns();
      switch (op.type) {
        case wire::FrameType::kOpen: {
          svc.open_at(op.session, op.seed);
          const std::int64_t b = now_ns();
          in.spans.add(op.session, "service.open_at", "replay.service", a, b);
          open_ns += b - a;
          ++opens;
          break;
        }
        case wire::FrameType::kFeed: {
          svc.feed(op.session, op.symbols);
          const std::int64_t b = now_ns();
          in.spans.add(op.session, "service.feed", "replay.service", a, b);
          feed_ns += b - a;
          symbols += op.symbols.size();
          break;
        }
        default: {
          const Verdict v = svc.finish(op.session);
          const std::int64_t b = now_ns();
          in.spans.add(op.session, "service.finish", "replay.service", a, b);
          finish_ns += b - a;
          ++finishes;
          if (!wire_matches(in.wire, op.session - 1, v)) ++r.mismatches;
          break;
        }
      }
    }
    r.wall_s = ns_to_s(now_ns() - t0);
    r.flushes = static_cast<double>(svc.stats().flushes);
  }
  if (in.traffic.spec().durable) fs::remove_all(fs::path(in.scratch_dir) / "service-replay");
  r.open_us = static_cast<double>(open_ns) * 1e-3 / static_cast<double>(std::max<std::uint64_t>(1, opens));
  r.feed_ns_per_symbol = static_cast<double>(feed_ns) / static_cast<double>(std::max<std::uint64_t>(1, symbols));
  r.finish_us = static_cast<double>(finish_ns) * 1e-3 / static_cast<double>(std::max<std::uint64_t>(1, finishes));
  return r;
}

BrokerReplay replay_broker(const ReplayInput& in) {
  BrokerReplay r;
  {
    const bool durable = in.traffic.spec().durable;
    RecognizerService svc(service_config(in, "broker-replay"));
    qols::server::BrokerShared::Options opts;
    opts.preserve_on_disconnect = durable;
    qols::server::BrokerShared shared(svc, opts);
    std::vector<std::unique_ptr<qols::server::SessionBroker>> brokers;
    for (std::size_t i = 0; i < in.captured.size(); ++i) {
      brokers.push_back(std::make_unique<qols::server::SessionBroker>(shared));
    }
    std::vector<std::size_t> at(in.captured.size(), 0);
    std::vector<std::uint8_t> out;
    wire::FrameDecoder responses;
    std::int64_t busy_ns = 0;
    for (bool any = true; any;) {
      any = false;
      for (std::size_t c = 0; c < in.captured.size(); ++c) {
        const auto& bytes = in.captured[c];
        if (at[c] >= bytes.size()) continue;
        any = true;
        const std::size_t n = std::min(kChunk, bytes.size() - at[c]);
        const std::int64_t a = now_ns();
        brokers[c]->ingest({bytes.data() + at[c], n});
        do {
          brokers[c]->pump(out, std::size_t{1} << 20);
        } while (brokers[c]->has_buffered_frames() && out.size() < (std::size_t{1} << 20));
        const std::int64_t b = now_ns();
        in.spans.add(c, "broker.ingest_pump", "replay.broker", a, b);
        busy_ns += b - a;
        at[c] += n;
        // Responses are checked outside the timed span.
        responses.append(out);
        out.clear();
        while (auto f = responses.next()) {
          if (f->type == wire::FrameType::kVerdict) {
            const auto v = wire::read_verdict(f->payload);
            const Verdict replayed{v.accepted, v.fully_simulated, {v.classical_bits, v.qubits}};
            if (!wire_matches(in.wire, v.session - 1, replayed)) ++r.mismatches;
          } else if (f->type == wire::FrameType::kError) {
            ++r.mismatches;
          }
        }
      }
    }
    r.wall_s = ns_to_s(busy_ns);
    for (const auto& bytes : in.captured) {
      wire::FrameDecoder d;
      d.append(bytes);
      while (d.next()) ++r.frames;
    }
  }
  if (in.traffic.spec().durable) fs::remove_all(fs::path(in.scratch_dir) / "broker-replay");
  return r;
}

WireDecode time_decoder(const ReplayInput& in) {
  WireDecode r;
  std::uint64_t frames = 0, bytes_total = 0;
  const std::int64_t t0 = now_ns();
  for (const auto& bytes : in.captured) {
    wire::FrameDecoder d;
    for (std::size_t at = 0; at < bytes.size(); at += kChunk) {
      d.append({bytes.data() + at, std::min(kChunk, bytes.size() - at)});
      while (d.next()) ++frames;
    }
    bytes_total += bytes.size();
  }
  const std::int64_t t1 = now_ns();
  std::uint64_t symbols = 0;
  for (const std::size_t s : in.sessions) symbols += in.traffic.word_of(s).size();
  r.ns_per_frame = static_cast<double>(t1 - t0) / static_cast<double>(std::max<std::uint64_t>(1, frames));
  r.bytes_per_symbol = static_cast<double>(bytes_total) / static_cast<double>(std::max<std::uint64_t>(1, symbols));
  return r;
}

DurableReplay replay_durable(const ReplayInput& in, std::size_t count) {
  DurableReplay r;
  count = std::min(count, in.sessions.size());
  if (count == 0) return r;
  RecognizerService::Config cfg;
  cfg.spec = in.traffic.spec().recognizer;
  cfg.durable = true;
  cfg.spill_dir = (fs::path(in.scratch_dir) / "durable-replay").string();
  fs::remove_all(cfg.spill_dir);
  fs::create_directories(cfg.spill_dir);

  auto half = [&](std::size_t s) { return in.traffic.word_of(s).size() / 2; };
  double records = 0;
  {
    RecognizerService svc(cfg);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t s = in.sessions[i];
      svc.open_at(s + 1, in.traffic.plan(s).seed);
      svc.feed(s + 1, std::span<const Symbol>(in.traffic.word_of(s).data(), half(s)));
    }
    const std::int64_t a = now_ns();
    svc.persist();
    const std::int64_t b = now_ns();
    in.spans.add(0, "service.persist", "replay.durable", a, b);
    r.persist_ms_per_ksession = ns_to_ms(b - a) * 1000.0 / static_cast<double>(count);
    r.spill_bytes_per_session =
        static_cast<double>(svc.stats().spill_bytes_written) / static_cast<double>(count);
    records += static_cast<double>(svc.manifest_records());
  }
  {
    const std::int64_t a = now_ns();
    RecognizerService svc(cfg);
    svc.recover();
    const std::int64_t b = now_ns();
    in.spans.add(0, "service.recover", "replay.durable", a, b);
    r.recover_ms = ns_to_ms(b - a);
    std::int64_t revive_ns = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t s = in.sessions[i];
      const auto& word = in.traffic.word_of(s);
      const std::size_t mid = half(s);
      const std::size_t first = std::min<std::size_t>(word.size() - mid, 64);
      const std::int64_t c = now_ns();
      svc.feed(s + 1, std::span<const Symbol>(word.data() + mid, first));
      const std::int64_t d = now_ns();
      in.spans.add(s + 1, "service.first_feed", "replay.durable", c, d);
      revive_ns += d - c;
      svc.feed(s + 1, std::span<const Symbol>(word.data() + mid + first,
                                             word.size() - mid - first));
      if (!wire_matches(in.wire, s, svc.finish(s + 1))) ++r.mismatches;
    }
    r.revive_us = static_cast<double>(revive_ns) * 1e-3 / static_cast<double>(count);
    records += static_cast<double>(svc.manifest_records());
  }
  r.manifest_records_per_session = records / static_cast<double>(count);
  fs::remove_all(cfg.spill_dir);
  return r;
}

}  // namespace perfbench
