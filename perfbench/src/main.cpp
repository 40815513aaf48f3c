// perfbench: the repository's serving benchmark.
//
//   perfbench --workload short-block --seed 1 --seconds 10 --trace 0
//             --server <qols_server> --workdir <dir> [--commit <sha>]
//   perfbench --selfcheck --server <qols_server> --workdir <dir>
//
// Spawns qols_server on loopback, drives it from this process (one thread,
// `connections` sockets), checks every verdict against direct
// RecognizerService runs, and prints every metric by name with its unit.
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer ones (from a traced loopback run plus in-process replays of
// the same traffic) and the layer waterfall.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"
#include "replay.hpp"
#include "server_process.hpp"
#include "traffic.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace wire = qols::server::wire;

/// Slices of each saturated window (see Runner::run_serving).
constexpr std::int64_t kSlices = 10;
/// Saturated + paced rounds per serving run, each on fresh processes.
constexpr int kRounds = 3;
/// Server starts per serving run: setup_s and restart_s are their medians.
constexpr std::size_t kRestarts = 21;

const std::vector<std::string> kEndToEnd = {
    "sessions_per_s", "latency_p50_ms", "latency_p99_ms", "verified_ratio",
    "setup_s",        "cpu_ms_per_session", "peak_rss_mib"};

const std::vector<std::string> kPerLayer = {
    "quantum.kernel_share", "quantum.diffusion_us", "quantum.gates_per_session",
    "core.feed_ns_per_symbol", "core.finish_us",
    "service.open_us", "service.feed_ns_per_symbol", "service.finish_us",
    "service.flushes_per_ksession", "service.parallel_speedup",
    "service.persist_ms_per_ksession", "service.recover_ms", "service.revive_us",
    "service.spill_bytes_per_session", "service.manifest_records_per_session",
    "broker.ns_per_frame", "broker.self_ms_per_ksession",
    "wire.decode_ns_per_frame", "wire.bytes_per_symbol",
    "server.cpu_utilization", "server.transport_ms_per_ksession",
    "server.feed_frame_us", "server.finish_frame_us",
    "service.flush_ms_p50", "service.flush_ms_p99",
    "server.backpressure_pauses", "server.frames_per_session",
    "service.busy_share", "loadgen.lag_p99_ms", "loadgen.cpu_utilization",
    "trace.overhead_sessions_per_s",
    "waterfall.core_share", "waterfall.service_share",
    "waterfall.broker_share", "waterfall.transport_share"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selfcheck = false;
  std::string server;
  std::string workdir;
  std::string commit = "unknown";
};

/// "key": number in a flat JSON text (the STATS document).
double json_number(const std::string& text, const std::string& key) {
  const auto at = text.find("\"" + key + "\":");
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + key.size() + 3, nullptr);
}

/// A counter sample or a histogram from the Prometheus exposition.
struct PromHistogram {
  std::vector<std::pair<double, double>> buckets;  ///< (le, cumulative)
  double sum = 0, count = 0;
  double quantile(double q) const {
    const double rank = std::ceil(q * count);
    for (const auto& [le, cum] : buckets) {
      if (cum >= rank && rank > 0) return le;
    }
    return 0.0;
  }
  double mean() const { return count > 0 ? sum / count : 0.0; }
};

double prom_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) return std::strtod(line.c_str() + name.size() + 1, nullptr);
  }
  return 0.0;
}

PromHistogram prom_histogram(const std::string& text, const std::string& name) {
  PromHistogram h;
  std::istringstream in(text);
  std::string line;
  const std::string bucket = name + "_bucket{le=\"";
  while (std::getline(in, line)) {
    if (line.rfind(bucket, 0) == 0) {
      const std::string le = line.substr(bucket.size(), line.find('"', bucket.size()) - bucket.size());
      if (le == "+Inf") continue;
      h.buckets.emplace_back(std::stod(le), std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr));
    }
  }
  h.sum = prom_value(text, name + "_sum");
  h.count = prom_value(text, name + "_count");
  return h;
}

/// One benchmark pass over one workload.
class Runner {
 public:
  Runner(const WorkloadSpec& spec, const Args& args)
      : spec_(spec), args_(args), traffic_(spec, args.seed), oracle_(traffic_) {
    server_args_ = {"--kind", spec.server_kind};
    if (!spec.server_backend.empty()) {
      server_args_.insert(server_args_.end(), {"--backend", spec.server_backend});
    }
    if (spec.durable) {
      const std::string spill = (fs::path(args.workdir) / "spill").string();
      fs::remove_all(spill);
      fs::create_directories(spill);
      server_args_.insert(server_args_.end(),
                          {"--durable", "--persist-on-shutdown", "--spill-dir", spill});
    }
  }

  Traffic& traffic() { return traffic_; }
  Results& results() { return results_; }
  Oracle& oracle() { return oracle_; }
  Metrics metrics;
  std::vector<std::string> notes;

  /// Errors over the given sessions: ERROR frames (since the last call),
  /// verdict mismatches and sessions with no verdict.
  std::uint64_t check(const std::vector<std::size_t>& sessions) {
    oracle_.prepare(sessions);
    std::uint64_t bad = results_.error_frames - errors_counted_;
    errors_counted_ = results_.error_frames;
    for (const std::size_t s : sessions) {
      const Outcome* o = s < results_.outcomes.size() ? &results_.outcomes[s] : nullptr;
      if (o == nullptr || !o->verdict_seen || !same_verdict(o->verdict, oracle_.expected(s))) {
        ++bad;
      }
    }
    return bad;
  }

  /// Spawns a server and connects; records setup (and restart, when a
  /// previous server was terminated at `terminated_ns`).
  std::unique_ptr<LoadGen> start(std::unique_ptr<ServerProcess>& srv,
                                 std::int64_t terminated_ns, bool record,
                                 SpanLog* spans = nullptr, bool capture = false) {
    srv = std::make_unique<ServerProcess>(args_.server, server_args_);
    auto lg = std::make_unique<LoadGen>(traffic_, results_, srv->port(),
                                        spec_.connections, spans, capture);
    if (record) {
      setup_s_.push_back(ns_to_s(lg->hello_ok_ns() - srv->spawned_ns()));
      if (terminated_ns > 0) restart_s_.push_back(ns_to_s(lg->hello_ok_ns() - terminated_ns));
    }
    return lg;
  }

  /// Disconnects, SIGTERMs and reaps; returns the SIGTERM time.
  std::int64_t stop(std::unique_ptr<ServerProcess>& srv, std::unique_ptr<LoadGen>& lg) {
    if (lg) lg->close();
    lg.reset();
    const std::int64_t t = now_ns();
    srv->terminate();
    double rss = 0;
    if (!srv->wait(rss)) {
      throw std::runtime_error("qols_server did not exit cleanly");
    }
    peak_rss_mib_ = std::max(peak_rss_mib_, rss);
    srv.reset();
    return t;
  }

  void run_serving();
  void run_restart();
  void run_traced();
  /// Generator validity and the end-to-end metrics.
  void finish_end_to_end();

  std::uint64_t errors = 0;
  bool valid = true;

 private:
  const WorkloadSpec& spec_;
  const Args& args_;
  Traffic traffic_;
  Results results_;
  Oracle oracle_;
  std::vector<std::string> server_args_;
  std::uint64_t errors_counted_ = 0;

  std::vector<double> setup_s_, restart_s_, lag_ms_;
  /// (FINISH time, latency ms) per verified session: closed loops (sent
  /// to verdict) and the paced open loop (due to verdict).
  std::vector<std::pair<std::int64_t, double>> latency_, paced_latency_;
  double peak_rss_mib_ = 0;
  double sessions_per_s_ = 0, cpu_ms_per_session_ = 0;
  double loadgen_cpu_ = 0;
};

struct LatencySummary {
  double p50 = 0, p99 = 0;
  bool refused = false;
  std::string note;
};

/// Percentiles per slice of >= 1000 consecutive FINISHes; the medians over
/// slices are reported, so one stalled stretch moves one slice.
LatencySummary summarize(std::vector<std::pair<std::int64_t, double>> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t slices = std::max<std::size_t>(1, samples.size() / 1000);
  std::vector<double> p50s, p99s;
  LatencySummary r;
  for (std::size_t k = 0; k < slices; ++k) {
    std::vector<double> ms;
    for (std::size_t i = samples.size() * k / slices; i < samples.size() * (k + 1) / slices; ++i) {
      ms.push_back(samples[i].second);
    }
    const auto p50 = percentile(ms, 0.50);
    const auto p99 = percentile(ms, 0.99);
    r.refused = r.refused || !p50 || !p99;
    if (p50) p50s.push_back(p50->value);
    if (p99) p99s.push_back(p99->value);
  }
  r.p50 = median(p50s);
  r.p99 = median(p99s);
  r.note = "n=" + std::to_string(samples.size()) + " in " + std::to_string(slices) +
           " slices, median of slice percentiles";
  return r;
}

std::vector<std::size_t> range(std::size_t first, std::size_t last) {
  std::vector<std::size_t> v;
  for (std::size_t i = first; i < last; ++i) v.push_back(i);
  return v;
}

std::function<std::optional<std::size_t>()> from_list(const std::vector<std::size_t>& list) {
  auto at = std::make_shared<std::size_t>(0);
  return [&list, at]() -> std::optional<std::size_t> {
    if (*at >= list.size()) return std::nullopt;
    return list[(*at)++];
  };
}

// Rounds of a saturated closed loop and a paced open loop, each on a fresh
// server process, then idle restarts. The saturated windows are cut into
// slices that each report a rate and a CPU cost per session; the medians
// over all slices of all rounds are kept, so a stall of the shared machine,
// or one process's unlucky thread placement, moves a minority of slices
// rather than the result.
void Runner::run_serving() {
  const double sat_s = 0.6 * args_.seconds / kRounds;
  const double warm_s = std::min(0.5, 0.2 * sat_s);
  const double paced_s = 0.3 * args_.seconds / kRounds;

  std::unique_ptr<ServerProcess> srv;
  std::unique_ptr<LoadGen> lg;
  std::int64_t term = 0;
  std::vector<double> rate, cpu;
  double lg_cpu = 0, paced_wall = 0;
  std::size_t saturated = 0, paced = 0;
  for (int round = 0; round < kRounds; ++round) {
    lg = start(srv, term, true);
    const std::size_t first = traffic_.size();
    const std::int64_t t0 = now_ns();
    const std::int64_t w0 = t0 + static_cast<std::int64_t>(warm_s * 1e9);
    const std::int64_t w1 = t0 + static_cast<std::int64_t>(sat_s * 1e9);
    std::vector<std::int64_t> cut_ns;
    std::vector<double> cut_cpu;
    lg->run_closed(Lifecycle::kFull, spec_.window, [&]() -> std::optional<std::size_t> {
      const std::int64_t now = now_ns();
      const auto k = static_cast<std::int64_t>(cut_ns.size());
      if (k <= kSlices && now >= w0 + (w1 - w0) * k / kSlices) {
        cut_ns.push_back(now);
        cut_cpu.push_back(process_cpu_s(srv->pid()));
      }
      if (now >= w1) return std::nullopt;
      return traffic_.add_session(false);
    });
    for (std::size_t k = 0; k + 1 < cut_ns.size(); ++k) {
      std::uint64_t n = 0;
      for (std::size_t s = first; s < traffic_.size(); ++s) {
        const Outcome& o = results_.outcomes[s];
        if (o.verdict_seen && o.verdict_ns >= cut_ns[k] && o.verdict_ns < cut_ns[k + 1]) ++n;
      }
      rate.push_back(static_cast<double>(n) / ns_to_s(cut_ns[k + 1] - cut_ns[k]));
      cpu.push_back((cut_cpu[k + 1] - cut_cpu[k]) * 1e3 / static_cast<double>(std::max<std::uint64_t>(1, n)));
    }
    for (std::size_t s = first; s < traffic_.size(); ++s) {
      const Outcome& o = results_.outcomes[s];
      if (o.verdict_seen && o.finish_ns >= w0) {
        latency_.emplace_back(o.finish_ns, ns_to_ms(o.verdict_ns - o.finish_ns));
      }
    }
    saturated += traffic_.size() - first;
    term = stop(srv, lg);

    lg = start(srv, term, true);
    const double g0 = process_cpu_s(0);
    const std::int64_t p0 = now_ns();
    const auto arrivals = lg->run_paced(spec_.paced_rate, spec_.stream_s, paced_s);
    lg_cpu += process_cpu_s(0) - g0;
    paced_wall += ns_to_s(now_ns() - p0);
    lag_ms_.insert(lag_ms_.end(), lg->lag_ms.begin(), lg->lag_ms.end());
    paced += arrivals.size();
    if (!arrivals.empty()) {
      // Latency from sessions that arrived once the open-session count had
      // reached its steady level.
      const std::int64_t steady =
          arrivals.front().due_ns + static_cast<std::int64_t>(spec_.stream_s * 1e9);
      for (const auto& a : arrivals) {
        const Outcome& o = results_.outcomes[a.session];
        if (a.due_ns >= steady && o.verdict_seen) {
          paced_latency_.emplace_back(o.finish_ns, ns_to_ms(o.verdict_ns - o.finish_ns));
        }
      }
    }
    term = stop(srv, lg);
  }
  sessions_per_s_ = median(rate);
  cpu_ms_per_session_ = median(cpu);
  loadgen_cpu_ = lg_cpu / paced_wall;
  metrics.set("phase.saturated_sessions", static_cast<double>(saturated), "count",
              "sessions driven through the saturated rounds");
  metrics.set("phase.paced_sessions", static_cast<double>(paced), "count",
              "sessions offered at the fixed rate");
  while (setup_s_.size() < kRestarts) {
    lg = start(srv, term, true);
    term = stop(srv, lg);
  }
  errors += check(range(0, traffic_.size()));
}

// Cycles of: open and half-feed a batch, SIGTERM (the server persists it),
// restart on the same directory, RESUME, feed the rest, FINISH.
void Runner::run_restart() {
  std::unique_ptr<ServerProcess> srv;
  auto lg = start(srv, 0, false);
  const std::int64_t t_end = now_ns() + static_cast<std::int64_t>(args_.seconds * 1e9);
  std::vector<double> rate, cpu;
  double loadgen_cpu = 0, resume_wall = 0;
  for (int cycle = 0; cycle < 3 || (now_ns() < t_end && cycle < 64); ++cycle) {
    const std::size_t first = traffic_.size();
    for (std::size_t i = 0; i < spec_.restart_sessions; ++i) traffic_.add_session(true);
    const std::vector<std::size_t> batch = range(first, traffic_.size());
    lg->run_closed(Lifecycle::kOpenHalf, 256, from_list(batch));
    lg->settle();
    const std::int64_t term = stop(srv, lg);
    lg = start(srv, term, true);
    const double c0 = process_cpu_s(srv->pid());
    const double g0 = process_cpu_s(0);
    const std::int64_t t0 = now_ns();
    lg->run_closed(Lifecycle::kResumeRest, spec_.window, from_list(batch));
    const double wall = ns_to_s(now_ns() - t0);
    const double server_cpu = process_cpu_s(srv->pid()) - c0;
    loadgen_cpu += process_cpu_s(0) - g0;
    resume_wall += wall;
    std::uint64_t resumed = 0;
    for (const std::size_t s : batch) {
      const Outcome& o = results_.outcomes[s];
      if (o.verdict_seen) {
        ++resumed;
        latency_.emplace_back(o.finish_ns, ns_to_ms(o.verdict_ns - o.finish_ns));
      }
    }
    rate.push_back(static_cast<double>(resumed) / wall);
    cpu.push_back(server_cpu * 1e3 / static_cast<double>(std::max<std::uint64_t>(1, resumed)));
  }
  lag_ms_ = lg->lag_ms;
  stop(srv, lg);
  sessions_per_s_ = median(rate);
  cpu_ms_per_session_ = median(cpu);
  loadgen_cpu_ = loadgen_cpu / resume_wall;
  metrics.set("phase.restart_cycles", static_cast<double>(restart_s_.size()), "count",
              "SIGTERM/restart/resume cycles; rates are medians over cycles");
  errors += check(range(0, traffic_.size()));
}

void Runner::finish_end_to_end() {
  const LatencySummary closed = summarize(latency_);
  if (closed.refused) {
    valid = false;
    notes.push_back("too few latency samples for p99 (" + std::to_string(latency_.size()) + ")");
  }
  auto lag = percentile(lag_ms_, 0.99);
  const double lag_p99 = lag ? lag->value : (lag_ms_.empty() ? 0.0 : *std::max_element(lag_ms_.begin(), lag_ms_.end()));
  // The generator, not the server, fell behind when its own thread was
  // saturated while its frames ran late.
  if (loadgen_cpu_ > 0.95 && lag_p99 > 1.0) {
    valid = false;
    notes.push_back("load generator saturated: lag p99 " + std::to_string(lag_p99) + " ms");
  }
  const double attempted = static_cast<double>(std::max<std::size_t>(1, traffic_.size()));
  metrics.set("sessions_per_s", sessions_per_s_, "1/s");
  metrics.set("latency_p50_ms", closed.p50, "ms", closed.note);
  metrics.set("latency_p99_ms", closed.p99, "ms", closed.note);
  if (!paced_latency_.empty()) {
    // The open loop's figures move with the shared host's wake-up latency
    // far more than the closed loop's, so they are printed, not gated.
    const LatencySummary paced = summarize(paced_latency_);
    metrics.set("paced.latency_p50_ms", paced.p50, "ms", "FINISH due to VERDICT, " + paced.note);
    metrics.set("paced.latency_p99_ms", paced.p99, "ms", "FINISH due to VERDICT, " + paced.note);
  }
  metrics.set("error_ratio", static_cast<double>(errors) / attempted, "ratio",
              std::to_string(errors) + " errors over " + std::to_string(traffic_.size()) + " sessions");
  metrics.set("verified_ratio", std::max(0.0, 1.0 - static_cast<double>(errors) / attempted), "ratio");
  metrics.set("setup_s", median(setup_s_), "s", "median of " + std::to_string(setup_s_.size()));
  metrics.set("restart_s", median(restart_s_), "s", "median of " + std::to_string(restart_s_.size()));
  metrics.set("cpu_ms_per_session", cpu_ms_per_session_, "ms");
  metrics.set("peak_rss_mib", peak_rss_mib_, "MiB");
  metrics.set("loadgen.lag_p99_ms", lag_p99, "ms", "n=" + std::to_string(lag_ms_.size()));
  metrics.set("loadgen.cpu_utilization", loadgen_cpu_, "cores");
}

// A fixed traffic set served twice on fresh servers (untraced, then traced
// with client spans and byte capture), then replayed in process.
void Runner::run_traced() {
  const std::size_t first = traffic_.size();
  for (std::size_t i = 0; i < spec_.traced_sessions; ++i) traffic_.add_session(false);
  const std::vector<std::size_t> set = range(first, traffic_.size());
  const double n = static_cast<double>(set.size());

  std::unique_ptr<ServerProcess> srv;
  auto lg = start(srv, 0, false);
  std::int64_t t0 = now_ns();
  lg->run_closed(Lifecycle::kFull, spec_.window, from_list(set));
  const double untraced_sps = n / ns_to_s(now_ns() - t0);
  stop(srv, lg);
  errors += check(set);

  SpanLog spans;
  spans.on = true;
  lg = start(srv, 0, false, &spans, true);
  const double c0 = process_cpu_s(srv->pid());
  t0 = now_ns();
  lg->run_closed(Lifecycle::kFull, spec_.window, from_list(set));
  const std::int64_t t1 = now_ns();
  const double loop_s = ns_to_s(t1 - t0);
  const double server_cpu = process_cpu_s(srv->pid()) - c0;
  const std::string stats = lg->fetch_text(wire::FrameType::kStats);
  const std::string prom = lg->fetch_text(wire::FrameType::kMetrics);
  const auto captured = std::move(lg->captured);
  stop(srv, lg);
  errors += check(set);

  const ReplayInput in{traffic_, set, captured, results_, spans, args_.workdir};
  const CoreReplay core = replay_core(in);
  const ServiceReplay service = replay_service(in);
  const BrokerReplay broker = replay_broker(in);
  const WireDecode dec = time_decoder(in);
  const DurableReplay durable = replay_durable(in, spec_.durable_replay_sessions);
  const std::uint64_t replay_mismatches =
      core.mismatches + service.mismatches + broker.mismatches + durable.mismatches;
  errors += replay_mismatches;

  const double ks = n / 1000.0;
  metrics.set("quantum.kernel_share", core.diffusion_ns * 1e-9 / core.wall_s, "ratio",
              "quantum.diffusion.ns over the one-thread core replay wall");
  metrics.set("quantum.diffusion_us", core.diffusion_ns * 1e-3 / n, "us", "per session");
  metrics.set("quantum.gates_per_session", core.gates / n, "count");
  metrics.set("core.feed_ns_per_symbol", core.feed_ns_per_symbol, "ns");
  metrics.set("core.finish_us", core.finish_us, "us");
  metrics.set("service.open_us", service.open_us, "us");
  metrics.set("service.feed_ns_per_symbol", service.feed_ns_per_symbol, "ns");
  metrics.set("service.finish_us", service.finish_us, "us");
  metrics.set("service.flushes_per_ksession", service.flushes / ks, "count");
  metrics.set("service.parallel_speedup", core.wall_s / service.wall_s, "ratio",
              "one-thread core wall over service replay wall");
  metrics.set("service.persist_ms_per_ksession", durable.persist_ms_per_ksession, "ms");
  metrics.set("service.recover_ms", durable.recover_ms, "ms");
  metrics.set("service.revive_us", durable.revive_us, "us");
  metrics.set("service.spill_bytes_per_session", durable.spill_bytes_per_session, "B");
  metrics.set("service.manifest_records_per_session", durable.manifest_records_per_session, "count");
  metrics.set("broker.ns_per_frame", broker.wall_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, broker.frames)), "ns");
  metrics.set("broker.self_ms_per_ksession", (broker.wall_s - service.wall_s) * 1e3 / ks, "ms");
  metrics.set("wire.decode_ns_per_frame", dec.ns_per_frame, "ns");
  metrics.set("wire.bytes_per_symbol", dec.bytes_per_symbol, "B");
  metrics.set("server.cpu_utilization", server_cpu / loop_s, "cores");
  metrics.set("server.transport_ms_per_ksession", (loop_s - broker.wall_s) * 1e3 / ks, "ms");
  metrics.set("server.feed_frame_us", prom_histogram(prom, "qols_server_feed_frame_ns").mean() * 1e-3, "us");
  metrics.set("server.finish_frame_us", prom_histogram(prom, "qols_server_finish_frame_ns").mean() * 1e-3, "us");
  const PromHistogram flush = prom_histogram(prom, "qols_service_flush_ns");
  metrics.set("service.flush_ms_p50", flush.quantile(0.50) * 1e-6, "ms",
              "log2 bucket bound, n=" + std::to_string(static_cast<long long>(flush.count)));
  metrics.set("service.flush_ms_p99", flush.quantile(0.99) * 1e-6, "ms",
              "log2 bucket bound, n=" + std::to_string(static_cast<long long>(flush.count)));
  metrics.set("server.backpressure_pauses", json_number(stats, "backpressure_pauses"), "count");
  metrics.set("server.frames_per_session", prom_value(prom, "qols_server_frames_in") / n, "count");
  metrics.set("service.busy_share", json_number(stats, "busy_seconds") / loop_s, "ratio");
  metrics.set("trace.overhead_sessions_per_s", n / loop_s - untraced_sps, "1/s",
              "traced minus untraced loopback sessions/s on the same traffic");
  metrics.set("replay.mismatches", static_cast<double>(replay_mismatches), "count",
              "replay verdicts differing from wire verdicts");

  // Waterfall: each level's wall time for the same sessions; self time is
  // the wall minus the level beneath (core runs on one thread, so a
  // negative service self time is the pool's parallel gain).
  struct Level {
    const char* name;
    double wall, self;
  };
  const Level levels[] = {
      {"core", core.wall_s, core.wall_s},
      {"service", service.wall_s, service.wall_s - core.wall_s},
      {"broker", broker.wall_s, broker.wall_s - service.wall_s},
      {"transport", loop_s, loop_s - broker.wall_s},
  };
  std::printf("waterfall %s (%zu sessions, end to end %.3f ms)\n", spec_.name.c_str(), set.size(), loop_s * 1e3);
  std::printf("waterfall %-10s %12s %12s %8s\n", "layer", "wall_ms", "self_ms", "share");
  const char* dominant = "core";
  double best = -1e300;
  for (const Level& l : levels) {
    const double share = l.self / loop_s;
    std::printf("waterfall %-10s %12.3f %12.3f %8.3f\n", l.name, l.wall * 1e3, l.self * 1e3, share);
    metrics.set(std::string("waterfall.") + l.name + "_share", share, "ratio");
    if (l.self > best) {
      best = l.self;
      dominant = l.name;
    }
  }
  std::printf("waterfall dominant layer: %s (predicted: %s)\n", dominant, spec_.predicted_dominant.c_str());
  std::printf("waterfall tracing overhead: %.1f sessions/s (traced %.1f, untraced %.1f)\n",
              n / loop_s - untraced_sps, n / loop_s, untraced_sps);
  const std::string path = (fs::path(args_.workdir) / ("spans-" + spec_.name + ".csv")).string();
  if (spans.write(path)) {
    std::printf("perfbench: wrote %zu spans to %s\n", spans.spans.size(), path.c_str());
  }
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Runner r(*spec, args);
  std::printf("perfbench: fingerprint %s\n", fingerprint_json(args.commit, args.workdir).c_str());
  std::printf("perfbench: workload %s\n", spec->params_json().c_str());
  const WordPool& pool = r.traffic().pool();
  std::printf("perfbench: pool {\"words\": %zu, \"members\": %zu, \"non_members\": %zu, \"mutants\": %zu}\n",
              pool.words.size(), pool.members, pool.non_members, pool.mutants);
  if (spec->durable) {
    r.run_restart();
  } else {
    r.run_serving();
  }
  r.finish_end_to_end();
  if (args.trace) r.run_traced();
  r.metrics.set("oracle.direct_runs", static_cast<double>(r.oracle().computed()), "count",
                "memoized (word, seed) reference runs");
  r.metrics.print();
  for (const std::string& n : r.notes) std::printf("perfbench: invalid: %s\n", n.c_str());
  const bool correct = r.errors == 0 && r.valid;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", r.traffic().size(),
              static_cast<unsigned long long>(r.errors),
              r.metrics.json(args.trace ? kPerLayer : kEndToEnd).c_str());
  std::fflush(stdout);
  return 0;
}

// Self-checks: the percentile helper's sample floor, a planted wrong
// expected verdict, and replay-vs-wire verdict equality on a small run of
// every workload.
int selfcheck(const Args& base) {
  int failures = 0;
  auto report = [&](bool ok, const std::string& what) {
    std::printf("selfcheck %s: %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  std::vector<double> v(999);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  report(!percentile(v, 0.99).has_value(), "p99 refused with 999 samples");
  v.push_back(999.0);
  const auto p = percentile(v, 0.99);
  report(p && p->samples == 1000 && p->value == 989.0, "p99 of 0..999 is 989 with n=1000");

  for (const WorkloadSpec& w : workloads()) {
    WorkloadSpec small = w;
    small.connections = 2;
    small.window = 4;
    small.traced_sessions = w.recognizer.kind == qols::service::RecognizerKind::kQuantum ? 8 : 40;
    Args args = base;
    args.workload = w.name;
    Runner r(small, args);
    std::unique_ptr<ServerProcess> srv;
    SpanLog spans;
    auto lg = r.start(srv, 0, false, &spans, true);
    const std::size_t first = r.traffic().size();
    for (std::size_t i = 0; i < small.traced_sessions; ++i) r.traffic().add_session(w.durable);
    const std::vector<std::size_t> set = range(first, r.traffic().size());
    if (w.durable) {
      lg->run_closed(Lifecycle::kOpenHalf, small.window, from_list(set));
      lg->settle();
      const std::int64_t term = r.stop(srv, lg);
      lg = r.start(srv, term, true);
      lg->run_closed(Lifecycle::kResumeRest, small.window, from_list(set));
      r.stop(srv, lg);
      report(r.check(set) == 0, w.name + ": every verdict after restart matches the oracle");
      // A fresh full-lifecycle run for the replay comparison.
      lg = r.start(srv, 0, false, &spans, true);
    }
    lg->run_closed(Lifecycle::kFull, small.window, from_list(set));
    const auto captured = std::move(lg->captured);
    r.stop(srv, lg);
    report(r.check(set) == 0, w.name + ": every wire verdict matches the oracle");
    r.oracle().plant_wrong(set.front());
    report(r.check(set) > 0, w.name + ": a planted wrong expected verdict is caught");
    const ReplayInput in{r.traffic(), set, captured, r.results(), spans, args.workdir};
    report(replay_core(in).mismatches == 0, w.name + ": core replay verdicts equal wire verdicts");
    report(replay_service(in).mismatches == 0, w.name + ": service replay verdicts equal wire verdicts");
    report(replay_broker(in).mismatches == 0, w.name + ": broker replay verdicts equal wire verdicts");
    report(replay_durable(in, 4).mismatches == 0, w.name + ": durable replay verdicts equal wire verdicts");
  }
  std::printf("selfcheck: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to time a build without NDEBUG\n");
  return 2;
#endif
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") args.workload = value();
    else if (a == "--seed") args.seed = std::stoull(value());
    else if (a == "--seconds") args.seconds = std::stod(value());
    else if (a == "--trace") args.trace = value() != "0";
    else if (a == "--server") args.server = value();
    else if (a == "--workdir") args.workdir = value();
    else if (a == "--commit") args.commit = value();
    else if (a == "--selfcheck") args.selfcheck = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (args.server.empty() || args.workdir.empty()) {
    std::fprintf(stderr, "perfbench: --server and --workdir are required\n");
    return 2;
  }
  try {
    return args.selfcheck ? perfbench::selfcheck(args) : perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
