// E25 — network server throughput: the wire protocol + epoll front end
// (PR 9) serving a full load-generator run, with every verdict verified
// against direct RecognizerService runs.
//
// Setup: a Server (classical block machine, loopback, ephemeral port) on a
// worker thread; run_load() drives it exactly the way qols_load does —
// `connections` TCP connections, `sessions` wire sessions all OPEN before
// the first FINISH (so the concurrency figure is real, not a high-water
// guess), ragged FEED chunks, bounded FINISH windows for honest latency.
// FEED payloads go through RecognizerService::feed (buffered, batched
// across the pool by flush_threshold).
//
// Verification: the load words and recognizer seeds are deterministic
// (LoadOptions::seed), so every expected verdict is reproducible with one
// direct run per (word, seed) pair — a few hundred runs memoized against
// ten thousand wire sessions, compared bit for bit: accepted,
// fully_simulated, classical_bits, qubits.
//
// Claims (NDEBUG only; unoptimized builds report without enforcing):
//   - every wire verdict matches its direct-run reference exactly;
//   - zero ERROR frames; the drain abandons zero sessions;
//   - >= 10^4 sessions held open concurrently;
//   - sessions/sec and symbols/sec are nonzero (the tracked series).
#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "experiments.hpp"
#include "qols/server/load_client.hpp"
#include "qols/server/server.hpp"
#include "qols/service/recognizer_service.hpp"
#include "qols/util/table.hpp"
#include "registry.hpp"

namespace qols::bench {
namespace {

using server::LoadOptions;
using server::LoadReport;
using server::Server;
using service::RecognizerKind;
using service::RecognizerService;
using stream::Symbol;

/// Expected verdict for one (word, seed) pair, via a direct service run —
/// the same engine the server fronts, minus every wire byte.
struct Reference {
  bool accepted = false;
  bool fully_simulated = true;
  std::uint64_t classical_bits = 0;
  std::uint64_t qubits = 0;
};

Reference direct_reference(const std::vector<Symbol>& word,
                           std::uint64_t seed) {
  RecognizerService::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  RecognizerService svc(cfg);
  const auto id = svc.open(seed);
  svc.feed(id, word);
  const auto v = svc.finish(id);
  return {v.accepted, v.fully_simulated, v.space.classical_bits,
          v.space.qubits};
}

struct Leg {
  LoadReport report;
  std::uint64_t verdict_mismatches = 0;
  std::uint64_t sessions_abandoned = 0;
};

/// One server lifetime: bring it up, run the load, drain it, verify every
/// collected outcome against the memoized references.
Leg run_leg(const LoadOptions& load_template,
            const server::LoadWords& words) {
  Server::Config cfg;
  cfg.spec.kind = RecognizerKind::kClassicalBlock;
  cfg.max_sessions = load_template.sessions + 16;
  Server srv(cfg);
  std::thread loop([&srv] { srv.run(); });

  LoadOptions opts = load_template;
  opts.port = srv.port();
  opts.collect_outcomes = true;

  Leg leg;
  leg.report = server::run_load(opts);
  srv.shutdown();
  loop.join();
  leg.sessions_abandoned = srv.counters().sessions_abandoned;

  std::map<std::pair<bool, std::uint64_t>, Reference> memo;
  for (const auto& outcome : leg.report.outcomes) {
    const bool odd = outcome.session_index % 2 != 0;
    const std::uint64_t seed = server::seed_for_session(opts,
                                                        outcome.session_index);
    auto it = memo.find({odd, seed});
    if (it == memo.end()) {
      it = memo.emplace(std::pair{odd, seed},
                        direct_reference(
                            server::word_for_session(words,
                                                     outcome.session_index),
                            seed))
               .first;
    }
    const Reference& ref = it->second;
    const auto& v = outcome.verdict;
    if (v.accepted != ref.accepted ||
        v.fully_simulated != ref.fully_simulated ||
        v.classical_bits != ref.classical_bits || v.qubits != ref.qubits) {
      ++leg.verdict_mismatches;
    }
  }
  return leg;
}

int run(Reporter& rep, const RunConfig& cfg) {
  LoadOptions base;
  base.k = 3;
  base.connections = 8;
  base.sessions = 10'000;
  base.seed = 25;
  // --trials scales the fleet (floor 1000 keeps the verify meaningful).
  if (cfg.trials) {
    base.sessions = std::max<std::uint64_t>(
        1000, static_cast<std::uint64_t>(*cfg.trials));
  }
  const auto words = server::make_load_words(base.k, base.seed);

  const Leg leg = run_leg(base, words);
  const LoadReport& r = leg.report;

  util::Table table({"sessions", "conns", "sessions/s", "symbols/s",
                     "p50 ms", "p99 ms", "errors", "mismatches"});
  table.add_row({util::fmt_g(r.sessions), std::to_string(base.connections),
                 util::fmt_g(static_cast<std::uint64_t>(
                     r.sessions_per_second)),
                 util::fmt_g(static_cast<std::uint64_t>(
                     r.symbols_per_second)),
                 util::fmt_f(r.p50_finish_ms, 3),
                 util::fmt_f(r.p99_finish_ms, 3), util::fmt_g(r.errors),
                 util::fmt_g(leg.verdict_mismatches)});
  rep.table(table);

  const bool verdicts_ok =
      leg.verdict_mismatches == 0 && r.sessions == base.sessions;
  const bool clean = r.errors == 0 && leg.sessions_abandoned == 0;
#ifdef NDEBUG
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  const bool concurrency_ok = !optimized || base.sessions < 10'000 ||
                              r.max_concurrent_sessions >= 10'000;
  const bool throughput_ok =
      !optimized ||
      (r.sessions_per_second > 0.0 && r.symbols_per_second > 0.0);

  MetricRecord m;
  m.label = "server-throughput";
  m.k = static_cast<std::int64_t>(base.k);
  m.trials = base.sessions;
  m.wall_seconds = r.wall_seconds;
  m.extra.emplace_back("sessions_per_sec", r.sessions_per_second);
  m.extra.emplace_back("symbols_per_sec", r.symbols_per_second);
  m.extra.emplace_back("p50_finish_ms", r.p50_finish_ms);
  m.extra.emplace_back("p99_finish_ms", r.p99_finish_ms);
  m.extra.emplace_back("max_concurrent_sessions",
                       static_cast<double>(r.max_concurrent_sessions));
  m.extra.emplace_back("verdicts_ok", verdicts_ok && clean ? 1.0 : 0.0);
  rep.metric(m);

  if (!verdicts_ok) {
    rep.note("WIRE VERDICTS DIVERGED from direct service runs — the "
             "framing-invariance contract is broken.");
  }
  if (!clean) {
    rep.note("ERROR frames or abandoned sessions on a clean load — the "
             "drain/session accounting is broken.");
  }
  rep.note("Verified " + util::fmt_g(r.sessions) +
           " wire verdicts bit-for-bit against direct runs; " +
           util::fmt_g(r.max_concurrent_sessions) +
           " sessions held open concurrently." +
           std::string(optimized ? ""
                                 : " (claims not enforced on an unoptimized "
                                   "build)"));
  rep.note(
      "\nReading: every byte of every session crossed a real TCP socket in "
      "ragged frames, and every verdict still matches a socketless run of "
      "the same engine — the wire layer adds transport, not semantics. "
      "Latency percentiles come from bounded FINISH windows, so they "
      "measure the server, not the loopback buffer.");
  return verdicts_ok && clean && concurrency_ok && throughput_ok ? 0 : 1;
}

}  // namespace

void register_e25(Registry& r) {
  r.add({.id = "e25",
         .title = "network server throughput (wire protocol, epoll loop)",
         .claim = "Claim (engineering): the socket front end serves >= 10^4 "
                  "concurrent wire sessions with every verdict bit-identical "
                  "to direct RecognizerService runs, zero error frames, and "
                  "a drain that abandons nothing.",
         .tags = {"server", "wire", "throughput", "service"}},
        run);
}

}  // namespace qols::bench
