// E24 — telemetry overhead: what the observability layer costs where it
// matters, measured as throughput ratios against an uninstrumented baseline.
//
// Two legs, both on the classical block machine (the highest symbols/sec in
// the repo, i.e. the layer where a per-op tax would show first):
//
//   - block-machine leg: one k=6 member word driven three ways —
//       raw:      a hand-inlined next_chunk/feed_chunk loop with NO
//                 telemetry call sites at all (the pre-PR transport);
//       disabled: machine::run_stream with telemetry::set_enabled(false) —
//                 every hook present, each reduced to one relaxed load +
//                 branch;
//       enabled:  run_stream with recording on (counters move).
//   - service leg: RecognizerService serving interleaved sessions, enabled
//     vs runtime-disabled, same interleaving and seeds, on a one-thread
//     pool. The hooks are per call, not per worker, and these sessions are
//     too short to gain from the pool; measured on a 4-vCPU VM, the
//     per-round ratios spread with an IQR of ~0.06 on one thread and ~0.45
//     on four.
//
// Measurement: each round times one pass per mode back to back, in an
// order that rotates every round (so no mode always runs first, cold), on
// one recognizer reset() before every pass. A round yields one ratio per
// claim; a claim is checked against the MEDIAN of its per-round ratios, and
// the ratios' IQR is reported next to it. Adjacent passes share the host's
// momentary speed, so a per-round ratio cancels slow drift, and the median
// ignores the rounds a burst of contention landed in.
//
// On a shared 4-vCPU VM the per-round ratios of even adjacent passes spread
// with an IQR of 0.02-0.2 depending on the neighbours, at k=6 and k=8
// alike. Resolving a 1% bound then takes hundreds of rounds, so the word is
// k=6 (7.9e5 symbols, a few ms per pass), not k=8 (5e7 symbols): the hooks
// fire per 4096-symbol chunk either way, and the smaller word keeps the
// block machine in cache, where a per-chunk tax is LARGER relative to the
// symbol work.
//
// Claims (NDEBUG only; unoptimized builds report without enforcing):
//   disabled >= 0.99x raw   (runtime-disabled tax <= 1%)
//   enabled  >= 0.95x raw   (recording tax <= 5%)
//   service enabled >= 0.95x service disabled
//
// The hooks make these bars structural, not aspirational: run_stream
// records per CHUNK (4096 symbols on the copy path), never per symbol, and
// the service records per feed()/flush()/finish() call.
//
// Correctness rides along: every pass's decision must agree across modes —
// the telemetry-never-touches-verdict-state invariant measured rather than
// assumed (the differential suite proves it exhaustively; here it guards
// the exact registers this experiment timed).
#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiments.hpp"
#include "qols/core/classical_recognizers.hpp"
#include "qols/lang/ldisj_instance.hpp"
#include "qols/machine/online_recognizer.hpp"
#include "qols/service/recognizer_service.hpp"
#include "qols/stream/symbol_stream.hpp"
#include "qols/telemetry/registry.hpp"
#include "qols/util/stopwatch.hpp"
#include "qols/util/table.hpp"
#include "qols/util/thread_pool.hpp"
#include "registry.hpp"

namespace qols::bench {
namespace {

using stream::Symbol;

struct Pass {
  bool accepted = false;
  double seconds = 0.0;
};

/// The uninstrumented baseline: byte-for-byte the transport loop run_stream
/// used before telemetry existed (StringStream has no view path, so
/// run_stream's copy loop is the honest comparison).
Pass drive_raw(const std::string& word, machine::OnlineRecognizer& rec) {
  stream::StringStream s(word);
  util::Stopwatch watch;
  std::array<Symbol, machine::kRunStreamChunk> buffer;
  Pass pass;
  while (true) {
    const std::size_t n = s.next_chunk(buffer);
    if (n == 0) break;
    rec.feed_chunk(std::span<const Symbol>(buffer.data(), n));
  }
  pass.accepted = rec.finish();
  pass.seconds = watch.seconds();
  return pass;
}

/// The instrumented transport, under whatever telemetry::enabled() state
/// the caller has set.
Pass drive_hooked(const std::string& word, machine::OnlineRecognizer& rec) {
  stream::StringStream s(word);
  util::Stopwatch watch;
  Pass pass;
  pass.accepted = machine::run_stream(s, rec);
  pass.seconds = watch.seconds();
  return pass;
}

double rate_of(std::uint64_t symbols, double seconds) {
  return seconds > 0.0 ? static_cast<double>(symbols) / seconds : 0.0;
}

/// One timed service pass: `sessions` block-machine sessions fed the same
/// word in interleaved slices, flushed, finished. Returns wall seconds; the
/// verdicts append to `decisions`.
double service_pass(std::span<const Symbol> symbols, unsigned sessions,
                    util::ThreadPool& pool, std::vector<bool>& decisions) {
  service::RecognizerService svc(
      {.spec = {.kind = service::RecognizerKind::kClassicalBlock},
       .pool = &pool});
  util::Stopwatch watch;
  std::vector<service::RecognizerService::SessionId> ids;
  ids.reserve(sessions);
  for (unsigned i = 0; i < sessions; ++i) ids.push_back(svc.open(900 + i));
  constexpr std::size_t kSlice = 1 << 14;
  for (std::size_t at = 0; at < symbols.size(); at += kSlice) {
    const std::size_t n = std::min(kSlice, symbols.size() - at);
    for (const auto id : ids) svc.feed(id, symbols.subspan(at, n));
  }
  svc.flush();
  for (const auto id : ids) decisions.push_back(svc.finish(id).accepted);
  return watch.seconds();
}

int run(Reporter& rep, const RunConfig& cfg) {
  const unsigned k = 6;
  // Rounds per leg (see the header for why so many): 384 block-machine and
  // 96 service rounds at the default --trials 6, ~10 s in all.
  const int rounds = 64 * std::max(3, cfg.trials_or(6));
  util::Rng rng(24'000 + k);
  const auto inst = lang::LDisjInstance::make_disjoint(k, rng);
  const std::string word = inst.render();
  const std::uint64_t n = word.size();
  std::vector<Symbol> symbols;
  symbols.reserve(word.size());
  for (const char c : word) symbols.push_back(*stream::symbol_from_char(c));

  const bool was_enabled = telemetry::enabled();
  bool decisions_agree = true;

  // --- Block-machine leg: raw / disabled / enabled, rotated per round. ----
  enum Mode { kRaw, kDisabled, kEnabled, kModes };
  core::ClassicalBlockRecognizer rec(500 + k);
  std::array<std::vector<double>, kModes> rates;
  std::vector<double> disabled_ratios, enabled_ratios;
  for (int r = 0; r < rounds; ++r) {
    std::array<Pass, kModes> pass;
    for (int i = 0; i < kModes; ++i) {
      const int mode = (r + i) % kModes;
      telemetry::set_enabled(mode == kEnabled);
      rec.reset(500 + k);
      pass[mode] =
          mode == kRaw ? drive_raw(word, rec) : drive_hooked(word, rec);
      rates[mode].push_back(rate_of(n, pass[mode].seconds));
    }
    disabled_ratios.push_back(pass[kRaw].seconds / pass[kDisabled].seconds);
    enabled_ratios.push_back(pass[kRaw].seconds / pass[kEnabled].seconds);
    decisions_agree = decisions_agree &&
                      pass[kRaw].accepted == pass[kDisabled].accepted &&
                      pass[kRaw].accepted == pass[kEnabled].accepted;
  }
  const double raw_rate = spread_of(rates[kRaw]).median;
  const double disabled_rate = spread_of(rates[kDisabled]).median;
  const double enabled_rate = spread_of(rates[kEnabled]).median;
  const Spread disabled = spread_of(disabled_ratios);
  const Spread enabled = spread_of(enabled_ratios);
  const double disabled_ratio = disabled.median;
  const double enabled_ratio = enabled.median;

  // --- Service leg: enabled vs runtime-disabled, alternating first. -------
  const unsigned sessions = 8;
  const std::uint64_t svc_symbols = n * sessions;
  std::vector<double> svc_on_rates, svc_off_rates, svc_ratios;
  {
    util::ThreadPool pool(1);
    std::vector<bool> on_decisions, off_decisions;
    for (int r = 0; r < rounds / 4; ++r) {
      double on_secs = 0.0, off_secs = 0.0;
      for (int i = 0; i < 2; ++i) {
        const bool on = (r + i) % 2 == 0;
        telemetry::set_enabled(on);
        (on ? on_secs : off_secs) =
            service_pass(symbols, sessions, pool,
                         on ? on_decisions : off_decisions);
      }
      svc_on_rates.push_back(rate_of(svc_symbols, on_secs));
      svc_off_rates.push_back(rate_of(svc_symbols, off_secs));
      svc_ratios.push_back(off_secs / on_secs);
    }
    decisions_agree = decisions_agree && on_decisions == off_decisions;
  }
  telemetry::set_enabled(was_enabled);
  const double svc_on_rate = spread_of(svc_on_rates).median;
  const double svc_off_rate = spread_of(svc_off_rates).median;
  const Spread svc = spread_of(svc_ratios);
  const double svc_ratio = svc.median;

  util::Table table({"leg", "mode", "symbols/sec", "vs baseline", "ok?"});
  const auto fmt_rate = [](double r) {
    return util::fmt_g(static_cast<std::uint64_t>(r));
  };
#ifdef NDEBUG
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  const bool disabled_ok = !optimized || disabled_ratio >= 0.99;
  const bool enabled_ok = !optimized || enabled_ratio >= 0.95;
  const bool svc_ok = !optimized || svc_ratio >= 0.95;

  table.add_row({"block-machine", "raw (no hooks)", fmt_rate(raw_rate),
                 "1.00", "-"});
  table.add_row({"block-machine", "runtime-disabled", fmt_rate(disabled_rate),
                 util::fmt_f(disabled_ratio, 3), disabled_ok ? "yes" : "NO"});
  table.add_row({"block-machine", "enabled", fmt_rate(enabled_rate),
                 util::fmt_f(enabled_ratio, 3), enabled_ok ? "yes" : "NO"});
  table.add_row({"service x" + std::to_string(sessions), "runtime-disabled",
                 fmt_rate(svc_off_rate), "1.00", "-"});
  table.add_row({"service x" + std::to_string(sessions), "enabled",
                 fmt_rate(svc_on_rate), util::fmt_f(svc_ratio, 3),
                 svc_ok ? "yes" : "NO"});
  rep.table(table);

  MetricRecord m;
  m.label = "telemetry-overhead";
  m.k = static_cast<std::int64_t>(k);
  m.trials = static_cast<std::uint64_t>(rounds);
  m.extra.emplace_back("raw_symbols_per_sec", raw_rate);
  m.extra.emplace_back("disabled_symbols_per_sec", disabled_rate);
  m.extra.emplace_back("enabled_symbols_per_sec", enabled_rate);
  m.extra.emplace_back("disabled_ratio", disabled_ratio);
  m.extra.emplace_back("disabled_ratio_iqr", disabled.iqr);
  m.extra.emplace_back("enabled_ratio", enabled_ratio);
  m.extra.emplace_back("enabled_ratio_iqr", enabled.iqr);
  m.extra.emplace_back("service_enabled_ratio", svc_ratio);
  m.extra.emplace_back("service_enabled_ratio_iqr", svc.iqr);
  rep.metric(m);

  if (!decisions_agree) {
    rep.note("DECISIONS DIVERGED across telemetry modes — the "
             "never-touches-verdict-state invariant is broken.");
  }
  if (optimized) {
    rep.note("Overhead: runtime-disabled " + util::fmt_f(disabled_ratio, 3) +
             "x raw (claim >= 0.99), enabled " +
             util::fmt_f(enabled_ratio, 3) + "x raw (claim >= 0.95), service "
             "enabled " + util::fmt_f(svc_ratio, 3) +
             "x disabled (claim >= 0.95); medians of per-round ratios, "
             "IQR " + util::fmt_f(disabled.iqr, 3) + " / " +
             util::fmt_f(enabled.iqr, 3) + " / " + util::fmt_f(svc.iqr, 3) +
             ".");
  } else {
    rep.note("overhead claims not enforced on an unoptimized build (rows "
             "above are still the tracked series).");
  }
  rep.note(
      "\nReading: the hooks are per-chunk and per-call, never per-symbol, "
      "so the disabled path pays one relaxed-atomic branch per 4096 symbols "
      "and the enabled path a handful of relaxed fetch_adds — both bounded "
      "claims, not measurements of luck. The same instruments feed "
      "extra.telemetry in this report's JSON document.");
  return decisions_agree && disabled_ok && enabled_ok && svc_ok ? 0 : 1;
}

}  // namespace

void register_e24(Registry& r) {
  r.add({.id = "e24",
         .title = "telemetry overhead (enabled / disabled / raw)",
         .claim = "Claim (engineering): telemetry instrumentation costs "
                  "<= 1% throughput runtime-disabled and <= 5% enabled on "
                  "the block-machine ingest path (NDEBUG), with decisions "
                  "bit-identical across all telemetry modes.",
         .tags = {"telemetry", "overhead", "service", "throughput"}},
        run);
}

}  // namespace qols::bench
