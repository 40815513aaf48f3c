#include "traffic.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "qols/lang/ldisj_instance.hpp"
#include "qols/lang/workloads.hpp"

namespace perfbench {

namespace svc = qols::service;
namespace lang = qols::lang;

std::string WorkloadSpec::params_json() const {
  std::ostringstream os;
  os << "{\"workload\": \"" << name << "\", \"why\": \"" << why
     << "\", \"kind\": \"" << server_kind
     << "\", \"backend\": \"" << (server_backend.empty() ? "-" : server_backend)
     << "\", \"k\": " << k << ", \"pool_words\": " << pool_words
     << ", \"seed_pool\": " << seed_pool << ", \"frame_symbols\": ["
     << min_frame << ", " << max_frame << "], \"connections\": " << connections
     << ", \"window_per_connection\": " << window
     << ", \"offered_rate_per_s\": " << paced_rate
     << ", \"stream_s\": " << stream_s << ", \"durable\": "
     << (durable ? "true" : "false")
     << ", \"restart_sessions\": " << restart_sessions
     << ", \"traced_sessions\": " << traced_sessions
     << ", \"predicted_dominant\": \"" << predicted_dominant
     << "\", \"predicted_idle\": \"" << predicted_idle << "\"}";
  return os.str();
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> v;

    // Small words, many frames: per-frame and per-session costs (wire
    // decode, broker, service open/finish, event loop) dominate, the
    // recognizer is cheap and the quantum kernels never run.
    WorkloadSpec sb;
    sb.name = "short-block";
    sb.why = "per-frame and per-session serving costs";
    sb.predicted_dominant = "server";
    sb.predicted_idle = "quantum";
    sb.recognizer.kind = svc::RecognizerKind::kClassicalBlock;
    sb.server_kind = "classical-block";
    sb.k = 3;
    sb.pool_words = 256;
    sb.seed_pool = 64;
    sb.min_frame = 16;
    sb.max_frame = 512;
    sb.window = 2500;  // 10^4 sessions open at once over 4 connections
    sb.paced_rate = 12'500.0;
    sb.stream_s = 0.8;
    sb.traced_sessions = 10'000;
    sb.durable_replay_sessions = 256;
    v.push_back(sb);

    // Long words in few large frames: recognizer ingestion and the pool
    // dominate; the dense diffusion kernels are a visible share.
    WorkloadSpec q;
    q.name = "quantum-k5";
    q.why = "recognizer ingestion, pool and dense kernels";
    q.predicted_dominant = "core";
    q.predicted_idle = "service (durable)";
    q.recognizer.kind = svc::RecognizerKind::kQuantum;
    q.recognizer.backend = "auto";
    q.server_kind = "quantum";
    q.server_backend = "auto";
    q.k = 5;
    q.pool_words = 48;
    q.seed_pool = std::uint64_t{1} << 32;  // a fresh seed per session
    q.min_frame = 4096;
    q.max_frame = 32768;
    q.window = 24;
    q.paced_rate = 200.0;
    q.stream_s = 0.25;
    q.traced_sessions = 384;
    q.durable_replay_sessions = 48;
    v.push_back(q);

    // Durable server: spill files and manifest fsyncs on persist, recover
    // and revive on restart; the only workload doing durable I/O.
    WorkloadSpec r;
    r.name = "restart";
    r.why = "durable persist, recover and revive around a restart";
    r.predicted_dominant = "service (durable)";
    r.predicted_idle = "quantum";
    r.recognizer.kind = svc::RecognizerKind::kClassicalBlock;
    r.server_kind = "classical-block";
    r.k = 3;
    r.pool_words = 256;
    r.seed_pool = 64;
    r.min_frame = 16;
    r.max_frame = 512;
    r.window = 16;  // the bounded FINISH window of the resume phase
    r.durable = true;
    r.restart_sessions = 300;
    r.traced_sessions = 2000;
    r.durable_replay_sessions = 1000;
    v.push_back(r);
    return v;
  }();
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

std::vector<Symbol> drain(qols::stream::SymbolStream& s) {
  std::vector<Symbol> out;
  while (auto sym = s.next()) out.push_back(*sym);
  return out;
}

}  // namespace

WordPool make_pool(const WorkloadSpec& spec, std::uint64_t seed) {
  qols::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x51ED);
  std::vector<lang::WorkloadFamily> crossing;
  for (const auto f : lang::all_workload_families()) {
    if (!lang::workload_family_is_member(f)) crossing.push_back(f);
  }
  WordPool pool;
  for (std::size_t i = 0; i < spec.pool_words; ++i) {
    if (i % 8 == 7) {
      const auto inst = lang::make_workload_instance(
          lang::WorkloadFamily::kUniformDisjoint, spec.k, rng);
      const auto kind = static_cast<lang::MutantKind>(rng.below(6));
      auto s = lang::make_mutant_stream(inst, kind, rng);
      pool.words.push_back(drain(*s));
      ++pool.mutants;
    } else if (i % 2 == 0) {
      const auto inst = lang::make_workload_instance(
          lang::WorkloadFamily::kUniformDisjoint, spec.k, rng);
      pool.words.push_back(drain(*inst.stream()));
      ++pool.members;
    } else {
      const auto inst = lang::make_workload_instance(
          crossing[rng.below(crossing.size())], spec.k, rng);
      pool.words.push_back(drain(*inst.stream()));
      ++pool.non_members;
    }
  }
  return pool;
}

Traffic::Traffic(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), pool_(make_pool(spec, seed)), rng_(seed ^ 0xC0FFEEULL) {}

std::size_t Traffic::add_session(bool split_half) {
  SessionPlan p;
  p.word = static_cast<std::uint32_t>(rng_.next() % pool_.words.size());
  p.seed = 1 + rng_.next() % spec_.seed_pool;
  const std::size_t n = pool_.words[p.word].size();
  const std::size_t cut = split_half ? n / 2 : n;
  const std::uint64_t span = spec_.max_frame - spec_.min_frame + 1;
  std::size_t at = 0;
  for (const std::size_t end : {cut, n}) {
    while (at < end) {
      const std::size_t want = spec_.min_frame + rng_.next() % span;
      const std::size_t len = std::min(want, end - at);
      p.frames.push_back(static_cast<std::uint32_t>(len));
      at += len;
    }
    if (end == cut) p.split = static_cast<std::uint32_t>(p.frames.size());
  }
  plans_.push_back(std::move(p));
  return plans_.size() - 1;
}

bool same_verdict(const qols::server::wire::WireVerdict& wire,
                  const Verdict& e) {
  return wire.accepted == e.accepted &&
         wire.fully_simulated == e.fully_simulated &&
         wire.classical_bits == e.space.classical_bits &&
         wire.qubits == e.space.qubits;
}

void Oracle::prepare(const std::vector<std::size_t>& sessions) {
  std::vector<std::size_t> todo;
  {
    std::unordered_map<std::uint64_t, bool> queued;
    for (const std::size_t s : sessions) {
      const std::uint64_t k = key(traffic_.plan(s));
      if (memo_.count(k) == 0 && queued.emplace(k, true).second) {
        todo.push_back(s);
      }
    }
  }
  // Batches bounded by symbols so quantum registers and pending buffers
  // stay small; each batch's drains run across the default pool.
  constexpr std::size_t kBatchSymbols = std::size_t{1} << 23;
  svc::RecognizerService::Config cfg;
  cfg.spec = traffic_.spec().recognizer;
  svc::RecognizerService service(cfg);
  std::size_t at = 0;
  while (at < todo.size()) {
    std::vector<std::pair<std::size_t, svc::RecognizerService::SessionId>> batch;
    std::size_t symbols = 0;
    while (at < todo.size() && symbols < kBatchSymbols) {
      const std::size_t s = todo[at++];
      const auto id = service.open(traffic_.plan(s).seed);
      service.feed(id, traffic_.word_of(s));
      symbols += traffic_.word_of(s).size();
      batch.emplace_back(s, id);
    }
    service.flush();
    for (const auto& [s, id] : batch) {
      memo_[key(traffic_.plan(s))] = service.finish(id);
    }
  }
}

const Verdict& Oracle::expected(std::size_t session) const {
  const auto it = memo_.find(key(traffic_.plan(session)));
  if (it == memo_.end()) throw std::logic_error("oracle: session not prepared");
  return it->second;
}

void Oracle::plant_wrong(std::size_t session) {
  auto& v = memo_.at(key(traffic_.plan(session)));
  v.accepted = !v.accepted;
}

}  // namespace perfbench
