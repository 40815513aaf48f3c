#pragma once
// Workload definitions, the seeded word pool, per-session plans (word,
// recognizer seed, FEED frame sizes) and the memoized verdict oracle.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "qols/server/wire.hpp"
#include "qols/service/recognizer_service.hpp"
#include "qols/stream/symbol_stream.hpp"
#include "qols/util/rng.hpp"

namespace perfbench {

using qols::stream::Symbol;
using Verdict = qols::service::RecognizerService::Verdict;

struct WorkloadSpec {
  std::string name;
  std::string why;
  std::string predicted_dominant;
  std::string predicted_idle;
  qols::service::RecognizerSpec recognizer;
  std::string server_kind;     ///< qols_server --kind
  std::string server_backend;  ///< qols_server --backend ("" = none)
  unsigned k = 3;
  std::size_t pool_words = 256;
  /// Recognizer seeds are drawn from this many values per run.
  std::uint64_t seed_pool = 64;
  std::uint32_t min_frame = 16;
  std::uint32_t max_frame = 512;
  unsigned connections = 4;
  /// Closed loop: sessions in flight per connection.
  std::size_t window = 2500;
  /// Paced phase: arrivals per second (0 = no paced phase) and the time
  /// over which one session's frames are due.
  double paced_rate = 0.0;
  double stream_s = 0.0;
  /// Durable restart cycles: sessions opened and half fed per cycle.
  bool durable = false;
  std::size_t restart_sessions = 0;
  /// Sessions of the traced loopback run and its in-process replays.
  std::size_t traced_sessions = 0;
  /// Sessions of the durable in-process replay.
  std::size_t durable_replay_sessions = 0;
  /// One-line parameter summary for the result header.
  std::string params_json() const;
};

/// The workloads by name: short-block, quantum-k5, restart.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// Seeded pool of distinct words: half L_disj members, three eighths
/// intersecting non-members from the structured families, one eighth
/// mutants (make_mutant_stream).
struct WordPool {
  std::vector<std::vector<Symbol>> words;
  std::size_t members = 0, non_members = 0, mutants = 0;
};
WordPool make_pool(const WorkloadSpec& spec, std::uint64_t seed);

struct SessionPlan {
  std::uint32_t word = 0;
  std::uint64_t seed = 0;
  /// FEED frame sizes in symbols, summing to the word length.
  std::vector<std::uint32_t> frames;
  /// Frames [0, split) carry the first half of the word (restart cuts
  /// there); equals frames.size() when the word is not split.
  std::uint32_t split = 0;
};

/// Every session of one run. Session index i has wire id i + 1.
class Traffic {
 public:
  Traffic(const WorkloadSpec& spec, std::uint64_t seed);

  const WorkloadSpec& spec() const { return spec_; }
  const WordPool& pool() const { return pool_; }
  const std::vector<Symbol>& word_of(std::size_t session) const {
    return pool_.words[plans_[session].word];
  }
  const SessionPlan& plan(std::size_t session) const { return plans_[session]; }
  std::size_t size() const { return plans_.size(); }

  /// Draws a new session; `split_half` cuts its frames at the word middle.
  std::size_t add_session(bool split_half);

 private:
  WorkloadSpec spec_;
  WordPool pool_;
  qols::util::SplitMix64 rng_;
  std::vector<SessionPlan> plans_;
};

bool same_verdict(const qols::server::wire::WireVerdict& wire,
                  const Verdict& expected);

/// Expected verdicts from direct RecognizerService runs, memoized per
/// (word, seed) and computed in parallel batches on the default pool.
class Oracle {
 public:
  explicit Oracle(const Traffic& traffic) : traffic_(traffic) {}

  /// Makes sure every listed session's (word, seed) has an expected verdict.
  void prepare(const std::vector<std::size_t>& sessions);
  const Verdict& expected(std::size_t session) const;
  /// Self-check hook: flips the expected decision of one session's pair.
  void plant_wrong(std::size_t session);
  std::size_t computed() const { return memo_.size(); }

 private:
  static std::uint64_t key(const SessionPlan& p) {
    return (static_cast<std::uint64_t>(p.word) << 40) ^ p.seed;
  }
  const Traffic& traffic_;
  std::unordered_map<std::uint64_t, Verdict> memo_;
};

}  // namespace perfbench
