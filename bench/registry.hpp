#pragma once
// Registry layer of the experiment stack: every harness under bench/ is an
// Experiment (id, title, claim, tags, run function) registered into one
// Registry, driven by the qols_bench CLI. Registration is explicit
// (experiments.cpp calls each register_e*) — no static-initializer magic for
// a static library to drop.

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "qols/quantum/state_vector.hpp"
#include "reporter.hpp"

namespace qols::bench {

/// Per-run knobs, resolved from (defaults < environment < CLI flags). Each
/// experiment keeps its own historical defaults and consults the config via
/// max_k_or / trials_or.
struct RunConfig {
  std::optional<unsigned> max_k;  ///< sweep depth cap, range [1, 20]
  std::optional<int> trials;      ///< Monte-Carlo trial override, >= 1
  /// Quantum-backend id ("dense", "structured", "auto"); empty = auto.
  std::string backend;
  /// Amplitude precision for quantum runs (--precision / QOLS_PRECISION):
  /// float selects the dense SIMD fast mode; decisions and accept counts
  /// are precision-invariant, so rates must not move beyond sampling noise.
  bool float_amplitudes = false;

  quantum::Precision precision() const {
    return float_amplitudes ? quantum::Precision::kSingle
                            : quantum::Precision::kDouble;
  }

  unsigned max_k_or(unsigned def) const { return max_k ? *max_k : def; }
  /// Same, additionally clamped to the dense-simulation envelope — for
  /// experiments that materialize LDisjInstance words or 2^{2k}-sized
  /// tables (k in [1, 10]); only backend-aware sweeps (E19) may go higher.
  unsigned dense_max_k_or(unsigned def) const {
    const unsigned k = max_k_or(def);
    return k < 10 ? k : 10;
  }
  int trials_or(int def) const { return trials ? *trials : def; }

  /// QOLS_MAX_K / QOLS_TRIALS / QOLS_BACKEND with validation (see
  /// bench_common.hpp and qols/backend/registry.hpp).
  static RunConfig from_env();
};

/// A registered experiment: identity plus a run function returning an exit
/// status (0 = every claim held).
struct Experiment {
  ExperimentInfo info;
  std::function<int(Reporter&, const RunConfig&)> run;
};

class Registry {
 public:
  void add(ExperimentInfo info, std::function<int(Reporter&, const RunConfig&)> run);

  const std::vector<Experiment>& experiments() const noexcept { return all_; }

  /// Exact id lookup ("e7"); nullptr when absent.
  const Experiment* find(std::string_view id) const;

  /// Selection for --filter: an exact id match wins outright ("e1" runs
  /// only e1, not e10..e18); otherwise case-insensitive substring match
  /// over id, title, and tags. An empty filter selects everything. Order
  /// follows registration order.
  std::vector<const Experiment*> match(std::string_view filter) const;

  /// The process-wide registry with every experiment registered exactly once.
  static Registry& global();

 private:
  std::vector<Experiment> all_;
};

/// Runs the selection in order, bracketing each experiment with
/// begin_experiment / end_experiment (wall-clock measured here) and
/// catching nothing: experiments are expected not to throw. Returns the
/// maximum status across the selection.
int run_experiments(const std::vector<const Experiment*>& selection,
                    Reporter& reporter, const RunConfig& cfg);

}  // namespace qols::bench
