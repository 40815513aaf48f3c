#include "qols/core/trial_engine.hpp"

#include <atomic>
#include <cstdint>

namespace qols::core {

ExperimentResult TrialEngine::run_trials(const TrialFn& trial,
                                         const ExperimentOptions& opts) const {
  ExperimentResult result;
  result.trials = opts.trials;
  if (opts.trials == 0) return result;

  std::atomic<std::uint64_t> accepts{0};
  std::atomic<std::uint64_t> not_simulated{0};
  // Written only by the shard owning trial 0; published by parallel_for's
  // completion barrier before it is read below.
  machine::SpaceReport space;

  auto run_range = [&](std::size_t lo, std::size_t hi) {
    std::uint64_t local_accepts = 0;
    std::uint64_t local_not_simulated = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const TrialOutcome outcome = trial(opts.seed_base + i);
      if (outcome.accepted) ++local_accepts;
      if (!outcome.simulated) ++local_not_simulated;
      if (i == 0) space = outcome.space;
    }
    accepts.fetch_add(local_accepts, std::memory_order_relaxed);
    not_simulated.fetch_add(local_not_simulated, std::memory_order_relaxed);
  };

  const auto trials = static_cast<std::size_t>(opts.trials);
  if (config_.serial) {
    run_range(0, trials);
  } else {
    util::ThreadPool& pool =
        config_.pool ? *config_.pool : util::ThreadPool::global();
    util::parallel_for(pool, 0, trials, config_.grain, run_range);
  }

  result.accepts = accepts.load(std::memory_order_relaxed);
  result.not_simulated = not_simulated.load(std::memory_order_relaxed);
  result.space = space;
  return result;
}

ExperimentResult TrialEngine::measure_acceptance(
    const StreamFactory& make_stream, const RecognizerFactory& make_recognizer,
    const ExperimentOptions& opts) const {
  return run_trials(
      [&](std::uint64_t seed) {
        auto rec = make_recognizer(seed);
        auto stream = make_stream();
        TrialOutcome outcome;
        outcome.accepted = machine::run_stream(*stream, *rec);
        outcome.simulated = rec->fully_simulated();
        outcome.space = rec->space_used();
        return outcome;
      },
      opts);
}

QualityProfile TrialEngine::measure_quality(
    const StreamFactory& member_stream, const StreamFactory& nonmember_stream,
    const RecognizerFactory& make_recognizer,
    const ExperimentOptions& opts) const {
  QualityProfile profile;
  profile.on_member = measure_acceptance(member_stream, make_recognizer, opts);
  ExperimentOptions shifted = opts;
  shifted.seed_base += opts.trials;  // independent seeds for the second leg
  profile.on_nonmember =
      measure_acceptance(nonmember_stream, make_recognizer, shifted);
  return profile;
}

}  // namespace qols::core
