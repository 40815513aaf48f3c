#include "qols/fuzz/shrink.hpp"

#include <algorithm>

namespace qols::fuzz {

namespace {

/// The realized word length the case currently produces (the quantity the
/// length pass minimizes; truncate_len can sit far above it).
std::size_t effective_length(const FuzzCase& c) {
  return realize_word(c).size();
}

}  // namespace

ShrinkOutcome shrink(const FuzzCase& failing,
                     const std::function<bool(const FuzzCase&)>& still_fails,
                     std::size_t max_attempts) {
  ShrinkOutcome out;
  out.best = failing;

  const auto try_candidate = [&](const FuzzCase& candidate) {
    if (out.attempts >= max_attempts) return false;
    ++out.attempts;
    if (!still_fails(candidate)) return false;
    out.best = candidate;
    ++out.improved;
    return true;
  };

  bool progressed = true;
  while (progressed && out.attempts < max_attempts) {
    progressed = false;

    // Drop wrappers, outermost first (dropping an inner wrapper changes the
    // meaning of the outer ones' reduced parameters less often).
    for (std::size_t i = out.best.wrappers.size(); i-- > 0;) {
      FuzzCase candidate = out.best;
      candidate.wrappers.erase(candidate.wrappers.begin() +
                               static_cast<std::ptrdiff_t>(i));
      progressed = try_candidate(candidate) || progressed;
    }

    // Fewer sessions.
    while (out.best.sessions > 1) {
      FuzzCase candidate = out.best;
      --candidate.sessions;
      if (!try_candidate(candidate)) break;
      progressed = true;
    }

    // Simpler schedule: one whole-word chunk beats everything; failing
    // that, walk a fixed chunk size down to 1.
    if (out.best.schedule != ScheduleKind::kWhole) {
      FuzzCase candidate = out.best;
      candidate.schedule = ScheduleKind::kWhole;
      progressed = try_candidate(candidate) || progressed;
    }
    if (out.best.schedule != ScheduleKind::kWhole && out.best.chunk != 0) {
      FuzzCase candidate = out.best;
      candidate.schedule = ScheduleKind::kFixed;
      candidate.chunk = 0;  // expands to chunk size 1
      progressed = try_candidate(candidate) || progressed;
    }

    // Drop the snapshot axis: a failure that isn't about P7 replays without
    // the mid-word freeze/restore detour (still_fails keeps it when it is).
    if (out.best.snapshot_cut != kNoSnapshot) {
      FuzzCase candidate = out.best;
      candidate.snapshot_cut = kNoSnapshot;
      progressed = try_candidate(candidate) || progressed;
    }

    // Drop the wire axis the same way: a non-P8 failure replays without the
    // frame-level server detour.
    if (out.best.wire_split != kNoWire) {
      FuzzCase candidate = out.best;
      candidate.wire_split = kNoWire;
      progressed = try_candidate(candidate) || progressed;
    }

    // Drop the crash axis the same way: a non-P9 failure replays without the
    // durable checkpoint/recover detour.
    if (out.best.crash_point != kNoCrash) {
      FuzzCase candidate = out.best;
      candidate.crash_point = kNoCrash;
      progressed = try_candidate(candidate) || progressed;
    }

    // Smaller instance scale.
    while (out.best.k > 1) {
      FuzzCase candidate = out.best;
      --candidate.k;
      if (!try_candidate(candidate)) break;
      progressed = true;
    }

    // Shorter word: greedy binary descent on the realized length. Each
    // accepted cut re-anchors at the new (shorter) realized length.
    std::size_t len = effective_length(out.best);
    while (len > 0 && out.attempts < max_attempts) {
      bool cut = false;
      for (const std::size_t target :
           {len / 2, (3 * len) / 4, len - 1}) {
        if (target >= len) continue;
        FuzzCase candidate = out.best;
        candidate.truncate_len = target;
        if (try_candidate(candidate)) {
          len = effective_length(out.best);
          progressed = true;
          cut = true;
          break;
        }
      }
      if (!cut) break;
    }
  }
  return out;
}

}  // namespace qols::fuzz
