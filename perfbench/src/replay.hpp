#pragma once
// In-process replays of the traced loopback traffic, one layer entry point
// at a time, each timed from outside with a span per call:
//   core     bare RecognizerSpec::make recognizers, one thread
//   service  RecognizerService open_at / feed / finish, default pool
//   broker   SessionBroker ingest + pump over the captured wire bytes
//   wire     FrameDecoder alone over the same bytes
//   durable  persist(), recover() and the first feed after recovery
// Every replay verdict is compared with the wire verdict of the same
// session.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"
#include "traffic.hpp"

namespace perfbench {

struct ReplayInput {
  const Traffic& traffic;
  /// The traced sessions (their wire verdicts are in `wire`).
  const std::vector<std::size_t>& sessions;
  /// Client bytes per connection of the traced loopback run.
  const std::vector<std::vector<std::uint8_t>>& captured;
  const Results& wire;
  SpanLog& spans;
  /// Directory for durable replays' spill files and manifests.
  std::string scratch_dir;
};

struct CoreReplay {
  double wall_s = 0;
  double feed_ns_per_symbol = 0;
  double finish_us = 0;
  double diffusion_ns = 0;   ///< quantum.diffusion.ns sum
  double gates = 0;          ///< quantum.gates_total
  std::uint64_t mismatches = 0;
};
CoreReplay replay_core(const ReplayInput& in);

struct ServiceReplay {
  double wall_s = 0;
  double open_us = 0;
  double feed_ns_per_symbol = 0;
  double finish_us = 0;
  double flushes = 0;
  std::uint64_t mismatches = 0;
};
ServiceReplay replay_service(const ReplayInput& in);

struct BrokerReplay {
  double wall_s = 0;
  std::uint64_t frames = 0;  ///< client frames handled
  std::uint64_t mismatches = 0;
};
BrokerReplay replay_broker(const ReplayInput& in);

struct WireDecode {
  double ns_per_frame = 0;
  double bytes_per_symbol = 0;
};
WireDecode time_decoder(const ReplayInput& in);

struct DurableReplay {
  double persist_ms_per_ksession = 0;
  double recover_ms = 0;
  double revive_us = 0;
  double spill_bytes_per_session = 0;
  double manifest_records_per_session = 0;
  std::uint64_t mismatches = 0;
};
/// Opens `count` of the traced sessions on a durable service, feeds half of
/// each word, persists, recovers in a fresh service and finishes them.
DurableReplay replay_durable(const ReplayInput& in, std::size_t count);

}  // namespace perfbench
