// qols_server: the network front end over RecognizerService.
//
//   qols_server --port 0 --kind classical-block
//
// Prints "qols_server: listening on <addr>:<port>" once the socket is live
// (scripts parse this line to discover an ephemeral port), serves until
// SIGTERM/SIGINT, then drains gracefully: stops accepting, finishes every
// in-flight session, flushes responses, exits 0.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "qols/server/server.hpp"

namespace {

qols::server::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->shutdown();  // async-signal-safe
}

qols::service::RecognizerKind parse_kind(const std::string& name) {
  using qols::service::RecognizerKind;
  if (name == "classical-block") return RecognizerKind::kClassicalBlock;
  if (name == "classical-full") return RecognizerKind::kClassicalFull;
  if (name == "classical-sample") return RecognizerKind::kClassicalSampling;
  if (name == "classical-bloom") return RecognizerKind::kClassicalBloom;
  if (name == "quantum") return RecognizerKind::kQuantum;
  std::fprintf(stderr, "qols_server: unknown recognizer kind '%s'\n",
               name.c_str());
  std::exit(2);
}

void usage() {
  std::fprintf(
      stderr,
      "usage: qols_server [options]\n"
      "  --address A        bind address (default 127.0.0.1)\n"
      "  --port P           TCP port; 0 = ephemeral (default 0)\n"
      "  --kind K           classical-block|classical-full|classical-sample|"
      "classical-bloom|quantum\n"
      "  --backend B        quantum backend id (dense|structured|auto)\n"
      "  --float            quantum float-amplitude mode\n"
      "  --max-connections N  connection limit (default 1024)\n"
      "  --max-sessions N   session limit (default 131072)\n"
      "  --idle-evict-ms N  spill sessions idle N ms (default 0 = never)\n"
      "  --drain-timeout-ms N  drain hard ceiling (default 30000)\n"
      "  --spill-dir D      eviction spill directory\n"
      "  --durable          journal sessions into a manifest under\n"
      "                     --spill-dir (required); recover any prior\n"
      "                     manifest at startup; preserve sessions of\n"
      "                     dropped connections for RESUME\n"
      "  --persist-on-shutdown  with --durable: SIGTERM checkpoints every\n"
      "                     open session instead of finishing it\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  qols::server::Server::Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--address") {
      cfg.bind_address = value();
    } else if (arg == "--port") {
      cfg.port = static_cast<std::uint16_t>(std::stoul(value()));
    } else if (arg == "--kind") {
      cfg.spec.kind = parse_kind(value());
    } else if (arg == "--backend") {
      cfg.spec.backend = value();
    } else if (arg == "--float") {
      cfg.spec.float_amplitudes = true;
    } else if (arg == "--max-connections") {
      cfg.max_connections = std::stoul(value());
    } else if (arg == "--max-sessions") {
      cfg.max_sessions = std::stoull(value());
    } else if (arg == "--idle-evict-ms") {
      cfg.idle_evict_ms = std::stoull(value());
    } else if (arg == "--drain-timeout-ms") {
      cfg.drain_timeout_ms = std::stoull(value());
    } else if (arg == "--spill-dir") {
      cfg.spill_dir = value();
    } else if (arg == "--durable") {
      cfg.durable = true;
    } else if (arg == "--persist-on-shutdown") {
      cfg.persist_on_shutdown = true;
    } else {
      usage();
    }
  }

  try {
    qols::server::Server server(cfg);
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::signal(SIGPIPE, SIG_IGN);
    const std::uint64_t recovered =
        server.service().stats().recovered_sessions;
    if (recovered > 0) {
      std::printf("qols_server: recovered %llu sessions from %s\n",
                  static_cast<unsigned long long>(recovered),
                  cfg.spill_dir.c_str());
    }
    std::printf("qols_server: listening on %s:%u\n", cfg.bind_address.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    server.run();
    const auto& c = server.counters();
    std::printf("qols_server: drained (accepted=%llu closed=%llu "
                "abandoned=%llu persisted=%llu)\n",
                static_cast<unsigned long long>(c.connections_accepted),
                static_cast<unsigned long long>(c.connections_closed),
                static_cast<unsigned long long>(c.sessions_abandoned),
                static_cast<unsigned long long>(c.sessions_persisted));
    g_server = nullptr;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qols_server: %s\n", e.what());
    return 1;
  }
}
