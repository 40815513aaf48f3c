#pragma once
// qols_server as a child process: spawn, read the listening port from its
// stdout, SIGTERM, reap with its peak RSS.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  /// Spawns `binary args...` and waits (up to 60 s) for its "listening on"
  /// line. Throws std::runtime_error if it exits or stays silent.
  ServerProcess(const std::string& binary, const std::vector<std::string>& args);
  /// Kills (SIGKILL) and reaps a server that was not waited for.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }
  std::int64_t spawned_ns() const { return spawned_ns_; }

  /// Sends SIGTERM: the server drains (or, durable with
  /// --persist-on-shutdown, checkpoints its sessions) and exits.
  void terminate();
  /// Reaps the process (up to 120 s, then SIGKILL). Returns true on a clean
  /// exit with status 0; `peak_rss_mib` receives its peak resident set.
  bool wait(double& peak_rss_mib);

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  std::int64_t spawned_ns_ = 0;
};

}  // namespace perfbench
