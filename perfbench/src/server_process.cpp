#include "server_process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace perfbench {

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  // posix_spawn (a vfork under glibc) costs the same whatever the size of
  // this process, so setup_s measures the server rather than page-table
  // copies of the load generator's memory.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  spawned_ns_ = now_ns();
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary);
  }
  out_fd_ = fds[0];

  // Lines until "qols_server: listening on <addr>:<port>".
  std::string buf;
  const std::int64_t deadline = spawned_ns_ + 60'000'000'000LL;
  for (;;) {
    const auto nl = buf.find('\n');
    if (nl != std::string::npos) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.rfind("qols_server: listening on ", 0) == 0) {
        port_ = static_cast<std::uint16_t>(
            std::stoul(line.substr(line.rfind(':') + 1)));
        return;
      }
      continue;
    }
    const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
    if (left_ms <= 0) break;
    pollfd p{out_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left_ms));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    char chunk[512];
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  throw std::runtime_error("qols_server did not start: " + binary);
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

void ServerProcess::terminate() {
  if (pid_ > 0) ::kill(pid_, SIGTERM);
}

bool ServerProcess::wait(double& peak_rss_mib) {
  peak_rss_mib = 0.0;
  if (pid_ <= 0) return false;
  int status = 0;
  rusage usage{};
  // Drain stdout until it closes, which is when the process exits; a
  // server still alive after 120 s is killed.
  const std::int64_t deadline = now_ns() + 120'000'000'000LL;
  while (out_fd_ >= 0) {
    const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
    pollfd p{out_fd_, POLLIN, 0};
    const int ready = left_ms > 0 ? ::poll(&p, 1, static_cast<int>(left_ms)) : 0;
    if (ready < 0 && errno == EINTR) continue;
    char chunk[512];
    if (ready <= 0) ::kill(pid_, SIGKILL);
    if (ready <= 0 || ::read(out_fd_, chunk, sizeof(chunk)) <= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }
  while (::wait4(pid_, &status, 0, &usage) < 0) {
    if (errno != EINTR) return false;
  }
  pid_ = -1;
  peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
