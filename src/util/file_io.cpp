#include "qols/util/file_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

namespace qols::util {

bool write_all(int fd, std::span<const std::uint8_t> bytes) noexcept {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(w);
  }
  return true;
}

bool write_file(const std::string& path, std::span<const std::uint8_t> bytes,
                bool sync) noexcept {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const bool ok = write_all(fd, bytes) && (!sync || ::fsync(fd) == 0);
  const int saved = errno;  // close() must not mask the failing step's errno
  ::close(fd);
  errno = saved;
  return ok;
}

}  // namespace qols::util
