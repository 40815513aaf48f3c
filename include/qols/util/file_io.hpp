#pragma once
// POSIX write helpers shared by the session manifest and the spill files:
// the one write-all loop (short writes and EINTR retried) and a whole-file
// writer whose descriptor is closed on every path, failures included.

#include <cstdint>
#include <span>
#include <string>

namespace qols::util {

/// Writes every byte of `bytes` to `fd`, retrying short writes and EINTR.
/// Returns false, with errno from the failed write, on the first error.
bool write_all(int fd, std::span<const std::uint8_t> bytes) noexcept;

/// Creates or truncates `path`, writes `bytes`, fsyncs when `sync`, and
/// closes the descriptor whether or not a step failed. Returns false, with
/// errno from the first failed step, on any error.
bool write_file(const std::string& path, std::span<const std::uint8_t> bytes,
                bool sync) noexcept;

}  // namespace qols::util
