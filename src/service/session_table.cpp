#include "qols/service/session_table.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <utility>

#include "qols/util/crc32.hpp"
#include "qols/util/file_io.hpp"
#include "qols/util/serde.hpp"

namespace qols::service {

namespace {

constexpr std::uint8_t kMagic[8] = {'Q', 'O', 'L', 'S', 'M', 'A', 'N', 1};
constexpr std::size_t kHeaderSize = sizeof(kMagic);
constexpr std::size_t kRecordFrame = 8;  // u32 len + u32 crc
// Largest payload any record type can produce is 1 + 3*8 bytes; anything
// past this bound is file damage masquerading as a length, not a record.
constexpr std::uint32_t kMaxRecordPayload = 64;

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  throw std::runtime_error("SessionTable: " + what + " " + path + ": " +
                           std::strerror(errno));
}

void write_or_throw(int fd, std::span<const std::uint8_t> bytes,
                    const std::string& path) {
  if (!util::write_all(fd, bytes)) throw_io("cannot write", path);
}

void fsync_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0) throw_io("cannot fsync", path);
}

/// Syncs the directory entry so a rename/create is durable, not just the
/// file contents. Best effort on filesystems that refuse O_DIRECTORY fsync.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

std::vector<std::uint8_t> frame_record(
    const std::vector<std::uint8_t>& payload) {
  util::serde::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(util::crc32(payload));
  std::vector<std::uint8_t> out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::uint8_t> payload_open(std::uint64_t id, std::uint64_t seed,
                                       std::uint64_t shard) {
  util::serde::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(SessionTable::RecordType::kOpen));
  w.u64(id);
  w.u64(seed);
  w.u64(shard);
  return w.take();
}

std::vector<std::uint8_t> payload_evict(std::uint64_t id,
                                        std::uint64_t spill_bytes) {
  util::serde::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(SessionTable::RecordType::kEvict));
  w.u64(id);
  w.u64(spill_bytes);
  return w.take();
}

std::vector<std::uint8_t> payload_id_only(SessionTable::RecordType type,
                                          std::uint64_t id) {
  util::serde::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(id);
  return w.take();
}

[[noreturn]] void corrupt(std::uint64_t record, const std::string& why) {
  throw ManifestCorrupt("manifest record " + std::to_string(record) + ": " +
                        why);
}

/// Applies one decoded record to the replay state, enforcing the lifecycle
/// state machine — a record that contradicts the state is file damage the
/// CRC happened not to catch, and recovery must refuse it.
void apply_record(SessionTable::Replay& state,
                  std::span<const std::uint8_t> payload,
                  std::uint64_t record) {
  util::serde::ByteReader r(payload);
  const auto type = static_cast<SessionTable::RecordType>(r.u8());
  switch (type) {
    case SessionTable::RecordType::kOpen: {
      const std::uint64_t id = r.u64();
      SessionTable::LiveSession s;
      s.seed = r.u64();
      s.shard = r.u64();
      r.expect_exhausted();
      if (!state.live.emplace(id, s).second) {
        corrupt(record, "open of already-open session " + std::to_string(id));
      }
      return;
    }
    case SessionTable::RecordType::kEvict: {
      const std::uint64_t id = r.u64();
      const std::uint64_t bytes = r.u64();
      r.expect_exhausted();
      const auto it = state.live.find(id);
      if (it == state.live.end()) {
        corrupt(record, "evict of unknown session " + std::to_string(id));
      }
      if (it->second.evicted) {
        corrupt(record, "evict of evicted session " + std::to_string(id));
      }
      it->second.evicted = true;
      it->second.spill_bytes = bytes;
      return;
    }
    case SessionTable::RecordType::kRevive: {
      const std::uint64_t id = r.u64();
      r.expect_exhausted();
      const auto it = state.live.find(id);
      if (it == state.live.end()) {
        corrupt(record, "revive of unknown session " + std::to_string(id));
      }
      if (!it->second.evicted) {
        corrupt(record, "revive of resident session " + std::to_string(id));
      }
      it->second.evicted = false;
      it->second.spill_bytes = 0;
      return;
    }
    case SessionTable::RecordType::kFinish: {
      const std::uint64_t id = r.u64();
      r.expect_exhausted();
      if (state.live.erase(id) == 0) {
        corrupt(record, "finish of unknown session " + std::to_string(id));
      }
      return;
    }
    case SessionTable::RecordType::kMigrate: {
      // Read only: written by older builds, which could move a session
      // between shards. Still validated, so their manifests recover.
      const std::uint64_t id = r.u64();
      const std::uint64_t shard = r.u64();
      r.expect_exhausted();
      const auto it = state.live.find(id);
      if (it == state.live.end()) {
        corrupt(record, "migrate of unknown session " + std::to_string(id));
      }
      it->second.shard = shard;
      return;
    }
  }
  corrupt(record, "unknown record type " +
                      std::to_string(static_cast<unsigned>(payload[0])));
}

}  // namespace

std::string SessionTable::path_in(const std::string& dir) {
  return (std::filesystem::path(dir) / file_name()).string();
}

SessionTable::SessionTable(Options opts)
    : opts_(std::move(opts)), path_(path_in(opts_.dir)) {
  open_fd();
}

void SessionTable::open_fd() {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
               0644);
  if (fd_ < 0) throw_io("cannot open", path_);
  struct ::stat st{};
  if (::fstat(fd_, &st) != 0) throw_io("cannot stat", path_);
  if (st.st_size == 0) {
    write_or_throw(fd_, kMagic, path_);
    fsync_or_throw(fd_, path_);
    fsync_dir(opts_.dir);
  }
}

SessionTable::~SessionTable() {
  if (fd_ >= 0) {
    ::fsync(fd_);  // best effort — the dtor cannot throw
    ::close(fd_);
  }
}

void SessionTable::crash_point() {
  ensure_alive();
  if (!armed_) return;
  if (remaining_ == 0) {
    dead_ = true;
    throw InjectedCrash("SessionTable: injected crash after " +
                        std::to_string(appended_) + " records");
  }
  --remaining_;
}

void SessionTable::ensure_alive() const {
  if (dead_) {
    throw InjectedCrash("SessionTable: operating on a crashed table");
  }
}

void SessionTable::abort_after(std::uint64_t n) noexcept {
  armed_ = true;
  remaining_ = n;
}

void SessionTable::append(RecordType type,
                          const std::vector<std::uint8_t>& payload) {
  ensure_alive();
  const std::vector<std::uint8_t> framed = frame_record(payload);
  write_or_throw(fd_, framed, path_);
  ++appended_;
  ++unsynced_;
  const bool force = type == RecordType::kEvict;
  if (force || unsynced_ >= opts_.sync_every) {
    fsync_or_throw(fd_, path_);
    unsynced_ = 0;
    ++syncs_;
  }
}

void SessionTable::record_open(std::uint64_t id, std::uint64_t seed,
                               std::uint64_t shard) {
  append(RecordType::kOpen, payload_open(id, seed, shard));
}

void SessionTable::record_evict(std::uint64_t id, std::uint64_t spill_bytes) {
  append(RecordType::kEvict, payload_evict(id, spill_bytes));
}

void SessionTable::record_revive(std::uint64_t id) {
  append(RecordType::kRevive, payload_id_only(RecordType::kRevive, id));
}

void SessionTable::record_finish(std::uint64_t id) {
  append(RecordType::kFinish, payload_id_only(RecordType::kFinish, id));
}

void SessionTable::sync() {
  ensure_alive();
  if (unsynced_ == 0) return;
  fsync_or_throw(fd_, path_);
  unsynced_ = 0;
  ++syncs_;
}

void SessionTable::compact(const std::map<std::uint64_t, LiveSession>& live) {
  ensure_alive();
  const std::string tmp = path_ + ".tmp";
  std::vector<std::uint8_t> bytes(std::begin(kMagic), std::end(kMagic));
  auto put = [&bytes](const std::vector<std::uint8_t>& payload) {
    const std::vector<std::uint8_t> framed = frame_record(payload);
    bytes.insert(bytes.end(), framed.begin(), framed.end());
  };
  for (const auto& [id, s] : live) {
    put(payload_open(id, s.seed, s.shard));
    if (s.evicted) put(payload_evict(id, s.spill_bytes));
  }
  if (!util::write_file(tmp, bytes, /*sync=*/true)) {
    throw_io("cannot write", tmp);
  }
  // The rename is the commit point: either the old journal or the compacted
  // one is fully in place, never a mixture.
  if (::rename(tmp.c_str(), path_.c_str()) != 0) throw_io("cannot rename", tmp);
  fsync_dir(opts_.dir);
  ::close(fd_);
  fd_ = -1;
  open_fd();
  unsynced_ = 0;
  ++compactions_;
}

SessionTable::Replay SessionTable::replay(const std::string& dir) {
  const std::string path = path_in(dir);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    throw ManifestMissing("no session manifest at " + path);
  }
  const auto size = static_cast<std::size_t>(in.tellg());
  if (size == 0) {
    // A crash before the header became durable: indistinguishable from a
    // never-written manifest, and treated the same way.
    throw ManifestMissing("empty session manifest at " + path);
  }
  std::vector<std::uint8_t> bytes(size);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  if (!in.good()) {
    throw std::runtime_error("SessionTable: cannot read " + path);
  }
  if (size < kHeaderSize) {
    throw ManifestTorn("manifest header torn at " + std::to_string(size) +
                       " bytes: " + path);
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw ManifestCorrupt("bad manifest magic/version: " + path);
  }

  Replay state;
  std::size_t pos = kHeaderSize;
  while (pos < size) {
    if (size - pos < kRecordFrame) {
      throw ManifestTorn("record " + std::to_string(state.records) +
                         " frame torn at byte " + std::to_string(pos));
    }
    util::serde::ByteReader frame({bytes.data() + pos, kRecordFrame});
    const std::uint32_t len = frame.u32();
    const std::uint32_t crc = frame.u32();
    if (len == 0 || len > kMaxRecordPayload) {
      corrupt(state.records,
              "implausible payload length " + std::to_string(len));
    }
    if (size - pos - kRecordFrame < len) {
      throw ManifestTorn("record " + std::to_string(state.records) +
                         " payload torn at byte " + std::to_string(pos));
    }
    const std::span<const std::uint8_t> payload{
        bytes.data() + pos + kRecordFrame, len};
    if (util::crc32(payload) != crc) {
      corrupt(state.records, "CRC mismatch");
    }
    try {
      apply_record(state, payload, state.records);
    } catch (const util::serde::DecodeError& e) {
      corrupt(state.records, e.what());
    }
    pos += kRecordFrame + len;
    ++state.records;
  }
  return state;
}

}  // namespace qols::service
