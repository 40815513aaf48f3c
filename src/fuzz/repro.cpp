#include "qols/fuzz/repro.hpp"

#include <charconv>
#include <stdexcept>
#include <vector>

namespace qols::fuzz {

namespace {

// qf6 dropped qf5's trailing field, a cross-shard move target (a session's
// shard is now a function of its id); qf5 appended crash_point (the durable
// crash/recovery axis), qf4 wire_split, qf3 snapshot_cut, qf2
// float_amplitudes. Older tokens are rejected rather than silently
// defaulted, so a replay always states every axis it checks.
constexpr std::string_view kVersion = "qf6";

void append_hex(std::string& out, std::uint64_t v) {
  char buf[17];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v, 16);
  out.push_back('-');
  out.append(buf, res.ptr);
}

[[noreturn]] void bad(const std::string& why) {
  throw std::invalid_argument("decode_token: " + why);
}

struct FieldReader {
  std::vector<std::uint64_t> fields;
  std::size_t pos = 0;

  std::uint64_t next(const char* what) {
    if (pos >= fields.size()) bad(std::string("missing field: ") + what);
    return fields[pos++];
  }
  bool exhausted() const { return pos == fields.size(); }
};

}  // namespace

std::string encode_token(const FuzzCase& c) {
  std::string out(kVersion);
  append_hex(out, c.seed);
  append_hex(out, c.k);
  append_hex(out, static_cast<std::uint64_t>(c.word));
  append_hex(out, c.word_param);
  append_hex(out, c.wrappers.size());
  for (const WrapperOp& op : c.wrappers) {
    append_hex(out, static_cast<std::uint64_t>(op.kind));
    append_hex(out, op.a);
    append_hex(out, op.b);
  }
  append_hex(out, c.truncate_len);
  append_hex(out, static_cast<std::uint64_t>(c.schedule));
  append_hex(out, c.chunk);
  append_hex(out, c.sessions);
  append_hex(out, static_cast<std::uint64_t>(c.spec.kind));
  append_hex(out, c.spec.sampling_budget);
  append_hex(out, c.spec.bloom_filter_bits);
  append_hex(out, c.spec.bloom_num_hashes);
  append_hex(out, c.spec.float_amplitudes ? 1 : 0);
  append_hex(out, c.snapshot_cut);
  append_hex(out, c.wire_split);
  append_hex(out, c.crash_point);
  return out;
}

FuzzCase decode_token(const std::string& token) {
  if (token.size() < kVersion.size() ||
      token.compare(0, kVersion.size(), kVersion) != 0) {
    bad("unknown version (want '" + std::string(kVersion) + "-...')");
  }
  FieldReader r;
  std::size_t pos = kVersion.size();
  while (pos < token.size()) {
    if (token[pos] != '-') bad("expected '-' separator");
    ++pos;
    const std::size_t start = pos;
    while (pos < token.size() && token[pos] != '-') ++pos;
    std::uint64_t value = 0;
    const auto res =
        std::from_chars(token.data() + start, token.data() + pos, value, 16);
    if (res.ec != std::errc{} || res.ptr != token.data() + pos ||
        pos == start) {
      bad("malformed hex field '" + token.substr(start, pos - start) + "'");
    }
    r.fields.push_back(value);
  }

  FuzzCase c;
  c.seed = r.next("seed");
  // The generator caps k at 4: a k=10 member word would be ~3*10^9 symbols,
  // so a crafted token must not be able to demand it from --replay.
  const std::uint64_t k = r.next("k");
  if (k < 1 || k > 4) bad("k out of range [1, 4]");
  c.k = static_cast<unsigned>(k);
  const std::uint64_t word = r.next("word");
  if (word >= kWordKindCount) bad("unknown word kind");
  c.word = static_cast<WordKind>(word);
  // word_param is a literal word length for kMalformed (the generator caps
  // it at 400); every other family reduces it modulo a small range. Bound
  // it so a crafted token cannot demand a gigabyte word from --replay.
  c.word_param = r.next("word_param");
  if (c.word_param > 4096) bad("word_param out of range [0, 4096]");
  const std::uint64_t nwrap = r.next("wrapper count");
  if (nwrap > kMaxWrappers) bad("too many wrappers");
  for (std::uint64_t i = 0; i < nwrap; ++i) {
    WrapperOp op;
    const std::uint64_t kind = r.next("wrapper kind");
    if (kind >= kWrapperKindCount) bad("unknown wrapper kind");
    op.kind = static_cast<WrapperOp::Kind>(kind);
    op.a = r.next("wrapper a");
    op.b = r.next("wrapper b");
    c.wrappers.push_back(op);
  }
  c.truncate_len = r.next("truncate_len");
  const std::uint64_t sched = r.next("schedule");
  if (sched >= kScheduleKindCount) bad("unknown schedule kind");
  c.schedule = static_cast<ScheduleKind>(sched);
  c.chunk = r.next("chunk");
  const std::uint64_t sessions = r.next("sessions");
  if (sessions < 1 || sessions > kMaxSessions) bad("sessions out of range");
  c.sessions = static_cast<unsigned>(sessions);
  const std::uint64_t rec = r.next("recognizer kind");
  if (rec > static_cast<std::uint64_t>(service::RecognizerKind::kQuantum)) {
    bad("unknown recognizer kind");
  }
  c.spec.kind = static_cast<service::RecognizerKind>(rec);
  // Same DoS reasoning as word_param: the sampler allocates budget-many
  // indices per repetition and the Bloom machine a filter_bits-bit vector,
  // so both stay bounded well above the generator's draws (257 / 509).
  c.spec.sampling_budget = r.next("sampling_budget");
  if (c.spec.sampling_budget > 4096) {
    bad("sampling_budget out of range [0, 4096]");
  }
  c.spec.bloom_filter_bits = r.next("bloom_filter_bits");
  if (c.spec.bloom_filter_bits == 0) bad("bloom_filter_bits must be >= 1");
  if (c.spec.bloom_filter_bits > (std::uint64_t{1} << 20)) {
    bad("bloom_filter_bits out of range [1, 2^20]");
  }
  const std::uint64_t hashes = r.next("bloom_num_hashes");
  if (hashes > 16) bad("bloom_num_hashes out of range");
  c.spec.bloom_num_hashes = static_cast<unsigned>(hashes);
  const std::uint64_t float_amps = r.next("float_amplitudes");
  if (float_amps > 1) bad("float_amplitudes out of range [0, 1]");
  c.spec.float_amplitudes = float_amps == 1;
  // Any value is legal: it is reduced modulo the word length at check time,
  // and kNoSnapshot (all ones) means "skip P7".
  c.snapshot_cut = r.next("snapshot_cut");
  // Likewise: reduced mod 8 (submode) and used as a split seed; kNoWire
  // (all ones) means "skip P8".
  c.wire_split = r.next("wire_split");
  // Likewise: reduced mod (word length + 1) at check time; kNoCrash (all
  // ones) means "skip P9".
  c.crash_point = r.next("crash_point");
  if (!r.exhausted()) bad("trailing fields");
  return c;
}

}  // namespace qols::fuzz
