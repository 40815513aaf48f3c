#include "qols/fuzz/properties.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "qols/lang/ldisj_instance.hpp"
#include "qols/machine/online_recognizer.hpp"
#include "qols/server/session_broker.hpp"
#include "qols/telemetry/registry.hpp"
#include "qols/util/rng.hpp"

namespace qols::fuzz {

using machine::OnlineRecognizer;
using service::RecognizerKind;
using stream::Symbol;

const char* word_class_name(WordClass cls) {
  switch (cls) {
    case WordClass::kShapeViolation:
      return "shape-violation";
    case WordClass::kInconsistent:
      return "inconsistent";
    case WordClass::kIntersecting:
      return "intersecting";
    case WordClass::kMember:
      return "member";
  }
  throw std::invalid_argument("word_class_name: unknown WordClass");
}

WordClass classify_word(const std::vector<Symbol>& w) {
  // Shape condition (i), mirroring StructureValidator: 1^k # then exactly
  // 3*2^k blocks of exactly m = 2^{2k} data bits, each '#'-terminated, and
  // nothing after the last '#'. The validator caps k at 20.
  std::size_t pos = 0;
  while (pos < w.size() && w[pos] == Symbol::kOne) ++pos;
  const std::size_t k = pos;
  if (k < 1 || k > 20 || pos >= w.size() || w[pos] != Symbol::kSep) {
    return WordClass::kShapeViolation;
  }
  ++pos;
  const std::uint64_t m = std::uint64_t{1} << (2 * k);
  const std::uint64_t blocks = std::uint64_t{3} << k;
  // Every block consumes >= 1 symbol, so this loop is O(|w|): it exits with
  // a verdict as soon as the word runs out, long before `blocks` iterations
  // matter for the (physically unrealizable) large-k shapes.
  const std::size_t body = pos;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    if (w.size() - pos < m + 1) return WordClass::kShapeViolation;
    for (std::uint64_t i = 0; i < m; ++i) {
      if (w[pos + i] == Symbol::kSep) return WordClass::kShapeViolation;
    }
    if (w[pos + m] != Symbol::kSep) return WordClass::kShapeViolation;
    pos += m + 1;
  }
  if (pos != w.size()) return WordClass::kShapeViolation;

  // Consistency (ii)/(iii): x- and z-blocks (b % 3 != 1) equal block 0,
  // y-blocks equal block 1.
  const auto block_start = [&](std::uint64_t b) {
    return body + static_cast<std::size_t>(b * (m + 1));
  };
  for (std::uint64_t b = 1; b < blocks; ++b) {
    const std::size_t ref = block_start(b % 3 == 1 ? 1 : 0);
    const std::size_t cur = block_start(b);
    if (cur == ref) continue;
    if (!std::equal(w.begin() + cur, w.begin() + cur + m, w.begin() + ref)) {
      return WordClass::kInconsistent;
    }
  }

  // Disjointness of x(1) and y(1).
  const std::size_t x0 = block_start(0);
  const std::size_t y0 = block_start(1);
  for (std::uint64_t i = 0; i < m; ++i) {
    if (w[x0 + i] == Symbol::kOne && w[y0 + i] == Symbol::kOne) {
      return WordClass::kIntersecting;
    }
  }
  return WordClass::kMember;
}

namespace {

/// Everything a finished run exposes; compared field-for-field.
struct Outcome {
  bool accepted = false;
  bool fully_simulated = true;
  std::uint64_t classical_bits = 0;
  std::uint64_t qubits = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome finish_outcome(OnlineRecognizer& rec) {
  Outcome out;
  out.accepted = rec.finish();
  out.fully_simulated = rec.fully_simulated();
  const auto space = rec.space_used();
  out.classical_bits = space.classical_bits;
  out.qubits = space.qubits;
  return out;
}

Outcome run_per_symbol(const service::RecognizerSpec& spec, std::uint64_t seed,
                       const std::vector<Symbol>& word) {
  auto rec = spec.make(seed);
  for (const Symbol s : word) rec->feed(s);
  return finish_outcome(*rec);
}

Outcome run_scheduled(const service::RecognizerSpec& spec, std::uint64_t seed,
                      const std::vector<Symbol>& word,
                      const std::vector<std::size_t>& sizes) {
  auto rec = spec.make(seed);
  std::size_t done = 0;
  for (const std::size_t n : sizes) {
    rec->feed_chunk(std::span<const Symbol>(word.data() + done, n));
    done += n;
  }
  return finish_outcome(*rec);
}

std::string outcome_diff(const Outcome& a, const Outcome& b) {
  std::string out;
  if (a.accepted != b.accepted) {
    out += " accepted " + std::to_string(a.accepted) + " vs " +
           std::to_string(b.accepted);
  }
  if (a.fully_simulated != b.fully_simulated) {
    out += " fully_simulated " + std::to_string(a.fully_simulated) + " vs " +
           std::to_string(b.fully_simulated);
  }
  if (a.classical_bits != b.classical_bits) {
    out += " classical_bits " + std::to_string(a.classical_bits) + " vs " +
           std::to_string(b.classical_bits);
  }
  if (a.qubits != b.qubits) {
    out += " qubits " + std::to_string(a.qubits) + " vs " +
           std::to_string(b.qubits);
  }
  return out;
}

void check_stream_transport(const FuzzCase& c,
                            const std::vector<Symbol>& word,
                            std::vector<Discrepancy>& issues) {
  // Same stack, drained through next_chunk at an awkward seeded buffer size
  // (with one leading next() so the cursor hand-off is exercised too).
  auto s = build_stream(c);
  std::vector<Symbol> chunked;
  chunked.reserve(word.size());
  if (auto first = s->next()) chunked.push_back(*first);
  std::vector<Symbol> buf(1 + c.seed % 97);
  while (true) {
    const std::size_t n = s->next_chunk(buf);
    if (n == 0) break;
    chunked.insert(chunked.end(), buf.begin(), buf.begin() + n);
  }
  if (chunked != word) {
    std::size_t at = 0;
    while (at < std::min(chunked.size(), word.size()) &&
           chunked[at] == word[at]) {
      ++at;
    }
    issues.push_back(
        {"P1-stream-transport",
         "next() and next_chunk() drains diverge: lengths " +
             std::to_string(word.size()) + " vs " +
             std::to_string(chunked.size()) + ", first mismatch at " +
             std::to_string(at)});
  }
}

void check_oracle(const FuzzCase& c, WordClass cls, const Outcome& reference,
                  std::vector<Discrepancy>& issues) {
  const RecognizerKind kind = c.spec.kind;
  const auto expect = [&](bool want, const char* why) {
    if (reference.accepted != want) {
      issues.push_back(
          {"P3-oracle",
           std::string(service::recognizer_kind_name(kind)) + " on a " +
               word_class_name(cls) + " word: expected " +
               (want ? "accept" : "reject") + " (" + why + "), got " +
               (reference.accepted ? "accept" : "reject")});
    }
  };
  switch (cls) {
    case WordClass::kMember:
      // Perfect completeness: A1/A2 never err on equal blocks, and no
      // machine that only compares real bits of x against real bits of y
      // can find a nonexistent intersection. The Bloom machine is the one
      // exception — false positives wrongly reject members by design.
      if (kind == RecognizerKind::kClassicalBlock ||
          kind == RecognizerKind::kClassicalFull ||
          kind == RecognizerKind::kClassicalSampling) {
        expect(true, "deterministic member acceptance");
      } else if (kind == RecognizerKind::kQuantum &&
                 reference.fully_simulated) {
        expect(true, "perfect completeness of Theorem 3.4");
      }
      break;
    case WordClass::kShapeViolation:
      // A1 is deterministic and runs in every machine.
      expect(false, "A1 rejects shape violations with certainty");
      break;
    case WordClass::kIntersecting:
      // Exact-coverage machines reject with certainty; the Bloom filter has
      // no false negatives.
      if (kind == RecognizerKind::kClassicalBlock ||
          kind == RecognizerKind::kClassicalFull) {
        expect(false, "every index is checked");
      } else if (kind == RecognizerKind::kClassicalBloom) {
        expect(false, "Bloom filters have no false negatives");
      }
      break;
    case WordClass::kInconsistent:
      // Caught by fingerprints only w.h.p. — no per-run guarantee.
      break;
  }
}

void check_backends(const FuzzCase& c, const std::vector<Symbol>& word,
                    std::vector<Discrepancy>& issues) {
  // The backends' ceilings differ (dense simulates k <= 10, structured
  // k <= 16): a word whose prefix parses to a k in that gap is honestly
  // simulated by one and honestly refused by the other — a selection-policy
  // asymmetry, not a bug. The machine reads k from the word itself, so a
  // malformed word with 11+ leading ones reaches the gap even though the
  // generator caps the instance k at 3. P4 asserts only where both
  // ceilings cover the parsed k.
  std::size_t ones = 0;
  while (ones < word.size() && word[ones] == Symbol::kOne) ++ones;
  if (ones > 10 && ones < word.size() && word[ones] == Symbol::kSep) return;
  const std::uint64_t seed = recognizer_seed(c, 0);
  service::RecognizerSpec dense = c.spec;
  dense.backend = "dense";
  service::RecognizerSpec structured = c.spec;
  structured.backend = "structured";
  const std::vector<std::size_t> whole =
      word.empty() ? std::vector<std::size_t>{}
                   : std::vector<std::size_t>{word.size()};
  const Outcome a = run_scheduled(dense, seed, word, whole);
  const Outcome b = run_scheduled(structured, seed, word, whole);
  // Space is conceptual (a function of k, not of the simulating backend),
  // so the full outcome must match field-for-field.
  if (!(a == b)) {
    issues.push_back({"P4-backend-equality",
                      "dense vs structured:" + outcome_diff(a, b)});
  }
}

void check_precision(const service::RecognizerSpec& pinned_spec,
                     std::uint64_t seed, const std::vector<Symbol>& word,
                     std::vector<Discrepancy>& issues) {
  // Same seed, same word, whole-word schedule; the only variable is the
  // amplitude scalar. RNG draws (measurement + A2 fingerprints) consume the
  // stream identically in both precisions and accept/reject thresholds are
  // accumulated in double either way, so the Outcome must be bit-identical —
  // not merely close (the contract test_precision_differential.cpp pins at
  // the backend layer, asserted here across the whole fuzz corpus).
  service::RecognizerSpec dbl = pinned_spec;
  dbl.float_amplitudes = false;
  service::RecognizerSpec flt = pinned_spec;
  flt.float_amplitudes = true;
  const std::vector<std::size_t> whole =
      word.empty() ? std::vector<std::size_t>{}
                   : std::vector<std::size_t>{word.size()};
  const Outcome a = run_scheduled(dbl, seed, word, whole);
  const Outcome b = run_scheduled(flt, seed, word, whole);
  if (!(a == b)) {
    issues.push_back(
        {"P6-precision-equality", "double vs float:" + outcome_diff(a, b)});
  }
}

void check_snapshot_resume(const FuzzCase& c,
                           const service::RecognizerSpec& pinned_spec,
                           const std::vector<Symbol>& word,
                           const Outcome& reference,
                           std::vector<Discrepancy>& issues) {
  const std::size_t cut =
      static_cast<std::size_t>(c.snapshot_cut % (word.size() + 1));
  const std::uint64_t seed = recognizer_seed(c, 0);
  try {
    auto first = pinned_spec.make(seed);
    first->feed_chunk(std::span<const Symbol>(word.data(), cut));
    const std::vector<std::uint8_t> bytes = first->snapshot();
    // The resumed half runs in a recognizer built from a DIFFERENT seed:
    // equality below proves restore() overwrites the constructed state
    // entirely, rng included, rather than merely patching counters.
    auto second = pinned_spec.make(seed ^ 0x5eed'5eed'5eed'5eedULL);
    second->restore(bytes);
    second->feed_chunk(
        std::span<const Symbol>(word.data() + cut, word.size() - cut));
    const Outcome resumed = finish_outcome(*second);
    if (!(resumed == reference)) {
      issues.push_back({"P7-snapshot-resume",
                        "straight vs snapshot at " + std::to_string(cut) +
                            "/" + std::to_string(word.size()) + ":" +
                            outcome_diff(reference, resumed)});
    }
  } catch (const std::exception& e) {
    // Every recognizer the generator can draw promises a working snapshot;
    // an UnsupportedSnapshot or DecodeError here is a real defect.
    issues.push_back({"P7-snapshot-resume",
                      "snapshot at " + std::to_string(cut) + "/" +
                          std::to_string(word.size()) + " threw: " +
                          e.what()});
  }
}

void check_service(const FuzzCase& c, const std::vector<Symbol>& word,
                   const Outcome& reference,
                   std::vector<Discrepancy>& issues) {
  service::RecognizerService::Config cfg;
  cfg.spec = c.spec;
  // Rotate the flush threshold through "every feed", "tiny batches" and the
  // default so both the pooled-flush and the finish-drain paths serve words.
  static constexpr std::uint64_t kThresholds[3] = {0, 256,
                                                   std::uint64_t{1} << 18};
  cfg.flush_threshold = kThresholds[c.seed % 3];
  service::RecognizerService svc(cfg);

  std::vector<service::RecognizerService::SessionId> ids;
  for (unsigned s = 0; s < c.sessions; ++s) {
    ids.push_back(svc.open(recognizer_seed(c, s)));
  }
  // Round-robin with ragged, per-session chunk sizes: the adversarial
  // interleaving for anything that assumed one stream per recognizer.
  util::SplitMix64 sm(c.seed ^ 0xc0ffee);
  std::vector<std::size_t> cursors(c.sessions, 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (unsigned s = 0; s < c.sessions; ++s) {
      if (cursors[s] >= word.size()) continue;
      const std::size_t n = std::min<std::size_t>(
          1 + sm.next() % 83, word.size() - cursors[s]);
      svc.feed(ids[s], std::span<const Symbol>(word.data() + cursors[s], n));
      cursors[s] += n;
      progressed = true;
    }
  }
  // Finish in reverse order; every session must reproduce its single-stream
  // outcome exactly (session 0's reference is the per-symbol run).
  std::vector<Outcome> served(c.sessions);
  for (unsigned s = c.sessions; s-- > 0;) {
    const auto verdict = svc.finish(ids[s]);
    served[s] = {verdict.accepted, verdict.fully_simulated,
                 verdict.space.classical_bits, verdict.space.qubits};
  }
  const std::vector<std::size_t> whole =
      word.empty() ? std::vector<std::size_t>{}
                   : std::vector<std::size_t>{word.size()};
  for (unsigned s = 0; s < c.sessions; ++s) {
    const Outcome single =
        s == 0 ? reference
               : run_scheduled(c.spec, recognizer_seed(c, s), word, whole);
    if (!(served[s] == single)) {
      issues.push_back({"P5-service-identity",
                        "session " + std::to_string(s) + " of " +
                            std::to_string(c.sessions) + ":" +
                            outcome_diff(served[s], single)});
    }
  }
}

void check_wire(const FuzzCase& c, const std::vector<Symbol>& word,
                const Outcome& reference,
                std::vector<Discrepancy>& issues) {
  // P8: encode the P5 session script into wire frames, deliver the byte
  // stream to the server's FrameDecoder + SessionBroker at fuzzer-chosen
  // ragged split points, and demand verdicts bit-identical to direct
  // single-stream runs. wire_split % 8 picks a submode: 7 smashes a length
  // prefix (oversized frame), 5 smashes a FEED symbol byte (invalid
  // symbol); both must die with a typed kMalformedFrame error and a closed
  // connection — never a crash or UB.
  namespace wire = server::wire;
  using server::SessionBroker;

  service::RecognizerService::Config cfg;
  cfg.spec = c.spec;
  // Same threshold rotation as P5, keyed off the wire axis so the pooled
  // and inline feed paths both serve framed bytes across the corpus.
  static constexpr std::uint64_t kThresholds[3] = {0, 256,
                                                   std::uint64_t{1} << 18};
  cfg.flush_threshold = kThresholds[c.wire_split % 3];
  service::RecognizerService svc(cfg);
  server::BrokerShared shared(svc, {});
  SessionBroker broker(shared);

  // The client script: HELLO, OPEN each session at wire id s+1, ragged
  // round-robin FEED interleave (the P5 adversarial schedule, reframed),
  // one STATS probe, FINISH in reverse order. Frame start offsets and the
  // first FEED symbol offset feed the corrupt submodes.
  std::vector<std::uint8_t> script;
  std::vector<std::size_t> frame_starts;
  std::size_t first_feed_symbol = 0;  // 0 = the script has no FEED frames
  frame_starts.push_back(script.size());
  wire::append_hello(script, {});
  for (unsigned s = 0; s < c.sessions; ++s) {
    frame_starts.push_back(script.size());
    wire::append_open(script, {s + 1, recognizer_seed(c, s)});
  }
  util::SplitMix64 sm(c.wire_split ^ 0xf4a3'0000'00c0'ffeeULL);
  std::vector<std::size_t> cursors(c.sessions, 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (unsigned s = 0; s < c.sessions; ++s) {
      if (cursors[s] >= word.size()) continue;
      const std::size_t n = std::min<std::size_t>(
          1 + sm.next() % 83, word.size() - cursors[s]);
      frame_starts.push_back(script.size());
      if (first_feed_symbol == 0) {
        first_feed_symbol = script.size() + wire::kFrameHeaderSize + 8;
      }
      wire::append_feed(script, s + 1,
                        std::span<const Symbol>(word.data() + cursors[s], n));
      cursors[s] += n;
      progressed = true;
    }
  }
  frame_starts.push_back(script.size());
  wire::append_frame(script, wire::FrameType::kStats, {});
  for (unsigned s = c.sessions; s-- > 0;) {
    frame_starts.push_back(script.size());
    wire::append_finish(script, {s + 1});
  }

  bool expect_close = false;
  const unsigned mode = static_cast<unsigned>(c.wire_split % 8);
  if (mode == 7) {
    // High byte of a length prefix -> 0xff: a >16 MiB frame the decoder
    // must refuse before buffering, losing framing for good.
    const std::size_t at = frame_starts[sm.next() % frame_starts.size()];
    script[at + 3] = 0xff;
    expect_close = true;
  } else if (mode == 5 && first_feed_symbol != 0) {
    script[first_feed_symbol] = 0x07;  // not a Symbol; read_feed must throw
    expect_close = true;
  }

  // Deliver at ragged, seeded byte boundaries — deliberately not frame
  // boundaries — pumping after every arrival like the epoll loop does.
  std::vector<std::uint8_t> out;
  constexpr std::size_t kBudget = std::size_t{1} << 26;
  auto result = SessionBroker::PumpResult::kIdle;
  util::SplitMix64 split_sm(c.wire_split ^ 0x5eed'f4a3'5eed'f4a3ULL);
  std::size_t done = 0;
  while (done < script.size()) {
    const std::size_t n = std::min<std::size_t>(1 + split_sm.next() % 251,
                                                script.size() - done);
    broker.ingest(
        std::span<const std::uint8_t>(script.data() + done, n));
    done += n;
    result = broker.pump(out, kBudget);
    if (result == SessionBroker::PumpResult::kClose) break;
  }

  // Decode the server's responses with the same incremental decoder.
  bool hello_ok = false;
  bool stats_seen = false;
  unsigned open_oks = 0;
  std::vector<bool> have_verdict(c.sessions, false);
  std::vector<Outcome> verdicts(c.sessions);
  std::optional<wire::Error> last_error;
  wire::FrameDecoder client;
  client.append(out);
  try {
    while (auto f = client.next()) {
      switch (f->type) {
        case wire::FrameType::kHelloOk:
          hello_ok = true;
          break;
        case wire::FrameType::kOpenOk:
          ++open_oks;
          break;
        case wire::FrameType::kVerdict: {
          const auto v = wire::read_verdict(f->payload);
          if (v.session >= 1 && v.session <= c.sessions) {
            have_verdict[v.session - 1] = true;
            verdicts[v.session - 1] = {v.accepted, v.fully_simulated,
                                       v.classical_bits, v.qubits};
          } else {
            issues.push_back({"P8-wire-identity",
                              "verdict for unknown wire session " +
                                  std::to_string(v.session)});
          }
          break;
        }
        case wire::FrameType::kStatsText:
          stats_seen = true;
          break;
        case wire::FrameType::kError:
          last_error = wire::read_error(f->payload);
          break;
        default:
          issues.push_back(
              {"P8-wire-identity",
               std::string("unexpected response frame ") +
                   wire::frame_type_name(f->type)});
      }
    }
  } catch (const util::serde::DecodeError& e) {
    issues.push_back({"P8-wire-identity",
                      std::string("server response undecodable: ") +
                          e.what()});
    return;
  }
  if (client.buffered_bytes() != 0) {
    issues.push_back({"P8-wire-identity",
                      "trailing bytes after the last response frame"});
  }

  if (expect_close) {
    // The corrupted script must produce a typed malformed-frame error and a
    // closed connection; anything the broker served before the corruption
    // point is legitimate and unasserted.
    if (result != SessionBroker::PumpResult::kClose || !broker.closed()) {
      issues.push_back({"P8-wire-identity",
                        "corrupt frame (mode " + std::to_string(mode) +
                            ") did not close the connection"});
    }
    if (!last_error ||
        last_error->code != wire::ErrorCode::kMalformedFrame) {
      issues.push_back(
          {"P8-wire-identity",
           "corrupt frame (mode " + std::to_string(mode) +
               ") did not produce a kMalformedFrame error frame"});
    }
    return;
  }

  if (result == SessionBroker::PumpResult::kClose || broker.closed()) {
    issues.push_back({"P8-wire-identity",
                      std::string("clean script closed the connection: ") +
                          (last_error ? last_error->message : "no error")});
    return;
  }
  if (!hello_ok || open_oks != c.sessions || !stats_seen) {
    issues.push_back({"P8-wire-identity",
                      "missing responses: hello_ok=" +
                          std::to_string(hello_ok) + " open_oks=" +
                          std::to_string(open_oks) + "/" +
                          std::to_string(c.sessions) + " stats=" +
                          std::to_string(stats_seen)});
    return;
  }
  const std::vector<std::size_t> whole =
      word.empty() ? std::vector<std::size_t>{}
                   : std::vector<std::size_t>{word.size()};
  for (unsigned s = 0; s < c.sessions; ++s) {
    if (!have_verdict[s]) {
      issues.push_back({"P8-wire-identity",
                        "no verdict for session " + std::to_string(s)});
      continue;
    }
    const Outcome single =
        s == 0 ? reference
               : run_scheduled(c.spec, recognizer_seed(c, s), word, whole);
    if (!(verdicts[s] == single)) {
      issues.push_back({"P8-wire-identity",
                        "session " + std::to_string(s) + " of " +
                            std::to_string(c.sessions) + ":" +
                            outcome_diff(verdicts[s], single)});
    }
  }
}

void check_crash(const FuzzCase& c,
                 const service::RecognizerSpec& pinned_spec,
                 const std::vector<Symbol>& word, const Outcome& reference,
                 std::vector<Discrepancy>& issues) {
  // P9: interrupted-recover-resume vs straight-through. A durable service
  // feeds the word to a seeded cut, checkpoints with persist() and dies; a
  // fresh service over the same directory recover()s the session from the
  // manifest + spill, feeds the rest and finishes. The verdict (and
  // SpaceReport) must be bit-identical to the uninterrupted run — the
  // restart-resume contract of the durable session table, asserted across
  // the whole fuzz corpus instead of just the unit-test scripts.
  namespace fs = std::filesystem;
  static std::atomic<std::uint64_t> sequence{0};
  const fs::path dir =
      fs::temp_directory_path() /
      ("qols-fuzz-crash-" + std::to_string(::getpid()) + "-" +
       std::to_string(sequence.fetch_add(1)));
  const std::size_t cut =
      static_cast<std::size_t>(c.crash_point % (word.size() + 1));
  const std::uint64_t seed = recognizer_seed(c, 0);

  const auto fail = [&](const std::string& detail) {
    issues.push_back({"P9-crash-recovery",
                      "crash at " + std::to_string(cut) + "/" +
                          std::to_string(word.size()) + ": " + detail});
  };
  try {
    fs::create_directories(dir);
    service::RecognizerService::Config cfg;
    cfg.spec = pinned_spec;
    cfg.spill_dir = dir.string();
    cfg.durable = true;
    service::RecognizerService::SessionId id = 0;
    {
      service::RecognizerService svc(cfg);
      id = svc.open(seed);
      if (cut > 0) {
        svc.feed(id, std::span<const Symbol>(word.data(), cut));
      }
      if (svc.persist() != 1) fail("persist() did not checkpoint 1 session");
    }  // the crash: the first incarnation dies here

    service::RecognizerService svc(cfg);
    if (!svc.pending_recovery()) {
      fail("restarted service found no manifest to recover");
    } else {
      const auto report = svc.recover();
      if (report.sessions_recovered != 1 || !report.lost.empty()) {
        fail("recover() reported " +
             std::to_string(report.sessions_recovered) + " recovered, " +
             std::to_string(report.lost.size()) + " lost (want 1, 0)");
      } else {
        if (cut < word.size()) {
          svc.feed(id, std::span<const Symbol>(word.data() + cut,
                                               word.size() - cut));
        }
        const auto verdict = svc.finish(id);
        const Outcome resumed{verdict.accepted, verdict.fully_simulated,
                              verdict.space.classical_bits,
                              verdict.space.qubits};
        if (!(resumed == reference)) {
          fail("straight vs interrupted:" +
               outcome_diff(reference, resumed));
        }
      }
    }
  } catch (const std::exception& e) {
    // Every step above is a promised-to-work path: persist of a live
    // session, recovery of a clean checkpoint, resume of an adopted
    // session. Any throw is a real defect.
    fail(std::string("threw: ") + e.what());
  }
  std::error_code ec;
  fs::remove_all(dir, ec);  // best effort; the dir is per-case unique
}

}  // namespace

CaseResult check_case(const FuzzCase& c) {
  // One counter per property, counting CHECKS EXECUTED (not failures):
  // after a soak, "fuzz.checks.p4" == the number of cases that actually
  // exercised the backend-equality axis, not just the corpus size.
  struct CheckCounters {
    telemetry::Counter& p1;
    telemetry::Counter& p2;
    telemetry::Counter& p3;
    telemetry::Counter& p4;
    telemetry::Counter& p5;
    telemetry::Counter& p6;
    telemetry::Counter& p7;
    telemetry::Counter& p8;
    telemetry::Counter& p9;
  };
  static CheckCounters checks{
      telemetry::MetricsRegistry::global().counter("fuzz.checks.p1"),
      telemetry::MetricsRegistry::global().counter("fuzz.checks.p2"),
      telemetry::MetricsRegistry::global().counter("fuzz.checks.p3"),
      telemetry::MetricsRegistry::global().counter("fuzz.checks.p4"),
      telemetry::MetricsRegistry::global().counter("fuzz.checks.p5"),
      telemetry::MetricsRegistry::global().counter("fuzz.checks.p6"),
      telemetry::MetricsRegistry::global().counter("fuzz.checks.p7"),
      telemetry::MetricsRegistry::global().counter("fuzz.checks.p8"),
      telemetry::MetricsRegistry::global().counter("fuzz.checks.p9")};

  CaseResult result;
  const std::vector<Symbol> word = realize_word(c);
  result.word_len = word.size();

  // P1: the stream stack itself is transport-invariant.
  checks.p1.add();
  check_stream_transport(c, word, result.issues);

  // An empty backend id would defer to the QOLS_BACKEND environment
  // override, making the same token check different things in different
  // environments. Pin the explicit "auto" policy (which beats the env var)
  // so check_case is a pure function of the case — the replay guarantee.
  FuzzCase pinned = c;
  if (pinned.spec.kind == RecognizerKind::kQuantum &&
      pinned.spec.backend.empty()) {
    pinned.spec.backend = "auto";
  }

  // P2: chunk schedule vs per-symbol feeding, bit for bit.
  checks.p2.add();
  const std::uint64_t seed = recognizer_seed(c, 0);
  const Outcome reference = run_per_symbol(pinned.spec, seed, word);
  const Outcome chunked =
      run_scheduled(pinned.spec, seed, word, expand_schedule(c, word.size()));
  if (!(reference == chunked)) {
    result.issues.push_back(
        {"P2-chunk-invariance",
         "per-symbol vs scheduled chunks:" + outcome_diff(reference, chunked)});
  }

  // P3: exact-oracle agreement (plus the classifier's own cross-check
  // against the repo's reference oracle).
  checks.p3.add();
  result.cls = classify_word(word);
  std::string text;
  text.reserve(word.size());
  for (const Symbol s : word) text.push_back(stream::symbol_to_char(s));
  if ((result.cls == WordClass::kMember) != lang::is_member_reference(text)) {
    result.issues.push_back(
        {"P3-oracle", std::string("classify_word says ") +
                          word_class_name(result.cls) +
                          " but is_member_reference disagrees"});
  }
  check_oracle(c, result.cls, reference, result.issues);

  // P4: dense vs structured backend, quantum cases only.
  if (c.spec.kind == RecognizerKind::kQuantum) {
    checks.p4.add();
    check_backends(c, word, result.issues);
  }

  // P6: float vs double amplitudes, quantum cases only.
  if (c.spec.kind == RecognizerKind::kQuantum) {
    checks.p6.add();
    check_precision(pinned.spec, seed, word, result.issues);
  }

  // P7: snapshot mid-word, restore into a fresh recognizer, same outcome.
  if (c.snapshot_cut != kNoSnapshot) {
    checks.p7.add();
    check_snapshot_resume(c, pinned.spec, word, reference, result.issues);
  }

  // P5: the serving layer reproduces single-stream verdicts.
  checks.p5.add();
  check_service(pinned, word, reference, result.issues);

  // P8: the wire protocol layer reproduces them too, at any framing, and
  // dies typed (not crashed) on corrupted frames.
  if (c.wire_split != kNoWire) {
    checks.p8.add();
    check_wire(pinned, word, reference, result.issues);
  }

  // P9: a crash after a persist() checkpoint loses nothing — the recovered
  // run's verdict equals the straight-through run's.
  if (c.crash_point != kNoCrash) {
    checks.p9.add();
    check_crash(c, pinned.spec, word, reference, result.issues);
  }

  return result;
}

}  // namespace qols::fuzz
