#pragma once
// Compact repro tokens: every FuzzCase — freshly drawn or shrunk —
// serializes to one printable token that `qols_fuzz --replay <token>`
// re-checks bit-identically on any machine.
//
// Format (version "qf6", lowercase hex fields joined by '-'):
//
//   qf6-<seed>-<k>-<word>-<param>-<nwrap>{-<wkind>-<a>-<b>}*-<cut>
//      -<sched>-<chunk>-<sessions>-<rec>-<sbudget>-<bbits>-<bhashes>
//      -<float>-<snapcut>-<wire>-<crashcut>
//
// qf6 dropped qf5's trailing field, a cross-shard move target; qf5 appended
// <crashcut> (the durable crash/recovery axis, P9), qf4 <wire> (frame-level
// server, P8), qf3 <snapcut> (snapshot/resume, P7), qf2 <float> (precision,
// P6). The field list is positional and versioned; decode rejects unknown
// versions (including qf1..qf5), malformed hex, out-of-range enums and wrong
// field counts with std::invalid_argument, so a token either replays the
// exact case or fails loudly — never a silently different one.

#include <string>

#include "qols/fuzz/fuzz_case.hpp"

namespace qols::fuzz {

/// Serializes the case. encode_token(decode_token(t)) == t for valid t.
std::string encode_token(const FuzzCase& c);

/// Parses a token back into the identical case. Throws std::invalid_argument
/// on anything that is not a well-formed qf6 token.
FuzzCase decode_token(const std::string& token);

}  // namespace qols::fuzz
