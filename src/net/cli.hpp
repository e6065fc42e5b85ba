// Flag-parsing plumbing shared by the command-line entry points:
// `connect` (net/service.hpp), `serve` (evloop/ev_service.hpp) and
// `spool` / `stats` (svc/service.hpp).
#pragma once

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "gc/scheme.hpp"

namespace maxel::net {

inline bool parse_scheme(const std::string& name, gc::Scheme& out) {
  if (name == "halfgates") out = gc::Scheme::kHalfGates;
  else if (name == "grr3") out = gc::Scheme::kGrr3;
  else if (name == "classic4") out = gc::Scheme::kClassic4;
  else return false;
  return true;
}

// Unified --mode selector. Server side: picks which hellos are accepted
// (precomputed is always served; the flag gates the optional modes).
// Client side: picks what the hello asks for.
struct ModeChoice {
  bool stream = false;
  bool v3 = false;
  bool reusable = false;
};

// The four session modes of the unified --mode flag, with the
// tradeoffs operators pick between. Shared by serve/connect --help.
inline constexpr const char* kModeHelp =
    "  --mode precomputed  classic v2 per-round flow off pre-garbled\n"
    "                      sessions: strongest-understood privacy for\n"
    "                      both parties, highest bytes/MAC (full tables\n"
    "                      + labels every round).\n"
    "  --mode stream       garble-while-transfer: same privacy as\n"
    "                      precomputed, bounded server memory, tables\n"
    "                      still shipped per round.\n"
    "  --mode v3           slim wire (PRG-seeded labels, packed select\n"
    "                      bits) + cross-session OT pool: same privacy,\n"
    "                      ~40%% of the v2 bytes, base OT amortized to\n"
    "                      ~zero across sessions.\n"
    "  --mode reusable     garble once, evaluate any number of\n"
    "                      sessions off one cached artifact: lowest\n"
    "                      bytes/MAC and highest MAC/s, but WEAKER\n"
    "                      GARBLER PRIVACY (public-model/private-query\n"
    "                      only — see docs/SECURITY_MODELS.md).\n";

inline bool parse_mode(const char* v, ModeChoice& out) {
  if (v == nullptr) return false;
  const std::string name = v;
  if (name == "precomputed") out = {false, false, false};
  else if (name == "stream") out = {true, false, false};
  else if (name == "v3") out = {false, true, false};
  else if (name == "reusable") out = {false, true, true};
  else return false;
  return true;
}

// Walks argv flag by flag; a flag missing its value, or a numeric flag
// whose value is not a decimal integer in range, clears `ok`, which the
// caller turns into a usage error.
struct FlagParser {
  int argc;
  char** argv;
  int i = 0;
  bool ok = true;

  bool next_flag(std::string& flag) {
    if (i >= argc) return false;
    flag = argv[i++];
    return true;
  }
  const char* value() {
    if (i >= argc) {
      ok = false;
      return nullptr;
    }
    return argv[i++];
  }
  // Digits only, nothing after them, at most `max`: an empty value, a
  // sign, a trailing suffix ("2x") or an overflow is rejected.
  std::uint64_t value_u64(std::uint64_t max = UINT64_MAX) {
    const char* v = value();
    if (v == nullptr) return 0;
    const char* end = v + std::strlen(v);
    std::uint64_t out = 0;
    const auto [stop, ec] = std::from_chars(v, end, out);
    if (ec != std::errc() || stop != end || out > max) {
      ok = false;
      return 0;
    }
    return out;
  }
  std::uint16_t value_port() {
    return static_cast<std::uint16_t>(value_u64(UINT16_MAX));
  }
  int value_int() { return static_cast<int>(value_u64(INT_MAX)); }
};

// Prints the `STATS {...}` line and, when `path` is set, writes the same
// JSON to that file.
inline void dump_stats(const std::string& json, const std::string& path) {
  std::printf("STATS %s\n", json.c_str());
  std::fflush(stdout);
  if (!path.empty()) {
    std::ofstream os(path);
    os << json << "\n";
  }
}

}  // namespace maxel::net
