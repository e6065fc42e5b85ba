// Flag-parsing plumbing shared by the command-line entry points:
// `serve` / `connect` (net/service.hpp), `serve --spool`
// (evloop/ev_service.hpp) and `spool` / `stats` (svc/service.hpp).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
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

// Walks argv flag by flag; a flag missing its value clears `ok`, which
// the caller turns into a usage error.
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
  std::uint64_t value_u64() {
    const char* v = value();
    return v ? std::strtoull(v, nullptr, 10) : 0;
  }
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
