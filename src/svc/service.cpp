#include "svc/service.hpp"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "circuit/circuits.hpp"
#include "core/gc_core_pool.hpp"
#include "crypto/rng.hpp"
#include "net/cli.hpp"
#include "proto/precompute.hpp"
#include "svc/session_spool.hpp"

namespace maxel::svc {

namespace {

// Whitespace-free JSON -> indented form; tracks string/escape state so
// braces inside messages don't confuse it. No external JSON dependency.
std::string pretty_json(const std::string& in) {
  std::string out;
  int depth = 0;
  bool in_string = false, escaped = false;
  const auto newline = [&] {
    out.push_back('\n');
    for (int d = 0; d < depth; ++d) out += "  ";
  };
  for (const char c : in) {
    if (in_string) {
      out.push_back(c);
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; out.push_back(c); break;
      case '{': case '[': out.push_back(c); ++depth; newline(); break;
      case '}': case ']': --depth; newline(); out.push_back(c); break;
      case ',': out.push_back(c); newline(); break;
      case ':': out += ": "; break;
      default:
        if (!std::isspace(static_cast<unsigned char>(c))) out.push_back(c);
    }
  }
  return out;
}

}  // namespace

int spool_command(int argc, char** argv) {
  // `maxelctl spool purge --lane reusable --dir DIR` destroys the named
  // lane's resident files. Only the reusable lane is purgeable from
  // here: v2/v3 sessions are single-use and age out on their own, but a
  // reusable artifact lives forever until an operator retires it (e.g.
  // to force a re-garble with fresh flips).
  if (argc >= 1 && std::strcmp(argv[0], "purge") == 0) {
    std::string dir, lane;
    net::FlagParser p{argc - 1, argv + 1};
    std::string flag;
    while (p.next_flag(flag)) {
      if (flag == "--dir") { const char* v = p.value(); if (v) dir = v; }
      else if (flag == "--lane") { const char* v = p.value(); if (v) lane = v; }
      else {
        std::fprintf(stderr, "maxelctl spool purge: unknown flag %s\n",
                     flag.c_str());
        return 2;
      }
    }
    if (!p.ok || dir.empty() || lane != "reusable") {
      std::fprintf(stderr,
                   "maxelctl spool purge: --dir DIR --lane reusable required\n");
      return 2;
    }
    try {
      SessionSpool spool(SpoolConfig{dir, 0, true});
      const std::size_t removed = spool.purge_reusable();
      std::printf("purged %zu reusable artifact%s from %s\n", removed,
                  removed == 1 ? "" : "s", dir.c_str());
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "maxelctl spool purge: %s\n", e.what());
      return 1;
    }
  }

  std::string dir;
  std::uint64_t fill = 0;
  std::size_t bits = 16, rounds = 128;
  gc::Scheme scheme = gc::Scheme::kHalfGates;
  net::FlagParser p{argc, argv};
  std::string flag;
  while (p.next_flag(flag)) {
    if (flag == "--dir") { const char* v = p.value(); if (v) dir = v; }
    else if (flag == "--fill") fill = p.value_u64();
    else if (flag == "--bits") bits = p.value_u64();
    else if (flag == "--rounds") rounds = p.value_u64();
    else if (flag == "--scheme") {
      const char* v = p.value();
      if (!v || !net::parse_scheme(v, scheme)) {
        std::fprintf(stderr, "bad --scheme (halfgates|grr3|classic4)\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "maxelctl spool: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!p.ok || dir.empty() || bits == 0 || rounds == 0) {
    std::fprintf(stderr, "maxelctl spool: --dir DIR required\n");
    return 2;
  }

  try {
    SessionSpool spool(SpoolConfig{dir, 0, true});
    if (fill > 0) {
      const circuit::Circuit c =
          circuit::make_mac_circuit(circuit::MacOptions{bits, bits, true});
      core::GcCorePool pool(0, crypto::SystemRandom().next_block());
      std::vector<proto::PrecomputedSession> fresh(fill);
      pool.parallel_for(fill, [&](std::size_t item, std::size_t core) {
        fresh[item] =
            proto::garble_session(c, scheme, rounds, pool.core_rng(core));
      });
      for (auto& s : fresh) spool.put(std::move(s));
    }
    const SpoolStats st = spool.stats();
    std::printf("spool %s: %zu sessions ready, %.1f KB on disk"
                " (+%llu spooled, %llu purged claimed leftovers)\n",
                dir.c_str(), st.sessions_ready,
                static_cast<double>(st.bytes_on_disk) / 1024.0,
                static_cast<unsigned long long>(st.sessions_spooled),
                static_cast<unsigned long long>(st.purged_on_open));
    // Reusable lane: one line per resident artifact — the cache key a
    // broker looks up, the blob size, the persisted MAC-evaluation
    // counter, and the checksum lineage take() verifies against.
    for (const auto& e : spool.reusable_entries())
      std::printf("  reusable %s: %s, %.1f KB, %llu evaluations served, "
                  "lineage %.12s\n",
                  e.key.c_str(), e.name.c_str(),
                  static_cast<double>(e.bytes) / 1024.0,
                  static_cast<unsigned long long>(e.evaluations),
                  e.sha256_hex.c_str());
    std::printf("STATS {\"role\":\"spool\",\"ready\":%zu,\"bytes_on_disk\":%llu,"
                "\"spooled\":%llu,\"purged_on_open\":%llu,"
                "\"reusable_ready\":%zu,\"reusable_evaluations\":%llu}\n",
                st.sessions_ready,
                static_cast<unsigned long long>(st.bytes_on_disk),
                static_cast<unsigned long long>(st.sessions_spooled),
                static_cast<unsigned long long>(st.purged_on_open),
                st.reusable_ready,
                static_cast<unsigned long long>(st.reusable_evaluations));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maxelctl spool: %s\n", e.what());
    return 1;
  }
}

int stats_command(int argc, char** argv) {
  std::string metrics_path;
  net::FlagParser p{argc, argv};
  std::string flag;
  while (p.next_flag(flag)) {
    if (flag == "--metrics") { const char* v = p.value(); if (v) metrics_path = v; }
    else {
      std::fprintf(stderr, "maxelctl stats: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!p.ok || metrics_path.empty()) {
    std::fprintf(stderr, "maxelctl stats: --metrics FILE required\n");
    return 2;
  }
  std::ifstream is(metrics_path);
  if (!is) {
    std::fprintf(stderr, "maxelctl stats: cannot open %s\n",
                 metrics_path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  std::printf("%s\n", pretty_json(buf.str()).c_str());
  return 0;
}

}  // namespace maxel::svc
