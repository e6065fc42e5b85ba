#include "svc/service.hpp"

#include <cctype>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/gc_core_pool.hpp"
#include "crypto/rng.hpp"
#include "svc/broker.hpp"
#include "svc/session_spool.hpp"

namespace maxel::svc {

namespace {

Broker* g_signal_broker = nullptr;

void handle_signal(int) {
  if (g_signal_broker != nullptr) g_signal_broker->request_stop();
}

bool parse_scheme(const std::string& name, gc::Scheme& out) {
  if (name == "halfgates") out = gc::Scheme::kHalfGates;
  else if (name == "grr3") out = gc::Scheme::kGrr3;
  else if (name == "classic4") out = gc::Scheme::kClassic4;
  else return false;
  return true;
}

// Mirrors the sequential server's --mode selector (net/service.cpp):
// precomputed is always served; the flag gates the optional families.
struct ModeChoice {
  bool stream = false;
  bool v3 = false;
  bool reusable = false;
};

bool parse_mode(const char* v, ModeChoice& out) {
  if (v == nullptr) return false;
  const std::string name = v;
  if (name == "precomputed") out = {false, false, false};
  else if (name == "stream") out = {true, false, false};
  else if (name == "v3") out = {false, true, false};
  else if (name == "reusable") out = {false, true, true};
  else return false;
  return true;
}

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

void dump_stats(const std::string& json, const std::string& path) {
  std::printf("STATS %s\n", json.c_str());
  std::fflush(stdout);
  if (!path.empty()) {
    std::ofstream os(path);
    os << json << "\n";
  }
}

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

int broker_command(int argc, char** argv) {
  BrokerConfig cfg;
  if (const char* env = std::getenv("MAXEL_FAULT_PLAN")) cfg.fault_plan = env;
  std::string json_path, metrics_path;
  FlagParser p{argc, argv};
  std::string flag;
  while (p.next_flag(flag)) {
    if (flag == "--port") cfg.port = static_cast<std::uint16_t>(p.value_u64());
    else if (flag == "--bind") { const char* v = p.value(); if (v) cfg.bind_addr = v; }
    else if (flag == "--bits") cfg.bits = p.value_u64();
    else if (flag == "--rounds") cfg.rounds_per_session = p.value_u64();
    else if (flag == "--workers") cfg.workers = p.value_u64();
    else if (flag == "--queue") cfg.admission_queue = p.value_u64();
    else if (flag == "--spool") { const char* v = p.value(); if (v) cfg.spool_dir = v; }
    else if (flag == "--low") cfg.spool_low_watermark = p.value_u64();
    else if (flag == "--high") cfg.spool_high_watermark = p.value_u64();
    else if (flag == "--cache") cfg.ram_cache_sessions = p.value_u64();
    else if (flag == "--cores") cfg.precompute_cores = p.value_u64();
    else if (flag == "--seed") cfg.demo_seed = p.value_u64();
    else if (flag == "--sessions") cfg.max_sessions = p.value_u64();
    else if (flag == "--metrics") { const char* v = p.value(); if (v) metrics_path = v; }
    else if (flag == "--json") { const char* v = p.value(); if (v) json_path = v; }
    else if (flag == "--quiet") cfg.verbose = false;
    else if (flag == "--chunk-rounds") cfg.stream_chunk_rounds = p.value_u64();
    else if (flag == "--mode") {
      ModeChoice mc;
      if (!parse_mode(p.value(), mc)) {
        std::fprintf(stderr, "bad --mode (precomputed|stream|v3|reusable)\n");
        return 2;
      }
      cfg.allow_stream = mc.stream;
      cfg.allow_v3 = mc.v3;
      cfg.allow_reusable = mc.reusable;
    }
    else if (flag == "--idle-timeout") cfg.idle_timeout_ms = static_cast<int>(p.value_u64());
    else if (flag == "--fault-plan") { const char* v = p.value(); if (v) cfg.fault_plan = v; }
    else if (flag == "--scheme") {
      const char* v = p.value();
      if (!v || !parse_scheme(v, cfg.scheme)) {
        std::fprintf(stderr, "bad --scheme (halfgates|grr3|classic4)\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "maxelctl serve (broker): unknown flag %s\n",
                   flag.c_str());
      return 2;
    }
  }
  if (!p.ok || cfg.bits == 0 || cfg.rounds_per_session == 0 ||
      cfg.workers == 0 || cfg.spool_dir.empty() ||
      cfg.stream_chunk_rounds == 0) {
    std::fprintf(stderr,
                 "maxelctl serve (broker): bad flags (--spool DIR required)\n");
    return 2;
  }
  if (!cfg.fault_plan.empty()) {
    try {
      net::FaultPlan::parse(cfg.fault_plan);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "maxelctl serve (broker): %s\n", e.what());
      return 2;
    }
  }

  try {
    Broker broker(cfg);
    g_signal_broker = &broker;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::printf("maxel broker listening on %s:%u (b=%zu, %zu rounds/session, "
                "%zu workers, queue %zu, spool %s [%zu..%zu])\n",
                cfg.bind_addr.c_str(), broker.port(), cfg.bits,
                cfg.rounds_per_session, cfg.workers, cfg.admission_queue,
                cfg.spool_dir.c_str(), cfg.spool_low_watermark,
                cfg.spool_high_watermark);
    std::fflush(stdout);
    broker.run();
    g_signal_broker = nullptr;

    const BrokerStats st = broker.stats();
    std::printf("served %llu sessions (%llu rounds) over %zu workers: "
                "%llu B out, %llu rejected busy, %llu rejected draining, "
                "wall %.3fs\n",
                static_cast<unsigned long long>(st.server.sessions_served),
                static_cast<unsigned long long>(st.server.rounds_served),
                cfg.workers,
                static_cast<unsigned long long>(st.server.bytes_sent),
                static_cast<unsigned long long>(st.admission_rejects),
                static_cast<unsigned long long>(st.drain_rejects),
                st.server.total_seconds);
    dump_stats(st.to_json(), json_path);
    if (!metrics_path.empty()) {
      std::ofstream os(metrics_path);
      os << broker.metrics().to_json() << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    g_signal_broker = nullptr;
    std::fprintf(stderr, "maxelctl serve (broker): %s\n", e.what());
    return 1;
  }
}

int spool_command(int argc, char** argv) {
  // `maxelctl spool purge --lane reusable --dir DIR` destroys the named
  // lane's resident files. Only the reusable lane is purgeable from
  // here: v2/v3 sessions are single-use and age out on their own, but a
  // reusable artifact lives forever until an operator retires it (e.g.
  // to force a re-garble with fresh flips).
  if (argc >= 1 && std::strcmp(argv[0], "purge") == 0) {
    std::string dir, lane;
    FlagParser p{argc - 1, argv + 1};
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
  FlagParser p{argc, argv};
  std::string flag;
  while (p.next_flag(flag)) {
    if (flag == "--dir") { const char* v = p.value(); if (v) dir = v; }
    else if (flag == "--fill") fill = p.value_u64();
    else if (flag == "--bits") bits = p.value_u64();
    else if (flag == "--rounds") rounds = p.value_u64();
    else if (flag == "--scheme") {
      const char* v = p.value();
      if (!v || !parse_scheme(v, scheme)) {
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
  FlagParser p{argc, argv};
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
