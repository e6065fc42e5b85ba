#include "evloop/ev_service.hpp"

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "evloop/ev_broker.hpp"

namespace maxel::evloop {

namespace {

EvBroker* g_signal_broker = nullptr;

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

// Mirrors the unified --mode selector: precomputed is always served;
// the flag gates the optional families.
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

}  // namespace

int evloop_command(int argc, char** argv) {
  EvBrokerConfig cfg;
  std::string json_path, metrics_path;
  FlagParser p{argc, argv};
  std::string flag;
  while (p.next_flag(flag)) {
    if (flag == "--evloop") continue;  // the routing flag itself
    else if (flag == "--port") cfg.port = static_cast<std::uint16_t>(p.value_u64());
    else if (flag == "--bind") { const char* v = p.value(); if (v) cfg.bind_addr = v; }
    else if (flag == "--bits") cfg.bits = p.value_u64();
    else if (flag == "--rounds") cfg.rounds_per_session = p.value_u64();
    else if (flag == "--shards") cfg.shards = p.value_u64();
    else if (flag == "--backlog") cfg.listen_backlog = static_cast<int>(p.value_u64());
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
    else if (flag == "--scheme") {
      const char* v = p.value();
      if (!v || !parse_scheme(v, cfg.scheme)) {
        std::fprintf(stderr, "bad --scheme (halfgates|grr3|classic4)\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "maxelctl serve (evloop): unknown flag %s\n",
                   flag.c_str());
      return 2;
    }
  }
  if (!p.ok || cfg.bits == 0 || cfg.rounds_per_session == 0 ||
      cfg.shards == 0 || cfg.spool_dir.empty() ||
      cfg.stream_chunk_rounds == 0) {
    std::fprintf(stderr,
                 "maxelctl serve (evloop): bad flags (--spool DIR required, "
                 "--shards >= 1)\n");
    return 2;
  }

  try {
    EvBroker broker(cfg);
    g_signal_broker = &broker;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::printf("maxel evloop broker listening on %s:%u (b=%zu, %zu "
                "rounds/session, %zu shards, backlog %d, spool %s [%zu..%zu])\n",
                cfg.bind_addr.c_str(), broker.port(), cfg.bits,
                cfg.rounds_per_session, cfg.shards, cfg.listen_backlog,
                cfg.spool_dir.c_str(), cfg.spool_low_watermark,
                cfg.spool_high_watermark);
    std::fflush(stdout);
    broker.run();
    g_signal_broker = nullptr;

    const svc::BrokerStats st = broker.stats();
    std::printf("served %llu sessions (%llu rounds) over %zu shards: "
                "%llu B out, %llu rejected busy, wall %.3fs\n",
                static_cast<unsigned long long>(st.server.sessions_served),
                static_cast<unsigned long long>(st.server.rounds_served),
                cfg.shards,
                static_cast<unsigned long long>(st.server.bytes_sent),
                static_cast<unsigned long long>(st.admission_rejects),
                st.server.total_seconds);
    const std::string json = st.to_json();
    std::printf("STATS %s\n", json.c_str());
    std::fflush(stdout);
    if (!json_path.empty()) {
      std::ofstream os(json_path);
      os << json << "\n";
    }
    if (!metrics_path.empty()) {
      std::ofstream os(metrics_path);
      os << broker.metrics().to_json() << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    g_signal_broker = nullptr;
    std::fprintf(stderr, "maxelctl serve (evloop): %s\n", e.what());
    return 1;
  }
}

}  // namespace maxel::evloop
