#include "net/service.hpp"

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/cli.hpp"
#include "net/client.hpp"
#include "net/fault.hpp"
#include "net/server.hpp"

namespace maxel::net {

namespace {

// Validates a --fault-plan / MAXEL_FAULT_PLAN spec up front so a typo
// is a usage error (exit 2), not a runtime failure mid-session.
bool check_fault_plan(const char* who, const std::string& spec) {
  if (spec.empty()) return true;
  try {
    FaultPlan::parse(spec);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", who, e.what());
    return false;
  }
}

Server* g_signal_server = nullptr;

void handle_sigint(int) {
  if (g_signal_server != nullptr) g_signal_server->request_stop();
}

// The four session modes of the unified --mode flag, with the
// tradeoffs operators pick between. Shared by serve/connect --help.
constexpr const char* kModeHelp =
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

}  // namespace

int serve_command(int argc, char** argv) {
  ServerConfig cfg;
  cfg.port = 7117;
  // The env knob lets tests/net_e2e.sh chaos-test the stock binaries
  // without touching their command lines; an explicit flag wins.
  if (const char* env = std::getenv("MAXEL_FAULT_PLAN")) cfg.fault_plan = env;
  std::string json_path;
  FlagParser p{argc, argv};
  std::string flag;
  while (p.next_flag(flag)) {
    if (flag == "--port") cfg.port = static_cast<std::uint16_t>(p.value_u64());
    else if (flag == "--bind") { const char* v = p.value(); if (v) cfg.bind_addr = v; }
    else if (flag == "--bits") cfg.bits = p.value_u64();
    else if (flag == "--rounds") cfg.rounds_per_session = p.value_u64();
    else if (flag == "--sessions") cfg.max_sessions = p.value_u64();
    else if (flag == "--cores") cfg.precompute_cores = p.value_u64();
    else if (flag == "--seed") cfg.demo_seed = p.value_u64();
    else if (flag == "--json") { const char* v = p.value(); if (v) json_path = v; }
    else if (flag == "--quiet") cfg.verbose = false;
    else if (flag == "--chunk-rounds") cfg.stream_chunk_rounds = p.value_u64();
    else if (flag == "--mode") {
      // Restricts the server to one mode family (precomputed v2 is
      // always served as the baseline every client can fall back to).
      ModeChoice mc;
      if (!parse_mode(p.value(), mc)) {
        std::fprintf(stderr,
                     "bad --mode (precomputed|stream|v3|reusable)\n");
        return 2;
      }
      cfg.allow_stream = mc.stream;
      cfg.allow_v3 = mc.v3;
      cfg.allow_reusable = mc.reusable;
    }
    else if (flag == "--help" || flag == "-h") {
      std::printf(
          "maxel_server serve [flags]\n"
          "  --port N --bind ADDR --bits N --rounds N --sessions N\n"
          "  --cores N --seed N --scheme {halfgates|grr3|classic4}\n"
          "  --chunk-rounds N --idle-timeout MS\n"
          "  --fault-plan SPEC --json PATH --quiet\n"
          "  --mode {precomputed|stream|v3|reusable}  serve only this mode\n"
          "        family (default: all four):\n%s",
          kModeHelp);
      return 0;
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
      std::fprintf(stderr, "maxel_server: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!p.ok || cfg.bits == 0 || cfg.rounds_per_session == 0 ||
      cfg.stream_chunk_rounds == 0) {
    std::fprintf(stderr, "maxel_server: bad flags\n");
    return 2;
  }
  if (!check_fault_plan("maxel_server", cfg.fault_plan)) return 2;

  try {
    Server server(cfg);
    g_signal_server = &server;
    std::signal(SIGINT, handle_sigint);
    std::signal(SIGTERM, handle_sigint);
    std::printf("maxel_server listening on %s:%u (b=%zu, %zu rounds/session, "
                "%s)\n",
                cfg.bind_addr.c_str(), server.port(), cfg.bits,
                cfg.rounds_per_session, gc::scheme_name(cfg.scheme));
    std::fflush(stdout);
    server.serve();
    g_signal_server = nullptr;

    const ServerStats& st = server.stats();
    std::printf("served %llu sessions (%llu rounds): %llu B out, %llu B in, "
                "handshake %.3fs, transfer %.3fs, ot %.3fs, wall %.3fs\n",
                static_cast<unsigned long long>(st.sessions_served),
                static_cast<unsigned long long>(st.rounds_served),
                static_cast<unsigned long long>(st.bytes_sent),
                static_cast<unsigned long long>(st.bytes_received),
                st.handshake_seconds, st.transfer_seconds, st.ot_seconds,
                st.total_seconds);
    dump_stats(st.to_json(), json_path);
    return 0;
  } catch (const std::exception& e) {
    g_signal_server = nullptr;
    std::fprintf(stderr, "maxel_server: %s\n", e.what());
    return 1;
  }
}

int connect_command(int argc, char** argv) {
  ClientConfig cfg;
  if (const char* env = std::getenv("MAXEL_FAULT_PLAN")) cfg.fault_plan = env;
  std::string json_path;
  FlagParser p{argc, argv};
  std::string flag;
  while (p.next_flag(flag)) {
    if (flag == "--host") { const char* v = p.value(); if (v) cfg.host = v; }
    else if (flag == "--port") cfg.port = static_cast<std::uint16_t>(p.value_u64());
    else if (flag == "--bits") cfg.bits = p.value_u64();
    else if (flag == "--rounds") cfg.rounds_hint = static_cast<std::uint32_t>(p.value_u64());
    else if (flag == "--seed") cfg.demo_seed = p.value_u64();
    else if (flag == "--no-check") cfg.check = false;
    else if (flag == "--quiet") cfg.verbose = false;
    else if (flag == "--mode") {
      ModeChoice mc;
      if (!parse_mode(p.value(), mc)) {
        std::fprintf(stderr,
                     "bad --mode (precomputed|stream|v3|reusable)\n");
        return 2;
      }
      cfg.mode = mc.reusable ? SessionMode::kReusable
                 : mc.stream ? SessionMode::kStream
                             : SessionMode::kPrecomputed;
      cfg.protocol = mc.v3 ? kProtocolVersionV3 : kProtocolVersion;
    }
    else if (flag == "--help" || flag == "-h") {
      std::printf(
          "maxel_client connect [flags]\n"
          "  --host H --port N --bits N --rounds N --seed N\n"
          "  --ot {base|iknp} --scheme {halfgates|grr3|classic4}\n"
          "  --retries N --retry-backoff MS --retry-backoff-max MS\n"
          "  --retry-seed N --net-timeout MS --fault-plan SPEC\n"
          "  --json PATH --no-check --quiet\n"
          "  --mode {precomputed|stream|v3|reusable}  session mode to\n"
          "        request (default: precomputed):\n%s",
          kModeHelp);
      return 0;
    }
    else if (flag == "--json") { const char* v = p.value(); if (v) json_path = v; }
    else if (flag == "--retries") cfg.retry.max_attempts = static_cast<int>(p.value_u64());
    else if (flag == "--retry-backoff") cfg.retry.backoff_ms = static_cast<int>(p.value_u64());
    else if (flag == "--retry-backoff-max") cfg.retry.backoff_max_ms = static_cast<int>(p.value_u64());
    else if (flag == "--retry-seed") cfg.retry.jitter_seed = p.value_u64();
    else if (flag == "--fault-plan") { const char* v = p.value(); if (v) cfg.fault_plan = v; }
    else if (flag == "--net-timeout") {
      const int ms = static_cast<int>(p.value_u64());
      cfg.tcp.recv_timeout_ms = ms;
      cfg.tcp.send_timeout_ms = ms;
    }
    else if (flag == "--ot") {
      const char* v = p.value();
      if (v && std::strcmp(v, "base") == 0) cfg.ot = OtChoice::kBase;
      else if (v && std::strcmp(v, "iknp") == 0) cfg.ot = OtChoice::kIknp;
      else {
        std::fprintf(stderr, "bad --ot (base|iknp)\n");
        return 2;
      }
    } else if (flag == "--scheme") {
      const char* v = p.value();
      if (!v || !parse_scheme(v, cfg.scheme)) {
        std::fprintf(stderr, "bad --scheme (halfgates|grr3|classic4)\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "maxel_client: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!p.ok || cfg.bits == 0 || cfg.retry.max_attempts < 1) {
    std::fprintf(stderr, "maxel_client: bad flags\n");
    return 2;
  }
  if (!check_fault_plan("maxel_client", cfg.fault_plan)) return 2;

  try {
    const ClientStats st = run_client(cfg);
    std::printf("evaluated %u rounds: MAC = %llu%s, %llu B in, %llu B out, "
                "attempts %u, handshake %.3fs, transfer %.3fs, ot %.3fs, "
                "eval %.3fs\n",
                st.rounds, static_cast<unsigned long long>(st.output_value),
                st.checked ? (st.verified ? " (VERIFIED)" : " (MISMATCH)") : "",
                static_cast<unsigned long long>(st.bytes_received),
                static_cast<unsigned long long>(st.bytes_sent), st.attempts,
                st.handshake_seconds, st.transfer_seconds, st.ot_seconds,
                st.eval_seconds);
    dump_stats(st.to_json(), json_path);
    return st.checked && !st.verified ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maxel_client: %s\n", e.what());
    return 1;
  }
}

}  // namespace maxel::net
