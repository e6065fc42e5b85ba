#include "net/service.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/cli.hpp"
#include "net/client.hpp"
#include "net/fault.hpp"

namespace maxel::net {

namespace {

// Validates a --fault-plan / MAXEL_FAULT_PLAN spec up front so a typo
// is a usage error (exit 2), not a runtime failure mid-session.
bool check_fault_plan(const std::string& spec) {
  if (spec.empty()) return true;
  try {
    FaultPlan::parse(spec);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maxel_client: %s\n", e.what());
    return false;
  }
}

}  // namespace

int connect_command(int argc, char** argv) {
  ClientConfig cfg;
  if (const char* env = std::getenv("MAXEL_FAULT_PLAN")) cfg.fault_plan = env;
  std::string json_path;
  FlagParser p{argc, argv};
  std::string flag;
  while (p.next_flag(flag)) {
    if (flag == "--host") { const char* v = p.value(); if (v) cfg.host = v; }
    else if (flag == "--port") cfg.port = p.value_port();
    else if (flag == "--bits") cfg.bits = p.value_u64();
    else if (flag == "--rounds")
      cfg.rounds_hint = static_cast<std::uint32_t>(p.value_u64(UINT32_MAX));
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
    else if (flag == "--retries") cfg.retry.max_attempts = p.value_int();
    else if (flag == "--retry-backoff") cfg.retry.backoff_ms = p.value_int();
    else if (flag == "--retry-backoff-max") cfg.retry.backoff_max_ms = p.value_int();
    else if (flag == "--retry-seed") cfg.retry.jitter_seed = p.value_u64();
    else if (flag == "--fault-plan") { const char* v = p.value(); if (v) cfg.fault_plan = v; }
    else if (flag == "--net-timeout") {
      const int ms = p.value_int();
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
  if (!check_fault_plan(cfg.fault_plan)) return 2;

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
