#include "evloop/ev_service.hpp"

#include <signal.h>

#include <ctime>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include "evloop/ev_broker.hpp"
#include "net/cli.hpp"
#include "svc/session_spool.hpp"

namespace maxel::evloop {

int broker_command(int argc, char** argv) {
  EvBrokerConfig cfg;
  cfg.verbose = true;  // per-session log lines; --quiet mutes them
  std::string json_path, metrics_path;
  net::FlagParser p{argc, argv};
  std::string flag;
  while (p.next_flag(flag)) {
    if (flag == "--port") cfg.port = p.value_port();
    else if (flag == "--bind") { const char* v = p.value(); if (v) cfg.bind_addr = v; }
    else if (flag == "--bits") cfg.bits = p.value_u64();
    else if (flag == "--rounds") cfg.rounds_per_session = p.value_u64();
    else if (flag == "--shards") cfg.shards = p.value_u64();
    else if (flag == "--backlog") cfg.listen_backlog = p.value_int();
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
      net::ModeChoice mc;
      if (!net::parse_mode(p.value(), mc)) {
        std::fprintf(stderr, "bad --mode (precomputed|stream|v3|reusable)\n");
        return 2;
      }
      cfg.allow_stream = mc.stream;
      cfg.allow_v3 = mc.v3;
      cfg.allow_reusable = mc.reusable;
    }
    else if (flag == "--idle-timeout") {
      // 0 keeps the default deadline (EvBrokerConfig::idle_timeout_ms).
      if (const int ms = p.value_int(); ms > 0) cfg.idle_timeout_ms = ms;
    }
    else if (flag == "--help" || flag == "-h") {
      std::printf(
          "maxel_server / maxelctl serve [flags]\n"
          "  --port N --bind ADDR --bits N --rounds N --sessions N\n"
          "  --cores N --seed N --scheme {halfgates|grr3|classic4}\n"
          "  --chunk-rounds N --idle-timeout MS --json PATH --quiet\n"
          "  --spool DIR (default: a private temporary spool, removed\n"
          "        on exit) --shards N --backlog N --low N --high N\n"
          "        --cache N --metrics PATH\n"
          "  --mode {precomputed|stream|v3|reusable}  serve only this mode\n"
          "        family (default: all four):\n%s",
          net::kModeHelp);
      return 0;
    }
    else if (flag == "--scheme") {
      const char* v = p.value();
      if (!v || !net::parse_scheme(v, cfg.scheme)) {
        std::fprintf(stderr, "bad --scheme (halfgates|grr3|classic4)\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "maxel serve: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!p.ok || cfg.bits == 0 || cfg.rounds_per_session == 0 ||
      cfg.shards == 0 || cfg.stream_chunk_rounds == 0) {
    std::fprintf(stderr, "maxel serve: bad flags\n");
    return 2;
  }

  // SIGINT/SIGTERM stay blocked in every broker thread and are taken by
  // one waiter thread, so request_stop() (which posts to the shard
  // loops) never runs inside a signal handler. The waiter polls so its
  // jthread destructor can end it.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  try {
    // Without --spool the sessions live in a private spool that goes
    // away with the process, on every exit path below.
    std::optional<svc::TempSpoolDir> private_spool;
    if (cfg.spool_dir.empty()) cfg.spool_dir = private_spool.emplace().path();
    EvBroker broker(cfg);
    std::jthread waiter([&](std::stop_token stop) {
      const timespec poll{0, 100'000'000};  // 100 ms
      while (!stop.stop_requested())
        if (sigtimedwait(&stop_signals, nullptr, &poll) > 0)
          broker.request_stop();
    });
    std::printf("maxel broker listening on %s:%u (b=%zu, %zu rounds/session, "
                "%zu shards, backlog %d, spool %s [%zu..%zu])\n",
                cfg.bind_addr.c_str(), broker.port(), cfg.bits,
                cfg.rounds_per_session, cfg.shards, cfg.listen_backlog,
                cfg.spool_dir.c_str(), cfg.spool_low_watermark,
                cfg.spool_high_watermark);
    std::fflush(stdout);
    broker.run();

    const svc::BrokerStats st = broker.stats();
    std::printf("served %llu sessions (%llu rounds) over %zu shards: "
                "%llu B out, %llu rejected busy, wall %.3fs\n",
                static_cast<unsigned long long>(st.server.sessions_served),
                static_cast<unsigned long long>(st.server.rounds_served),
                cfg.shards,
                static_cast<unsigned long long>(st.server.bytes_sent),
                static_cast<unsigned long long>(st.admission_rejects),
                st.server.total_seconds);
    net::dump_stats(st.to_json(), json_path);
    if (!metrics_path.empty()) {
      std::ofstream os(metrics_path);
      os << broker.metrics().to_json() << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maxel serve: %s\n", e.what());
    return 1;
  }
}

}  // namespace maxel::evloop
