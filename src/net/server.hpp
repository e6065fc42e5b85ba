// Garbler-side network server: the cloud host of Fig. 1.
//
// Serves garbling sessions to remote evaluator clients over TCP, one
// connection at a time: each accepted connection is handed to the
// server-side session core (evloop::EvSession, stepped by its blocking
// driver), which runs the handshake and the session mode the hello asks
// for. Precomputed sessions come out of a GarblingBank that a
// background thread keeps stocked, garbling fresh sessions in parallel
// on a core::GcCorePool (the software stand-in for the accelerator
// streaming tables up over PCIe while the host serves traffic); v3
// sessions are garbled inline under the pool registry's delta, stream
// sessions chunk by chunk inside the session. evloop::EvBroker (event
// loops over a disk spool) is the concurrent front over the same core.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuits.hpp"
#include "core/gc_core_pool.hpp"
#include "crypto/rng.hpp"
#include "gc/scheme.hpp"
#include "net/fault.hpp"
#include "net/handshake.hpp"
#include "net/reusable_service.hpp"
#include "net/tcp_channel.hpp"
#include "net/v3_service.hpp"
#include "proto/precompute.hpp"

namespace maxel::evloop {
struct EvServeContext;  // evloop/session.hpp
}  // namespace maxel::evloop

namespace maxel::net {

struct ServerConfig {
  std::string bind_addr = "0.0.0.0";
  std::uint16_t port = 7117;  // 0 picks an ephemeral port (Server::port())
  std::size_t bits = 16;
  gc::Scheme scheme = gc::Scheme::kHalfGates;
  std::size_t rounds_per_session = 128;
  std::size_t bank_low_watermark = 2;  // refill when ready sessions < this
  std::size_t bank_batch = 2;          // sessions garbled per refill pass
  std::size_t precompute_cores = 0;    // 0 = hardware concurrency
  std::uint64_t demo_seed = 7;         // public demo-input seed (see demo_inputs.hpp)
  std::uint64_t max_sessions = 0;      // stop after serving this many; 0 = run until stop()
  int accept_poll_ms = 200;            // stop-flag poll period of the accept loop
  bool verbose = true;                 // per-session log line on stderr
  // Stream-mode (garble-while-transfer) rounds per chunk. Per-session
  // garbling RAM is one chunk of tables instead of the whole session.
  std::size_t stream_chunk_rounds = 16;
  bool allow_stream = true;            // reject kStream hellos when false
  bool allow_v3 = true;                // accept protocol-v3 hellos
  // Serve SessionMode::kReusable (garble-once artifact; weaker garbler
  // privacy — docs/SECURITY_MODELS.md). Needs allow_v3: the reusable
  // flow rides the v3 hello extension and OT pool.
  bool allow_reusable = true;
  TcpOptions tcp;
  // Per-connection idle deadline: when > 0 it overrides both
  // tcp.recv_timeout_ms and tcp.send_timeout_ms, so a client that goes
  // silent (or stops draining) frees its worker within this bound
  // instead of pinning it for the transport defaults.
  int idle_timeout_ms = 0;
  // Deterministic fault schedule (fault.hpp grammar) wrapped around
  // every accepted connection; empty = no injection. One injector spans
  // the server's lifetime, so each event fires once across connections.
  std::string fault_plan;
};

struct ServerStats {
  std::uint64_t sessions_served = 0;
  std::uint64_t rounds_served = 0;
  std::uint64_t handshakes_rejected = 0;
  std::uint64_t connection_errors = 0;
  std::uint64_t idle_timeouts = 0;  // subset of connection_errors
  std::uint64_t bytes_sent = 0;      // payload bytes, summed over sessions
  std::uint64_t bytes_received = 0;
  std::uint64_t sessions_precomputed = 0;
  std::uint64_t stream_sessions_served = 0;  // subset of sessions_served
  std::uint64_t v3_sessions_served = 0;      // subset of sessions_served
  // Reusable-mode sessions (subset of sessions_served) and how many of
  // them had to ship the artifact view (the rest ran off the client's
  // hash-confirmed cache).
  std::uint64_t reusable_sessions_served = 0;
  std::uint64_t reusable_artifacts_sent = 0;
  std::uint64_t reusable_garbles = 0;  // times a reusable artifact was built
  std::uint64_t v3_fresh_pools = 0;   // v3/reusable sessions that paid a base OT
  std::uint64_t v3_ot_extended = 0;   // correlated-OT indices materialized
  // Most tables resident server-side for any single session: the whole
  // session for precomputed mode, one chunk for stream mode. Merged
  // with max, not sum — it is a high-water mark.
  std::uint64_t peak_resident_tables = 0;
  double handshake_seconds = 0;
  double transfer_seconds = 0;  // garbled tables/frames/artifact + labels push
  double ot_seconds = 0;        // OT/pool setup + per-round label OT
  double first_table_seconds = 0;  // session start -> first tables on the wire
  double total_seconds = 0;     // serve() wall time

  // Accumulates another stats block into this one (counters and timers
  // are additive, high-water marks take the max) — how the broker folds
  // per-worker stats into one service-wide snapshot.
  void merge(const ServerStats& other);

  [[nodiscard]] std::string to_json() const;
};

class Server {
 public:
  explicit Server(const ServerConfig& cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Bound port (useful with cfg.port == 0).
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  // Accept/serve loop; returns when max_sessions is reached or
  // request_stop() was called. Safe to run on its own thread.
  void serve();

  // Async-signal-safe stop request (plain atomic store; serve() and the
  // precompute thread poll it).
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  // Counter snapshot. The precompute thread keeps stocking the bank (and
  // bumping sessions_precomputed) until destruction, so this takes the
  // bank lock rather than handing out a reference.
  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const circuit::Circuit& circuit() const { return circ_; }
  // OT-pool claims still outstanding (0 once no session is in flight).
  [[nodiscard]] std::uint64_t v3_outstanding_claims() const {
    return v3_reg_.outstanding_claims();
  }

 private:
  void precompute_loop();
  proto::PrecomputedSession take_session();
  void handle_connection(proto::Channel& ch);

  ServerConfig cfg_;
  std::shared_ptr<FaultInjector> injector_;  // null when fault_plan empty
  circuit::Circuit circ_;
  gc::V3Analysis v3_an_;
  V3PoolRegistry v3_reg_;
  std::vector<std::vector<bool>> v3_g_bits_;  // demo garbler inputs/round
  // Garbled once at construction when reusable mode is enabled; every
  // reusable session is served off this one context.
  std::optional<ReusableServeContext> reusable_ctx_;
  ServerExpectation expect_;
  TcpListener listener_;
  crypto::SystemRandom rng_;  // inline v3 garbling randomness
  // What every session needs from this server (held by pointer because
  // evloop/session.hpp includes this header).
  std::unique_ptr<evloop::EvServeContext> serve_ctx_;

  core::GcCorePool pool_;
  proto::GarblingBank bank_;
  mutable std::mutex bank_mu_;
  std::condition_variable bank_cv_;  // signals sessions added
  std::thread precompute_thread_;
  std::atomic<bool> stop_{false};

  ServerStats stats_;
};

}  // namespace maxel::net
