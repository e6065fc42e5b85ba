// Concurrent session broker — the multi-tenant worker-pool front over
// the server-side session core (evloop/session.hpp).
//
// Threads (all owned by run()):
//   accept loop (caller's thread): polls the listener with a short
//     timeout so request_stop() is observed promptly, and either
//     enqueues the connection or — when the bounded admission queue is
//     full — sends the typed kServerBusy reject and closes, so an
//     overloaded broker degrades into fast, explicit rejections instead
//     of unbounded queueing or silent drops.
//   N workers: pop a connection and serve it through an EvSession on
//     the blocking driver (sessions come from the disk-backed
//     SessionSpool), then fold its outcome into per-worker ServerStats
//     (merged on demand) and the shared MetricsRegistry via
//     record_session — the same accounting the event-loop front uses.
//   producer: keeps the spool between its low/high watermarks, garbling
//     batches on a core::GcCorePool — the software stand-in for
//     MAXelerator streaming fresh sessions up over PCIe.
//
// Stop discipline: request_stop() (async-signal-safe atomic store) ->
// the accept loop stops accepting, workers finish their in-flight
// sessions, queued-but-unstarted connections get the typed
// kShuttingDown reject, and run() joins everything before returning.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuits.hpp"
#include "core/gc_core_pool.hpp"
#include "evloop/session.hpp"
#include "gc/v3.hpp"
#include "net/fault.hpp"
#include "net/handshake.hpp"
#include "net/reusable_service.hpp"
#include "net/server.hpp"
#include "net/tcp_channel.hpp"
#include "net/v3_service.hpp"
#include "svc/metrics.hpp"
#include "svc/session_spool.hpp"

namespace maxel::svc {

struct BrokerConfig {
  std::string bind_addr = "0.0.0.0";
  std::uint16_t port = 7117;  // 0 picks an ephemeral port (Broker::port())
  std::size_t bits = 16;
  gc::Scheme scheme = gc::Scheme::kHalfGates;
  std::size_t rounds_per_session = 128;
  std::uint64_t demo_seed = 7;

  std::size_t workers = 4;            // serving threads
  std::size_t admission_queue = 8;    // accepted-but-unserved cap
  int accept_poll_ms = 100;           // stop-flag poll period

  std::string spool_dir;              // required
  std::size_t spool_low_watermark = 2;   // refill when ready < this
  std::size_t spool_high_watermark = 8;  // refill up to this
  std::size_t ram_cache_sessions = 4;
  std::size_t precompute_cores = 0;   // 0 = hardware concurrency

  std::uint64_t max_sessions = 0;  // stop after serving this many; 0 = forever
  bool verbose = true;
  // Stream-mode (garble-while-transfer) rounds per chunk; stream
  // sessions garble on the worker thread and never touch the spool.
  std::size_t stream_chunk_rounds = 16;
  bool allow_stream = true;
  bool allow_v3 = true;  // accept protocol-v3 hellos (slim wire + OT pool)
  // Reusable-circuit sessions (garble once, evaluate forever). Rides on
  // v3, so it is only served when allow_v3 is also true. The artifact
  // lives in the spool's reusable lane keyed by (circuit fingerprint,
  // bit width): a broker restarting on the same spool dir reloads it
  // instead of re-garbling. Weaker garbler privacy — see
  // docs/SECURITY_MODELS.md.
  bool allow_reusable = true;
  net::TcpOptions tcp;
  // Per-connection idle deadline: when > 0 it overrides both
  // tcp.recv_timeout_ms and tcp.send_timeout_ms, bounding how long a
  // stalled client can pin a worker (counted in the idle_timeouts
  // metric when it fires).
  int idle_timeout_ms = 0;
  // Deterministic fault schedule (net/fault.hpp grammar) wrapped around
  // every served connection; empty = no injection. One injector spans
  // the broker's lifetime, so each event fires once across connections.
  std::string fault_plan;
};

struct BrokerStats {
  net::ServerStats server;  // merged over workers (+ accept-loop wall time)
  SpoolStats spool;
  std::uint64_t admission_rejects = 0;  // kServerBusy sent
  std::uint64_t drain_rejects = 0;      // kShuttingDown sent
  std::size_t queue_depth = 0;          // at snapshot time

  [[nodiscard]] std::string to_json() const;
};

// Folds one session-core outcome into `metrics`: histograms, counters
// and per-mode wire bytes for a served session, the failure taxonomy
// otherwise (an event-loop idle eviction counts like a blocking
// timeout). Returns the session's stats block with its failure counters
// applied, ready to merge into the front's totals. Shared by Broker
// and evloop::EvBroker.
net::ServerStats record_session(MetricsRegistry& metrics,
                                const evloop::EvSession& s,
                                bool evicted_idle = false);

class Broker {
 public:
  explicit Broker(const BrokerConfig& cfg);
  ~Broker();
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  // Accept/dispatch loop; spawns workers + producer, returns after a
  // graceful drain once request_stop() was called or max_sessions is
  // reached. Safe to run on its own thread.
  void run();

  // Async-signal-safe stop request.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] BrokerStats stats() const;
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const circuit::Circuit& circuit() const { return circ_; }
  // OT-pool claims still outstanding (0 once no session is in flight).
  [[nodiscard]] std::uint64_t v3_outstanding_claims() const {
    return v3_reg_.outstanding_claims();
  }

  // Load-generation hooks: an in-process load generator fabricates
  // client OT pools directly into the live registry and needs the
  // reusable artifact + handshake expectation to can its byte streams
  // (see evloop/loadgen.hpp).
  [[nodiscard]] net::V3PoolRegistry& v3_registry() { return v3_reg_; }
  [[nodiscard]] const net::ReusableServeContext* reusable_context() const {
    return reusable_ctx_ ? &*reusable_ctx_ : nullptr;
  }
  [[nodiscard]] const net::ServerExpectation& expectation() const {
    return expect_;
  }

 private:
  void worker_loop(std::size_t worker);
  void producer_loop();
  void serve_connection(proto::Channel& ch, std::size_t worker);
  proto::PrecomputedSession take_session_blocking();
  proto::PrecomputedSessionV3 take_v3_blocking();
  // Loads the reusable artifact for this (fingerprint, bits) key from
  // the spool — or garbles it once and persists it — and builds the
  // serve context. Corrupt or unparseable blobs are destroyed and
  // replaced by a fresh garbling, never served.
  void ensure_reusable();
  // Sends a load-state reject without reading the hello, then closes.
  void reject_connection(net::TcpChannel& ch, net::RejectCode code);

  BrokerConfig cfg_;
  std::shared_ptr<net::FaultInjector> injector_;  // null when plan empty
  circuit::Circuit circ_;
  gc::V3Analysis v3_an_;
  net::V3PoolRegistry v3_reg_;  // per-client OT pools, one broker delta
  std::vector<std::vector<bool>> v3_g_bits_;  // demo garbler inputs/round
  net::ServerExpectation expect_;
  net::TcpListener listener_;
  SessionSpool spool_;
  core::GcCorePool pool_;

  // Reusable-circuit cache: one artifact per broker (the broker serves
  // one circuit), built once in the constructor and read-only after —
  // workers share it without locking. reusable_garbles_ counts fresh
  // garblings (0 when the spool supplied the artifact on open).
  std::optional<net::ReusableServeContext> reusable_ctx_;
  std::string reusable_key_;
  std::uint64_t reusable_garbles_ = 0;

  std::atomic<bool> stop_{false};
  std::atomic<bool> producer_stop_{false};  // set after workers drain
  std::atomic<std::uint64_t> sessions_served_total_{0};
  std::atomic<std::uint64_t> precomputed_{0};
  evloop::EvServeContext serve_ctx_;

  // Bounded admission queue; workers block on queue_cv_.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<net::TcpChannel>> queue_;
  bool queue_closed_ = false;

  // Spool refill signaling (producer wakes workers waiting on an empty
  // spool; workers wake the producer after draining it).
  std::mutex spool_mu_;
  std::condition_variable spool_cv_;

  // Per-worker stats, merged under stats_mu_ into a snapshot.
  mutable std::mutex stats_mu_;
  std::vector<net::ServerStats> worker_stats_;
  std::uint64_t admission_rejects_ = 0;
  std::uint64_t drain_rejects_ = 0;
  double accept_wall_seconds_ = 0;

  MetricsRegistry metrics_;
};

}  // namespace maxel::svc
