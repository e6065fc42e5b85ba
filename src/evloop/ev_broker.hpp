// The session broker behind maxel_server and `maxelctl serve`: N
// single-threaded shards, each running an EvLoop with its own
// SO_REUSEPORT listener, serving every session mode through the session
// core (non-blocking EvSession machines). 10k concurrent sessions
// cost 10k fds and state machines, not 10k stacks; one shard is the
// whole front on a small host.
//
// Shared state across shards: one SessionSpool, one V3PoolRegistry (one
// garbling delta), one read-only reusable artifact, one MetricsRegistry,
// one producer thread keeping the spool between its watermarks — the
// software stand-in for MAXelerator streaming fresh sessions up over
// PCIe. A shard that finds a spool lane empty waits for the producer,
// and that wait is itself demand: the producer garbles for it even when
// the lane's low watermark is 0. Per-client pool phases are serialized
// by Entry::ev_gate (see evloop/session.hpp), so two shards serving the
// same client never interleave wire phases.
//
// Accept discipline (per shard): the listener is registered
// edge-triggered and every readiness event drains accept4() until
// EAGAIN. EMFILE/ENFILE does not abort the shard — a reserved spare fd
// is closed to admit one more connection, which gets the typed
// kServerBusy reject and an immediate close, then the spare is
// reacquired (counted in admission_rejects).
//
// Idle eviction: one timer wheel per shard, one armed timer per
// connection, lazily re-armed against last-activity — 10k idle sessions
// cost a wheel scan per tick, not 10k poll timeouts. An eviction counts
// idle_timeouts + connection_errors.
//
// Stop discipline: request_stop() (any thread, but not a signal handler:
// it posts a task to each shard) -> each shard closes its listener, so a
// late connect is refused at once instead of waiting out its recv
// timeout; in-flight sessions run to completion (bounded by idle
// eviction); run() joins the shards, then the producer.
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
#include "gc/v3.hpp"
#include "net/handshake.hpp"
#include "net/reusable_service.hpp"
#include "net/tcp_channel.hpp"
#include "net/v3_service.hpp"
#include "svc/metrics.hpp"
#include "svc/session_spool.hpp"

#include "evloop/event_loop.hpp"
#include "evloop/session.hpp"

namespace maxel::svc {

// A broker stats snapshot: the `STATS` line and --json file of
// `maxelctl serve`.
struct BrokerStats {
  evloop::ServerStats server;  // merged over shards (+ run() wall time)
  SpoolStats spool;
  std::uint64_t admission_rejects = 0;  // kServerBusy sent (fd limit)

  [[nodiscard]] std::string to_json() const;
};

}  // namespace maxel::svc

namespace maxel::evloop {

// A file descriptor held in reserve so an EMFILE-saturated accept loop
// can always free one slot, accept the waiting connection, and tell it
// "busy" instead of leaving it queued forever (or aborting). Exported
// for unit tests.
class SpareFd {
 public:
  SpareFd();
  ~SpareFd();
  SpareFd(const SpareFd&) = delete;
  SpareFd& operator=(const SpareFd&) = delete;

  [[nodiscard]] bool held() const { return fd_ >= 0; }
  void release();    // close the spare, freeing one fd slot
  void reacquire();  // best effort; held() may stay false under pressure

 private:
  int fd_ = -1;
};

struct EvBrokerConfig {
  std::string bind_addr = "0.0.0.0";
  std::uint16_t port = 7117;  // 0 picks an ephemeral port (EvBroker::port())
  std::size_t bits = 16;
  gc::Scheme scheme = gc::Scheme::kHalfGates;
  std::size_t rounds_per_session = 128;
  std::uint64_t demo_seed = 7;

  std::size_t shards = 2;     // event-loop threads (>= 1)
  // Accept queue per shard listener, capped by net.core.somaxconn (4096
  // on current kernels). A full queue drops the SYN and the client waits
  // out a 1 s retransmit: 1024 overflowed about 2000 times per run under
  // fig_broker_scaling's 4096-connection burst, 4096 holds it.
  int listen_backlog = 4096;

  std::string spool_dir;  // required (`serve` makes a temporary one)
  std::size_t spool_low_watermark = 2;
  std::size_t spool_high_watermark = 8;
  std::size_t ram_cache_sessions = 4;
  std::size_t precompute_cores = 0;  // 0 = hardware concurrency

  std::uint64_t max_sessions = 0;  // stop after this many; 0 = forever
  bool verbose = false;  // per-session log lines on stderr
  std::size_t stream_chunk_rounds = 16;
  bool allow_stream = true;
  bool allow_v3 = true;
  bool allow_reusable = true;
  // Per-connection idle deadline (> 0): a peer silent for this long, or
  // not draining its output, is evicted.
  int idle_timeout_ms = 30'000;
};

class EvBroker {
 public:
  explicit EvBroker(const EvBrokerConfig& cfg);
  ~EvBroker();
  EvBroker(const EvBroker&) = delete;
  EvBroker& operator=(const EvBroker&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  // Spawns the shard threads + producer; returns after a graceful drain
  // (request_stop() or max_sessions): listeners close, in-flight
  // sessions run to completion (bounded by idle eviction), then the
  // loops exit. Safe to run on its own thread.
  void run();
  void request_stop();

  [[nodiscard]] svc::BrokerStats stats() const;
  [[nodiscard]] svc::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const circuit::Circuit& circuit() const { return circ_; }
  [[nodiscard]] std::uint64_t v3_outstanding_claims() const {
    return v3_reg_.outstanding_claims();
  }

  // Load-generation hooks: the in-process loadgen fabricates client OT
  // pools directly into the live registry and cans byte streams against
  // the reusable artifact + expectation (see evloop/loadgen.hpp).
  [[nodiscard]] net::V3PoolRegistry& v3_registry() { return v3_reg_; }
  [[nodiscard]] const net::ReusableServeContext* reusable_context() const {
    return reusable_ctx_ ? &*reusable_ctx_ : nullptr;
  }
  [[nodiscard]] const net::ServerExpectation& expectation() const {
    return expect_;
  }

 private:
  struct Shard;  // defined in ev_broker.cpp (EvLoop + conns + listener)
  struct EvConn;

  void shard_loop(Shard& sh);
  void accept_drain(Shard& sh);
  void add_conn(Shard& sh, int cfd);
  void on_io(Shard& sh, EvConn* c, bool r, bool w, bool err);
  void service_conn(Shard& sh, EvConn* c);
  bool write_drain(Shard& sh, EvConn& c);
  void arm_idle(Shard& sh, EvConn* c);
  void finish_conn(Shard& sh, EvConn* c, bool evicted_idle);
  void record_result(Shard& sh, EvConn& c, bool evicted_idle);
  // EMFILE path; false when even the freed spare couldn't admit one.
  bool busy_reject(Shard& sh);
  void begin_drain(Shard& sh);
  // The spool's single-use session lanes, as the producer stocks them.
  enum Lane : std::size_t { kLaneV2, kLaneV3, kLanes };
  [[nodiscard]] std::size_t lane_ready(Lane lane) const;
  // Sessions to garble into `lane` in one producer pass (0 = none): a
  // refill to the high watermark below the low one, and always enough
  // for the takers waiting on the lane, at most one per pool core.
  [[nodiscard]] std::size_t refill_batch(Lane lane);
  // More takes wait on `lane` than it has sessions ready.
  [[nodiscard]] bool lane_starved(Lane lane) const;
  void producer_loop();
  // Pops a session from `lane` via `take` (a spool take returning an
  // optional), waiting on the producer while the lane is empty.
  template <typename Take>
  auto take_blocking(Lane lane, Take take);
  // Loads the reusable artifact for this (fingerprint, bits) key from
  // the spool — or garbles it once and persists it — and builds the
  // serve context. Corrupt or unparseable blobs are destroyed and
  // replaced by a fresh garbling, never served.
  void ensure_reusable();

  EvBrokerConfig cfg_;
  circuit::Circuit circ_;
  gc::V3Analysis v3_an_;
  net::V3PoolRegistry v3_reg_;
  std::vector<std::vector<bool>> v3_g_bits_;
  net::ServerExpectation expect_;
  svc::SessionSpool spool_;
  core::GcCorePool pool_;
  EvServeContext serve_ctx_;
  std::vector<std::uint8_t> busy_reject_bytes_;

  std::optional<net::ReusableServeContext> reusable_ctx_;
  std::string reusable_key_;
  std::uint64_t reusable_garbles_ = 0;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint16_t port_ = 0;

  std::atomic<bool> stop_{false};
  std::atomic<bool> producer_stop_{false};
  std::atomic<std::uint64_t> sessions_served_total_{0};
  std::atomic<std::uint64_t> precomputed_{0};
  std::atomic<std::int64_t> open_conns_{0};
  std::atomic<std::size_t> lane_waiters_[kLanes]{};
  bool lane_filling_[kLanes]{};  // producer thread only

  std::mutex spool_mu_;
  std::condition_variable spool_cv_;

  mutable std::mutex stats_mu_;
  std::vector<ServerStats> shard_stats_;
  std::uint64_t admission_rejects_ = 0;
  double accept_wall_seconds_ = 0;

  svc::MetricsRegistry metrics_;
  // Hot-path gauges, resolved once (registry lookup takes a mutex).
  svc::Gauge* g_open_fds_ = nullptr;
  svc::Gauge* g_ready_depth_ = nullptr;
};

}  // namespace maxel::evloop
