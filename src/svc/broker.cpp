#include "svc/broker.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "crypto/rng.hpp"
#include "net/demo_inputs.hpp"
#include "proto/reusable_io.hpp"

namespace maxel::svc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// How long a rejected connection waits for the client's EOF before
// closing (see reject_connection). A well-behaved client hangs up
// within a round trip of reading the verdict, so the cap only binds
// against stuck peers.
constexpr int kRejectLingerMs = 500;

}  // namespace

std::string BrokerStats::to_json() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"role\":\"broker\",\"admission_rejects\":%llu,"
      "\"drain_rejects\":%llu,\"queue_depth\":%zu,"
      "\"spool\":{\"ready\":%zu,\"spooled\":%llu,\"claimed\":%llu,"
      "\"cache_hits\":%llu,\"cache_misses\":%llu,\"purged_on_open\":%llu,"
      "\"bytes_on_disk\":%llu,\"ready_v3\":%zu,\"v3_spooled\":%llu,"
      "\"v3_claimed\":%llu,\"v3_lineage_discarded\":%llu,"
      "\"reusable_ready\":%zu,\"reusable_spooled\":%llu,"
      "\"reusable_evaluations\":%llu,\"reusable_corrupt_discarded\":%llu},"
      "\"server\":",
      static_cast<unsigned long long>(admission_rejects),
      static_cast<unsigned long long>(drain_rejects), queue_depth,
      spool.sessions_ready,
      static_cast<unsigned long long>(spool.sessions_spooled),
      static_cast<unsigned long long>(spool.sessions_claimed),
      static_cast<unsigned long long>(spool.cache_hits),
      static_cast<unsigned long long>(spool.cache_misses),
      static_cast<unsigned long long>(spool.purged_on_open),
      static_cast<unsigned long long>(spool.bytes_on_disk),
      spool.sessions_ready_v3,
      static_cast<unsigned long long>(spool.v3_spooled),
      static_cast<unsigned long long>(spool.v3_claimed),
      static_cast<unsigned long long>(spool.v3_lineage_discarded),
      spool.reusable_ready,
      static_cast<unsigned long long>(spool.reusable_spooled),
      static_cast<unsigned long long>(spool.reusable_evaluations),
      static_cast<unsigned long long>(spool.reusable_corrupt_discarded));
  return std::string(buf) + server.to_json() + "}";
}

Broker::Broker(const BrokerConfig& cfg)
    : cfg_(cfg),
      circ_(circuit::make_mac_circuit(
          circuit::MacOptions{cfg.bits, cfg.bits, true})),
      v3_an_(gc::analyze_v3(circ_)),
      v3_reg_(crypto::SystemRandom().next_block()),
      listener_(cfg.port, cfg.bind_addr),
      spool_(SpoolConfig{cfg.spool_dir, cfg.ram_cache_sessions, true}),
      pool_(cfg.precompute_cores, crypto::SystemRandom().next_block()),
      worker_stats_(std::max<std::size_t>(1, cfg.workers)) {
  if (cfg_.idle_timeout_ms > 0) {
    cfg_.tcp.recv_timeout_ms = cfg_.idle_timeout_ms;
    cfg_.tcp.send_timeout_ms = cfg_.idle_timeout_ms;
  }
  if (!cfg_.fault_plan.empty())
    injector_ = std::make_shared<net::FaultInjector>(
        net::FaultPlan::parse(cfg_.fault_plan));
  expect_.scheme = cfg_.scheme;
  expect_.bit_width = static_cast<std::uint32_t>(cfg_.bits);
  expect_.circuit_hash = net::circuit_fingerprint(circ_);
  expect_.rounds_per_session =
      static_cast<std::uint32_t>(cfg_.rounds_per_session);
  expect_.allow_stream = cfg_.allow_stream;
  expect_.allow_v3 = cfg_.allow_v3;
  expect_.allow_reusable = cfg_.allow_v3 && cfg_.allow_reusable;
  // Demo garbler inputs are deterministic, so the producer can garble
  // v3 sessions ahead of time with the same rows every worker serves.
  net::DemoInputStream a_inputs(cfg_.demo_seed, net::kGarblerStream,
                                cfg_.bits);
  v3_g_bits_.resize(cfg_.rounds_per_session);
  for (auto& row : v3_g_bits_) row = a_inputs.next_bits();
  cfg_.workers = worker_stats_.size();
  if (cfg_.spool_high_watermark < cfg_.spool_low_watermark)
    cfg_.spool_high_watermark = cfg_.spool_low_watermark;
  if (expect_.allow_reusable) ensure_reusable();

  serve_ctx_.circ = &circ_;
  serve_ctx_.expect = expect_;
  serve_ctx_.reg = &v3_reg_;
  serve_ctx_.reusable = reusable_ctx_ ? &*reusable_ctx_ : nullptr;
  serve_ctx_.bits = cfg_.bits;
  serve_ctx_.rounds = cfg_.rounds_per_session;
  serve_ctx_.demo_seed = cfg_.demo_seed;
  serve_ctx_.scheme = cfg_.scheme;
  serve_ctx_.stream_chunk_rounds = cfg_.stream_chunk_rounds;
  serve_ctx_.take_session = [this] { return take_session_blocking(); };
  serve_ctx_.take_v3 = [this] { return take_v3_blocking(); };
}

void Broker::ensure_reusable() {
  reusable_key_ = reusable_artifact_key(expect_.circuit_hash, cfg_.bits);
  if (auto bytes = spool_.fetch_reusable(reusable_key_)) {
    try {
      gc::ReusableCircuit rc =
          proto::parse_reusable(bytes->data(), bytes->size());
      if (rc.view.fingerprint == expect_.circuit_hash &&
          rc.view.bit_width == cfg_.bits) {
        reusable_ctx_ = net::make_reusable_context(
            circ_, std::move(rc),
            static_cast<std::uint32_t>(cfg_.rounds_per_session),
            cfg_.demo_seed);
        metrics_.counter("reusable_artifact_loaded").inc();
        if (cfg_.verbose)
          std::fprintf(stderr,
                       "[broker] reusable artifact %s reloaded from spool "
                       "(%llu evaluations served so far)\n",
                       reusable_key_.c_str(),
                       static_cast<unsigned long long>(
                           spool_.stats().reusable_evaluations));
        return;
      }
      // Same key, different contents (should not happen; the key pins
      // the fingerprint) — treat like corruption and re-garble.
    } catch (const std::exception&) {
      // Checksum passed but the blob no longer parses: fall through to
      // a fresh garbling; put_reusable below replaces the bad file.
    }
  }
  crypto::SystemRandom garble_rng;
  gc::ReusableCircuit rc = net::garble_reusable(
      circ_, static_cast<std::uint32_t>(cfg_.bits), garble_rng);
  spool_.put_reusable(reusable_key_, proto::serialize_reusable(rc));
  reusable_ctx_ = net::make_reusable_context(
      circ_, std::move(rc),
      static_cast<std::uint32_t>(cfg_.rounds_per_session), cfg_.demo_seed);
  ++reusable_garbles_;
  metrics_.counter("reusable_garbles").inc();
  if (cfg_.verbose)
    std::fprintf(stderr, "[broker] garbled reusable artifact %s into spool\n",
                 reusable_key_.c_str());
}

Broker::~Broker() { request_stop(); }

void Broker::reject_connection(net::TcpChannel& ch, net::RejectCode code) {
  // Sent before reading the hello: the verdict must not depend on
  // parsing anything the client queued. Best effort — a peer that
  // already hung up only costs us the exception.
  try {
    net::send_accept(ch, net::ServerAccept{
                             code, 0,
                             code == net::RejectCode::kServerBusy
                                 ? "admission queue full, retry later"
                                 : "broker is draining"});
  } catch (const net::NetError&) {
  }
  // The client's hello is still unread on this socket; a plain close
  // would reset the connection and the reset can destroy the verdict we
  // just sent before the client reads it. Linger until the client's EOF
  // (it hangs up as soon as it has the verdict), bounded so a stuck
  // peer cannot stall admission or drain.
  ch.linger_close(kRejectLingerMs);
}

proto::PrecomputedSession Broker::take_session_blocking() {
  for (;;) {
    if (auto s = spool_.take()) {
      metrics_.gauge("spool_ready").set(
          static_cast<std::int64_t>(spool_.ready()));
      spool_cv_.notify_all();  // the producer may want to refill now
      return std::move(*s);
    }
    if (producer_stop_.load(std::memory_order_relaxed))
      throw net::NetError("broker stopping: spool drained");
    metrics_.counter("spool_empty_waits").inc();
    std::unique_lock<std::mutex> lock(spool_mu_);
    spool_cv_.wait_for(lock, std::chrono::milliseconds(20));
  }
}

proto::PrecomputedSessionV3 Broker::take_v3_blocking() {
  for (;;) {
    if (auto s = spool_.take_v3(v3_reg_.lineage())) {
      metrics_.gauge("spool_ready_v3").set(
          static_cast<std::int64_t>(spool_.ready_v3()));
      spool_cv_.notify_all();  // the producer may want to refill now
      return std::move(*s);
    }
    if (producer_stop_.load(std::memory_order_relaxed))
      throw net::NetError("broker stopping: spool drained");
    metrics_.counter("spool_empty_waits").inc();
    std::unique_lock<std::mutex> lock(spool_mu_);
    spool_cv_.wait_for(lock, std::chrono::milliseconds(20));
  }
}

void Broker::producer_loop() {
  while (!producer_stop_.load(std::memory_order_relaxed)) {
    const std::size_t ready = spool_.ready();
    // When the v3 lane is disabled, report it as full so only the v2
    // watermark drives refills.
    const std::size_t ready_v3 =
        cfg_.allow_v3 ? spool_.ready_v3() : cfg_.spool_high_watermark;
    if (ready >= cfg_.spool_low_watermark &&
        ready_v3 >= cfg_.spool_low_watermark) {
      std::unique_lock<std::mutex> lock(spool_mu_);
      spool_cv_.wait_for(lock, std::chrono::milliseconds(50));
      continue;
    }
    if (ready < cfg_.spool_low_watermark) {
      const std::size_t batch = cfg_.spool_high_watermark - ready;
      std::vector<proto::PrecomputedSession> fresh(batch);
      pool_.parallel_for(batch, [&](std::size_t item, std::size_t core) {
        fresh[item] = proto::garble_session(circ_, cfg_.scheme,
                                            cfg_.rounds_per_session,
                                            pool_.core_rng(core));
      });
      for (auto& s : fresh) spool_.put(std::move(s));
      precomputed_.fetch_add(batch, std::memory_order_relaxed);
      metrics_.gauge("spool_ready").set(
          static_cast<std::int64_t>(spool_.ready()));
    }
    if (ready_v3 < cfg_.spool_low_watermark) {
      // v3 sessions are bound to the registry's garbling delta; the
      // lineage recorded by put_v3 lets a future broker on this spool
      // dir burn them instead of serving under the wrong correlation.
      const std::size_t batch = cfg_.spool_high_watermark - ready_v3;
      std::vector<proto::PrecomputedSessionV3> fresh(batch);
      pool_.parallel_for(batch, [&](std::size_t item, std::size_t core) {
        auto& rng = pool_.core_rng(core);
        fresh[item] = proto::garble_session_v3(circ_, v3_an_, v3_g_bits_,
                                               v3_reg_.delta(),
                                               rng.next_block(), rng);
      });
      for (auto& s : fresh) spool_.put_v3(s);
      precomputed_.fetch_add(batch, std::memory_order_relaxed);
      metrics_.gauge("spool_ready_v3").set(
          static_cast<std::int64_t>(spool_.ready_v3()));
    }
    spool_cv_.notify_all();
  }
}

net::ServerStats record_session(MetricsRegistry& metrics,
                                const evloop::EvSession& s,
                                bool evicted_idle) {
  net::ServerStats local = s.stats();
  if (s.done()) {
    metrics.histogram("handshake_seconds").observe(local.handshake_seconds);
    metrics.histogram("transfer_seconds").observe(local.transfer_seconds);
    metrics.histogram("ot_seconds").observe(local.ot_seconds);
    metrics.histogram("session_seconds").observe(s.session_seconds());
    metrics.counter("sessions_served").inc();
    metrics.counter("rounds_served").inc(local.rounds_served);
    if (local.stream_sessions_served != 0) {
      metrics.counter("stream_sessions_served").inc();
      metrics.histogram("first_table_seconds")
          .observe(local.first_table_seconds);
    }
    if (local.v3_sessions_served != 0)
      metrics.counter("v3_sessions_served").inc();
    if (local.reusable_sessions_served != 0)
      metrics.counter("reusable_sessions_served").inc();
    // Service-wide high-water mark of garbled tables resident for any
    // one session (whole session precomputed, one chunk streamed).
    auto& peak = metrics.gauge("peak_resident_tables");
    if (static_cast<std::int64_t>(local.peak_resident_tables) > peak.value())
      peak.set(static_cast<std::int64_t>(local.peak_resident_tables));
    // Per-direction wire accounting, split by session mode so a fleet
    // can read the v2->v3 bandwidth win straight off `maxelctl stats`.
    const std::string mode = s.mode_name();
    metrics.counter("net_tx_bytes_" + mode).inc(local.bytes_sent);
    metrics.counter("net_rx_bytes_" + mode).inc(local.bytes_received);
    return local;
  }
  switch (evicted_idle ? evloop::EvError::kTimeout : s.error()) {
    case evloop::EvError::kHandshake:
      ++local.handshakes_rejected;
      metrics.counter("handshakes_rejected").inc();
      break;
    case evloop::EvError::kTimeout:
      // The client went silent or stopped draining; its session is
      // abandoned so it cannot pin a worker or a connection slot.
      ++local.idle_timeouts;
      ++local.connection_errors;
      metrics.counter("idle_timeouts").inc();
      metrics.counter("connection_errors").inc();
      break;
    case evloop::EvError::kPeerClosed:
      // Mid-session hangup — the signature a crashing or retrying
      // client leaves behind; tracked separately so fleets can tell
      // churn from protocol errors.
      ++local.connection_errors;
      metrics.counter("peer_disconnects").inc();
      metrics.counter("connection_errors").inc();
      break;
    default:
      ++local.connection_errors;
      metrics.counter("connection_errors").inc();
      break;
  }
  return local;
}

void Broker::serve_connection(proto::Channel& ch, std::size_t worker) {
  evloop::EvSession session(serve_ctx_, ch);
  session.serve_blocking();
  const net::ServerStats local = record_session(metrics_, session);
  if (session.done()) {
    // The persisted evaluation counter is what `maxelctl spool` reports
    // per reusable artifact.
    if (local.reusable_sessions_served != 0)
      spool_.add_reusable_evaluations(reusable_key_,
                                      cfg_.rounds_per_session);
    const std::uint64_t total =
        sessions_served_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (cfg_.verbose)
      std::fprintf(stderr,
                   "[broker] worker %zu served session %llu (%s): %zu rounds, "
                   "%llu B out, transfer %.3fs, ot %.3fs\n",
                   worker, static_cast<unsigned long long>(total),
                   session.mode_name(), cfg_.rounds_per_session,
                   static_cast<unsigned long long>(local.bytes_sent),
                   local.transfer_seconds, local.ot_seconds);
    if (cfg_.max_sessions != 0 && total >= cfg_.max_sessions) request_stop();
  } else if (cfg_.verbose) {
    std::fprintf(stderr, "[broker] worker %zu session failed: %s\n", worker,
                 session.error_text().c_str());
  }
  if (injector_)
    metrics_.gauge("faults_injected")
        .set(static_cast<std::int64_t>(injector_->faults_fired()));
  const std::lock_guard<std::mutex> lock(stats_mu_);
  worker_stats_[worker].merge(local);
}

void Broker::worker_loop(std::size_t worker) {
  for (;;) {
    std::unique_ptr<net::TcpChannel> ch;
    bool draining = false;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return !queue_.empty() || queue_closed_; });
      if (queue_.empty()) return;  // closed and drained: worker exits
      ch = std::move(queue_.front());
      queue_.pop_front();
      metrics_.gauge("queue_depth").set(
          static_cast<std::int64_t>(queue_.size()));
      // A connection popped after stop was requested never became
      // in-flight; it gets the typed drain reject instead of a session.
      draining = queue_closed_ || stop_.load(std::memory_order_relaxed);
    }
    if (draining) {
      reject_connection(*ch, net::RejectCode::kShuttingDown);
      metrics_.counter("drain_rejects").inc();
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++drain_rejects_;
      continue;
    }
    std::unique_ptr<proto::Channel> link = std::move(ch);
    if (injector_)
      link = std::make_unique<net::FaultyChannel>(std::move(link), injector_);
    serve_connection(*link, worker);
  }
}

void Broker::run() {
  const auto t0 = Clock::now();
  producer_stop_.store(false, std::memory_order_relaxed);

  std::thread producer([this] { producer_loop(); });
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < cfg_.workers; ++w)
    workers.emplace_back([this, w] { worker_loop(w); });

  while (!stop_.load(std::memory_order_relaxed)) {
    std::unique_ptr<net::TcpChannel> ch;
    try {
      ch = listener_.accept(cfg_.accept_poll_ms, cfg_.tcp);
    } catch (const net::NetError&) {
      break;  // listener closed under us
    }
    if (!ch) continue;  // poll timeout: recheck the stop flag
    bool rejected = false;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      if (queue_.size() >= cfg_.admission_queue) {
        rejected = true;
      } else {
        queue_.push_back(std::move(ch));
        metrics_.gauge("queue_depth").set(
            static_cast<std::int64_t>(queue_.size()));
      }
    }
    if (rejected) {
      reject_connection(*ch, net::RejectCode::kServerBusy);
      metrics_.counter("admission_rejects").inc();
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++admission_rejects_;
    } else {
      queue_cv_.notify_one();
    }
  }

  // Graceful drain: no new connections, in-flight sessions complete,
  // queued leftovers get the typed shutdown reject from the workers.
  request_stop();
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers) w.join();

  // The producer outlives the workers so an in-flight session that
  // still needed a spool refill during drain could get one.
  producer_stop_.store(true, std::memory_order_relaxed);
  spool_cv_.notify_all();
  producer.join();

  const std::lock_guard<std::mutex> lock(stats_mu_);
  accept_wall_seconds_ += seconds_since(t0);
}

BrokerStats Broker::stats() const {
  BrokerStats st;
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    for (const auto& ws : worker_stats_) st.server.merge(ws);
    st.admission_rejects = admission_rejects_;
    st.drain_rejects = drain_rejects_;
    st.server.total_seconds = accept_wall_seconds_;
  }
  st.server.reusable_garbles += reusable_garbles_;
  st.server.sessions_precomputed =
      precomputed_.load(std::memory_order_relaxed);
  st.spool = spool_.stats();
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    st.queue_depth = queue_.size();
  }
  return st;
}

}  // namespace maxel::svc
