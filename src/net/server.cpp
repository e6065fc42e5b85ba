#include "net/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "evloop/session.hpp"
#include "net/demo_inputs.hpp"

namespace maxel::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

circuit::Circuit make_service_circuit(std::size_t bits) {
  return circuit::make_mac_circuit(circuit::MacOptions{bits, bits, true});
}

}  // namespace

void ServerStats::merge(const ServerStats& other) {
  sessions_served += other.sessions_served;
  rounds_served += other.rounds_served;
  handshakes_rejected += other.handshakes_rejected;
  connection_errors += other.connection_errors;
  idle_timeouts += other.idle_timeouts;
  bytes_sent += other.bytes_sent;
  bytes_received += other.bytes_received;
  sessions_precomputed += other.sessions_precomputed;
  stream_sessions_served += other.stream_sessions_served;
  v3_sessions_served += other.v3_sessions_served;
  reusable_sessions_served += other.reusable_sessions_served;
  reusable_artifacts_sent += other.reusable_artifacts_sent;
  reusable_garbles += other.reusable_garbles;
  v3_fresh_pools += other.v3_fresh_pools;
  v3_ot_extended += other.v3_ot_extended;
  peak_resident_tables = std::max(peak_resident_tables,
                                  other.peak_resident_tables);
  handshake_seconds += other.handshake_seconds;
  transfer_seconds += other.transfer_seconds;
  ot_seconds += other.ot_seconds;
  first_table_seconds += other.first_table_seconds;
  total_seconds += other.total_seconds;
}

std::string ServerStats::to_json() const {
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "{\"role\":\"server\",\"sessions_served\":%llu,\"rounds_served\":%llu,"
      "\"handshakes_rejected\":%llu,\"connection_errors\":%llu,"
      "\"idle_timeouts\":%llu,"
      "\"bytes_sent\":%llu,\"bytes_received\":%llu,"
      "\"sessions_precomputed\":%llu,\"stream_sessions_served\":%llu,"
      "\"v3_sessions_served\":%llu,"
      "\"reusable_sessions_served\":%llu,\"reusable_artifacts_sent\":%llu,"
      "\"reusable_garbles\":%llu,"
      "\"v3_fresh_pools\":%llu,"
      "\"v3_ot_extended\":%llu,"
      "\"peak_resident_tables\":%llu,\"handshake_seconds\":%.6f,"
      "\"transfer_seconds\":%.6f,\"ot_seconds\":%.6f,"
      "\"first_table_seconds\":%.6f,\"total_seconds\":%.6f}",
      static_cast<unsigned long long>(sessions_served),
      static_cast<unsigned long long>(rounds_served),
      static_cast<unsigned long long>(handshakes_rejected),
      static_cast<unsigned long long>(connection_errors),
      static_cast<unsigned long long>(idle_timeouts),
      static_cast<unsigned long long>(bytes_sent),
      static_cast<unsigned long long>(bytes_received),
      static_cast<unsigned long long>(sessions_precomputed),
      static_cast<unsigned long long>(stream_sessions_served),
      static_cast<unsigned long long>(v3_sessions_served),
      static_cast<unsigned long long>(reusable_sessions_served),
      static_cast<unsigned long long>(reusable_artifacts_sent),
      static_cast<unsigned long long>(reusable_garbles),
      static_cast<unsigned long long>(v3_fresh_pools),
      static_cast<unsigned long long>(v3_ot_extended),
      static_cast<unsigned long long>(peak_resident_tables),
      handshake_seconds, transfer_seconds, ot_seconds, first_table_seconds,
      total_seconds);
  return buf;
}

Server::Server(const ServerConfig& cfg)
    : cfg_(cfg),
      circ_(make_service_circuit(cfg.bits)),
      v3_an_(gc::analyze_v3(circ_)),
      v3_reg_(crypto::SystemRandom().next_block()),
      listener_(cfg.port, cfg.bind_addr),
      pool_(cfg.precompute_cores, crypto::SystemRandom().next_block()),
      bank_(circ_, cfg.scheme, cfg.rounds_per_session) {
  if (cfg_.idle_timeout_ms > 0) {
    cfg_.tcp.recv_timeout_ms = cfg_.idle_timeout_ms;
    cfg_.tcp.send_timeout_ms = cfg_.idle_timeout_ms;
  }
  if (!cfg_.fault_plan.empty())
    injector_ = std::make_shared<FaultInjector>(
        FaultPlan::parse(cfg_.fault_plan));
  expect_.scheme = cfg.scheme;
  expect_.bit_width = static_cast<std::uint32_t>(cfg.bits);
  expect_.circuit_hash = circuit_fingerprint(circ_);
  expect_.rounds_per_session =
      static_cast<std::uint32_t>(cfg.rounds_per_session);
  expect_.allow_stream = cfg.allow_stream;
  expect_.allow_v3 = cfg.allow_v3;
  expect_.allow_reusable = cfg.allow_v3 && cfg.allow_reusable;
  if (expect_.allow_reusable) {
    // Garble once, up front: every reusable session this server ever
    // serves runs off this artifact.
    crypto::SystemRandom garble_rng;
    reusable_ctx_ = make_reusable_context(
        circ_,
        garble_reusable(circ_, static_cast<std::uint32_t>(cfg.bits),
                        garble_rng),
        static_cast<std::uint32_t>(cfg.rounds_per_session), cfg.demo_seed);
    ++stats_.reusable_garbles;
  }
  DemoInputStream a_inputs(cfg.demo_seed, kGarblerStream, cfg.bits);
  v3_g_bits_.resize(cfg.rounds_per_session);
  for (auto& row : v3_g_bits_) row = a_inputs.next_bits();

  serve_ctx_ = std::make_unique<evloop::EvServeContext>();
  serve_ctx_->circ = &circ_;
  serve_ctx_->expect = expect_;
  serve_ctx_->reg = &v3_reg_;
  serve_ctx_->reusable = reusable_ctx_ ? &*reusable_ctx_ : nullptr;
  serve_ctx_->bits = cfg.bits;
  serve_ctx_->rounds = cfg.rounds_per_session;
  serve_ctx_->demo_seed = cfg.demo_seed;
  serve_ctx_->scheme = cfg.scheme;
  serve_ctx_->stream_chunk_rounds = cfg.stream_chunk_rounds;
  serve_ctx_->take_session = [this] { return take_session(); };
  // v3 sessions are garbled inline at serve time: the slim material is
  // ~40% of the v2 tables and the demo garbler inputs are known, so the
  // bank (sized for v2 sessions) is bypassed. The garbling delta must be
  // the pool correlation secret, which lives in the registry.
  serve_ctx_->take_v3 = [this] {
    return proto::garble_session_v3(circ_, v3_an_, v3_g_bits_,
                                    v3_reg_.delta(), rng_.next_block(),
                                    rng_);
  };
  precompute_thread_ = std::thread([this] { precompute_loop(); });
}

ServerStats Server::stats() const {
  const std::lock_guard<std::mutex> lock(bank_mu_);
  return stats_;
}

Server::~Server() {
  request_stop();
  if (precompute_thread_.joinable()) precompute_thread_.join();
}

void Server::precompute_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock<std::mutex> lock(bank_mu_);
      if (bank_.stats().sessions_ready >= cfg_.bank_low_watermark) {
        // Poll (rather than wait on a notify) so request_stop() stays a
        // plain atomic store — callable from a signal handler.
        bank_cv_.wait_for(lock, std::chrono::milliseconds(100));
        continue;
      }
    }
    // Garble outside the lock: one GC core per session, each on its own
    // deterministic per-core RNG stream.
    const std::size_t batch = std::max<std::size_t>(1, cfg_.bank_batch);
    std::vector<proto::PrecomputedSession> fresh(batch);
    pool_.parallel_for(batch, [&](std::size_t item, std::size_t core) {
      fresh[item] = proto::garble_session(circ_, cfg_.scheme,
                                          cfg_.rounds_per_session,
                                          pool_.core_rng(core));
    });
    {
      const std::lock_guard<std::mutex> lock(bank_mu_);
      for (auto& s : fresh) bank_.add_session(std::move(s));
      stats_.sessions_precomputed += batch;
    }
    bank_cv_.notify_all();
  }
}

proto::PrecomputedSession Server::take_session() {
  std::unique_lock<std::mutex> lock(bank_mu_);
  while (bank_.stats().sessions_ready == 0) {
    if (stop_.load(std::memory_order_relaxed))
      throw NetError("server stopping");
    bank_cv_.wait_for(lock, std::chrono::milliseconds(100));
  }
  return bank_.take_session();
}

void Server::handle_connection(proto::Channel& ch) {
  evloop::EvSession session(*serve_ctx_, ch);
  session.serve_blocking();
  const ServerStats& st = session.stats();
  std::uint64_t session_no;
  {
    const std::lock_guard<std::mutex> lock(bank_mu_);
    stats_.merge(st);
    switch (session.error()) {
      case evloop::EvError::kNone:
        break;
      case evloop::EvError::kHandshake:
        ++stats_.handshakes_rejected;
        break;
      case evloop::EvError::kTimeout:
        // A silent or non-draining client hit the idle deadline; the
        // session is abandoned and the serve loop moves on.
        ++stats_.idle_timeouts;
        ++stats_.connection_errors;
        break;
      default:
        ++stats_.connection_errors;
        break;
    }
    session_no = stats_.sessions_served;
  }
  if (!cfg_.verbose) return;
  if (session.failed())
    std::fprintf(stderr, "[maxel_server] session failed: %s\n",
                 session.error_text().c_str());
  else
    std::fprintf(stderr,
                 "[maxel_server] session %llu (%s): %zu rounds, %llu B out / "
                 "%llu B in, transfer %.3fs, ot %.3fs\n",
                 static_cast<unsigned long long>(session_no),
                 session.mode_name(), cfg_.rounds_per_session,
                 static_cast<unsigned long long>(st.bytes_sent),
                 static_cast<unsigned long long>(st.bytes_received),
                 st.transfer_seconds, st.ot_seconds);
}

void Server::serve() {
  const auto t0 = Clock::now();
  while (!stop_.load(std::memory_order_relaxed) &&
         (cfg_.max_sessions == 0 ||
          stats_.sessions_served < cfg_.max_sessions)) {
    std::unique_ptr<TcpChannel> accepted;
    try {
      accepted = listener_.accept(cfg_.accept_poll_ms, cfg_.tcp);
    } catch (const NetError&) {
      break;  // listener closed under us
    }
    if (!accepted) continue;  // poll timeout: recheck stop/max
    std::unique_ptr<proto::Channel> ch = std::move(accepted);
    if (injector_)
      ch = std::make_unique<FaultyChannel>(std::move(ch), injector_);
    handle_connection(*ch);
  }
  const std::lock_guard<std::mutex> lock(bank_mu_);
  stats_.total_seconds += seconds_since(t0);
}

}  // namespace maxel::net
