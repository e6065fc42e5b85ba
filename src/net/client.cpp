#include "net/client.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "circuit/circuits.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "net/demo_inputs.hpp"
#include "net/fault.hpp"
#include "net/reusable_service.hpp"
#include "ot/base_ot.hpp"
#include "ot/iknp.hpp"
#include "proto/chunk_io.hpp"
#include "proto/round_io.hpp"

namespace maxel::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

std::uint64_t retry_backoff_ms(const SessionRetryPolicy& policy, int attempt) {
  const int shift = std::min(std::max(attempt, 1) - 1, 20);
  const double base =
      std::min<double>(static_cast<double>(std::max(0, policy.backoff_max_ms)),
                       static_cast<double>(std::max(1, policy.backoff_ms)) *
                           static_cast<double>(1u << shift));
  // Jitter in [-jitter_pct, +jitter_pct] percent from the seeded mixer,
  // so a logged seed replays the exact same wait schedule.
  const std::uint64_t h =
      fault_mix64(policy.jitter_seed ^
                  (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(attempt)));
  const double frac = static_cast<double>(h % 2001) / 1000.0 - 1.0;  // [-1,1]
  const double pct = static_cast<double>(policy.jitter_pct) / 100.0;
  return static_cast<std::uint64_t>(std::max(0.0, base * (1.0 + frac * pct)));
}

std::string ClientStats::to_json() const {
  char buf[1152];
  std::snprintf(
      buf, sizeof(buf),
      "{\"role\":\"client\",\"rounds\":%u,\"bytes_sent\":%llu,"
      "\"bytes_received\":%llu,\"output_value\":%llu,\"checked\":%s,"
      "\"verified\":%s,\"working_set_bytes\":%zu,\"chunks_received\":%llu,"
      "\"protocol_used\":%u,\"setup_bytes\":%llu,\"pool_resumed\":%s,"
      "\"attempts\":%u,\"retry_wait_ms\":%llu,"
      "\"handshake_seconds\":%.6f,\"transfer_seconds\":%.6f,"
      "\"ot_seconds\":%.6f,\"eval_seconds\":%.6f,"
      "\"first_table_seconds\":%.6f,\"total_seconds\":%.6f}",
      rounds, static_cast<unsigned long long>(bytes_sent),
      static_cast<unsigned long long>(bytes_received),
      static_cast<unsigned long long>(output_value),
      checked ? "true" : "false", verified ? "true" : "false",
      working_set_bytes, static_cast<unsigned long long>(chunks_received),
      protocol_used, static_cast<unsigned long long>(setup_bytes),
      pool_resumed ? "true" : "false", attempts,
      static_cast<unsigned long long>(retry_wait_ms), handshake_seconds,
      transfer_seconds, ot_seconds, eval_seconds, first_table_seconds,
      total_seconds);
  return buf;
}

namespace {

std::unique_ptr<proto::Channel> make_channel(
    const ClientConfig& cfg, const std::shared_ptr<FaultInjector>& injector) {
  if (cfg.channel_factory) return cfg.channel_factory();
  if (injector && injector->on_connect())
    throw ConnectError("fault: injected connect refusal");
  std::unique_ptr<proto::Channel> base =
      TcpChannel::connect(cfg.host, cfg.port, cfg.tcp);
  if (injector)
    return std::make_unique<FaultyChannel>(std::move(base), injector);
  return base;
}

// The hello every attempt opens with; `mode` is the session mode asked for.
ClientHello make_hello(const ClientConfig& cfg, const circuit::Circuit& circ,
                       SessionMode mode) {
  ClientHello hello;
  hello.scheme = static_cast<std::uint8_t>(cfg.scheme);
  hello.ot = static_cast<std::uint8_t>(cfg.ot);
  hello.mode = static_cast<std::uint8_t>(mode);
  hello.bit_width = static_cast<std::uint32_t>(cfg.bits);
  hello.rounds = cfg.rounds_hint;
  hello.circuit_hash = circuit_fingerprint(circ);
  return hello;
}

// The v3 hello extension: this client's identity and resumption ticket.
HelloExtV3 make_hello_ext(const V3ClientState& st) {
  HelloExtV3 ext;
  ext.client_id = st.client_id;
  ext.has_ticket = st.ticket.has_value();
  if (st.ticket) ext.ticket = *st.ticket;
  return ext;
}

// The epilogue every attempt shares: the decoded output, its check
// against the plaintext reference, the byte counts and the wall time.
void finish_stats(const ClientConfig& cfg, const proto::Channel& ch,
                  const std::vector<bool>& decoded, Clock::time_point t_total,
                  ClientStats& stats) {
  stats.output_value = circuit::from_bits(decoded);
  if (cfg.check) {
    stats.checked = true;
    stats.verified = stats.output_value == demo_mac_reference(cfg.demo_seed,
                                                              cfg.bits,
                                                              stats.rounds);
  }
  stats.bytes_sent = ch.bytes_sent();
  stats.bytes_received = ch.bytes_received();
  stats.total_seconds = seconds_since(t_total);
}

// One protocol-v3 session attempt: slim wire format, input labels from
// the cross-session OT pool in `st`. Throws HandshakeError with
// kVersionMismatch when the server only speaks v2 (the caller falls
// back); any other failure follows the usual retry path — the pool
// state survives, so a retried session resumes instead of redoing the
// base OT.
ClientStats run_v3_attempt(const ClientConfig& cfg,
                           const std::shared_ptr<FaultInjector>& injector,
                           V3ClientState& st, bool final_attempt) {
  const auto t_total = Clock::now();
  const circuit::Circuit circ =
      circuit::make_mac_circuit(circuit::MacOptions{cfg.bits, cfg.bits, true});
  const gc::V3Analysis an = gc::analyze_v3(circ);
  std::unique_ptr<proto::Channel> ch = make_channel(cfg, injector);

  ClientStats stats;
  stats.protocol_used = kProtocolVersionV3;
  {
    const auto t0 = Clock::now();
    try {
      stats.rounds = client_handshake_v3(
          *ch, make_hello(cfg, circ, SessionMode::kPrecomputed),
          make_hello_ext(st));
      st.handshake_close_streak = 0;
    } catch (const HandshakeError&) {
      st.handshake_close_streak = 0;  // a typed reject is a verdict too
      throw;
    } catch (const PeerClosedError& e) {
      // A v2-only server rejects after the 56-byte hello and closes with
      // the v3 extension frame still unread; the resulting TCP reset can
      // destroy the in-flight version-mismatch reject before we read it.
      // A single bare close is ambiguous with a transient fault, so the
      // first one follows the normal retry path (staying on v3); a
      // second consecutive one reads as a deterministic pre-v3 server
      // and becomes the version-mismatch fallback. With no retry budget
      // left to disambiguate, fall back right away — a v2 session beats
      // an error. A genuinely dead peer still surfaces either way: the
      // v2 redial re-probes it.
      if (++st.handshake_close_streak >= 2 || final_attempt)
        throw HandshakeError(RejectCode::kVersionMismatch,
                             std::string("connection closed during v3 "
                                         "handshake twice (pre-v3 "
                                         "server?): ") +
                                 e.what());
      throw;
    }
    stats.handshake_seconds = seconds_since(t0);
  }

  DemoInputStream x_inputs(cfg.demo_seed, kEvaluatorStream, cfg.bits);
  std::vector<std::vector<bool>> e_bits(stats.rounds);
  for (auto& row : e_bits) row = x_inputs.next_bits();

  crypto::SystemRandom rng;
  const auto t0 = Clock::now();
  const V3EvalOutcome out = eval_v3_session(*ch, circ, an, e_bits, st, rng);
  stats.eval_seconds = seconds_since(t0);
  stats.first_table_seconds = seconds_since(t_total);

  stats.setup_bytes = out.setup_bytes;
  stats.pool_resumed = !out.fresh_pool;
  finish_stats(cfg, *ch, out.decoded, t_total, stats);

  if (cfg.verbose)
    std::fprintf(stderr,
                 "[maxel_client] v3 (%s), %u rounds, %llu B in / %llu B out, "
                 "setup %llu B%s\n",
                 stats.pool_resumed ? "resumed pool" : "fresh pool",
                 stats.rounds,
                 static_cast<unsigned long long>(stats.bytes_received),
                 static_cast<unsigned long long>(stats.bytes_sent),
                 static_cast<unsigned long long>(stats.setup_bytes),
                 stats.checked ? (stats.verified ? ", VERIFIED" : ", MISMATCH")
                               : "");
  return stats;
}

// One reusable-mode session attempt: v3 hello with mode kReusable, the
// artifact view cached across attempts/sessions in `st`, inputs through
// the shared OT pool, all rounds evaluated locally off the plaintext
// masked tables. There is no v2 equivalent to fall back to: a
// kVersionMismatch (or any other reject) surfaces to the caller.
ClientStats run_reusable_attempt(const ClientConfig& cfg,
                                 const std::shared_ptr<FaultInjector>& injector,
                                 V3ClientState& st) {
  const auto t_total = Clock::now();
  const circuit::Circuit circ =
      circuit::make_mac_circuit(circuit::MacOptions{cfg.bits, cfg.bits, true});
  std::unique_ptr<proto::Channel> ch = make_channel(cfg, injector);

  ClientStats stats;
  stats.protocol_used = kProtocolVersionV3;
  {
    const auto t0 = Clock::now();
    stats.rounds = client_handshake_v3(
        *ch, make_hello(cfg, circ, SessionMode::kReusable), make_hello_ext(st));
    stats.handshake_seconds = seconds_since(t0);
  }

  DemoInputStream x_inputs(cfg.demo_seed, kEvaluatorStream, cfg.bits);
  std::vector<std::vector<bool>> e_bits(stats.rounds);
  for (auto& row : e_bits) row = x_inputs.next_bits();

  crypto::SystemRandom rng;
  const auto t0 = Clock::now();
  const ReusableEvalOutcome out =
      eval_reusable_session(*ch, circ, e_bits, st, rng);
  stats.eval_seconds = seconds_since(t0);
  stats.first_table_seconds = seconds_since(t_total);

  stats.setup_bytes = out.setup_bytes;
  stats.pool_resumed = !out.fresh_pool;
  finish_stats(cfg, *ch, out.decoded, t_total, stats);

  if (cfg.verbose)
    std::fprintf(stderr,
                 "[maxel_client] reusable (%s, %s), %u rounds, "
                 "%llu B in / %llu B out, setup %llu B%s\n",
                 stats.pool_resumed ? "resumed pool" : "fresh pool",
                 out.artifact_received ? "artifact received"
                                       : "artifact cached",
                 stats.rounds,
                 static_cast<unsigned long long>(stats.bytes_received),
                 static_cast<unsigned long long>(stats.bytes_sent),
                 static_cast<unsigned long long>(stats.setup_bytes),
                 stats.checked ? (stats.verified ? ", VERIFIED" : ", MISMATCH")
                               : "");
  return stats;
}

// One complete session attempt: fresh channel, fresh handshake, fresh
// OT state, fresh evaluator. Throws on any failure; run_client maps
// non-NetError escapes (parse/eval blowups from corrupted-but-framed
// bytes) to the typed, retryable CorruptionError.
ClientStats run_session_attempt(const ClientConfig& cfg,
                                const std::shared_ptr<FaultInjector>& injector,
                                V3ClientState* v3_state, bool final_attempt) {
  if (cfg.mode == SessionMode::kReusable) {
    if (!v3_state)
      throw std::logic_error("reusable mode requires v3 client state");
    return run_reusable_attempt(cfg, injector, *v3_state);
  }
  // Prefer v3 when configured (precomputed mode only — v3 subsumes the
  // per-round flow). A v2-only server rejects the v3 hello with
  // kVersionMismatch; redial the same attempt with a v2 hello so old
  // servers keep working unchanged.
  if (v3_state && cfg.protocol >= kProtocolVersionV3 &&
      cfg.mode == SessionMode::kPrecomputed) {
    try {
      return run_v3_attempt(cfg, injector, *v3_state, final_attempt);
    } catch (const HandshakeError& e) {
      if (e.code() != RejectCode::kVersionMismatch) throw;
      if (cfg.verbose)
        std::fprintf(stderr,
                     "[maxel_client] server only speaks protocol v2 (%s); "
                     "redialing with a v2 hello\n",
                     e.what());
    }
  }

  const auto t_total = Clock::now();
  const circuit::Circuit circ =
      circuit::make_mac_circuit(circuit::MacOptions{cfg.bits, cfg.bits, true});

  std::unique_ptr<proto::Channel> ch = make_channel(cfg, injector);

  ClientStats stats;
  stats.protocol_used = kProtocolVersion;
  {
    const auto t0 = Clock::now();
    stats.rounds = client_handshake(*ch, make_hello(cfg, circ, cfg.mode));
    stats.handshake_seconds = seconds_since(t0);
  }

  crypto::SystemRandom rng;
  std::unique_ptr<ot::BaseOtReceiver> base_ot;
  std::unique_ptr<ot::IknpReceiver> iknp;
  ot::OtReceiver* ot = nullptr;
  if (cfg.ot == proto::OtMode::kIknp) {
    iknp = std::make_unique<ot::IknpReceiver>(*ch, rng);
    const auto t0 = Clock::now();
    iknp->setup_step1();
    iknp->setup_step3();
    stats.ot_seconds += seconds_since(t0);
    ot = iknp.get();
  } else {
    base_ot = std::make_unique<ot::BaseOtReceiver>(*ch, rng);
    ot = base_ot.get();
  }

  gc::CircuitEvaluator evaluator(circ, cfg.scheme, gc::LabelLayout::kPlanned);
  stats.working_set_bytes = evaluator.label_buffer_bytes();

  // Round material arrives as one v2 round record per round, or in
  // stream mode as chunk frames of several rounds (proto::chunk_io);
  // either way each round then runs OT, eval, decode.
  DemoInputStream x_inputs(cfg.demo_seed, kEvaluatorStream, cfg.bits);
  std::vector<proto::WireRound> received;
  std::size_t next = 0;  // first received round not yet evaluated
  std::vector<bool> decoded;
  for (std::uint32_t r = 0; r < stats.rounds; ++r) {
    if (next == received.size()) {
      const auto t0 = Clock::now();
      std::vector<crypto::Block> state;
      received.clear();
      next = 0;
      if (cfg.mode == SessionMode::kStream) {
        proto::WireChunk wc = proto::recv_chunk(*ch);
        if (wc.scheme != cfg.scheme)
          throw NetError("stream chunk: scheme mismatch");
        if (wc.first_round != r || wc.rounds.empty() ||
            r + wc.rounds.size() > stats.rounds)
          throw NetError("stream chunk: rounds out of order or overrun");
        received = std::move(wc.rounds);
        state = std::move(wc.initial_state_labels);
        ++stats.chunks_received;
      } else {
        received.push_back(proto::recv_round(*ch, circ, cfg.scheme,
                                             r == 0 ? &state : nullptr));
      }
      stats.transfer_seconds += seconds_since(t0);
      if (r == 0) {
        stats.first_table_seconds = seconds_since(t_total);
        evaluator.set_initial_state_labels(std::move(state));
      }
    }

    auto t0 = Clock::now();
    ot->recv_phase1(x_inputs.next_bits());
    const std::vector<crypto::Block> my_labels = ot->recv_phase2();
    stats.ot_seconds += seconds_since(t0);

    t0 = Clock::now();
    const proto::WireRound& wr = received[next++];
    decoded = gc::decode_with_map(
        evaluator.eval_round(wr.tables, wr.garbler_labels, my_labels,
                             wr.fixed_labels),
        wr.output_map);
    stats.eval_seconds += seconds_since(t0);
  }

  finish_stats(cfg, *ch, decoded, t_total, stats);

  if (cfg.verbose)
    std::fprintf(stderr,
                 "[maxel_client] %s%u rounds, %llu B in / %llu B out, "
                 "working set %zu B, transfer %.3fs, ot %.3fs, eval %.3fs%s\n",
                 cfg.mode == SessionMode::kStream ? "stream, " : "",
                 stats.rounds,
                 static_cast<unsigned long long>(stats.bytes_received),
                 static_cast<unsigned long long>(stats.bytes_sent),
                 stats.working_set_bytes, stats.transfer_seconds,
                 stats.ot_seconds, stats.eval_seconds,
                 stats.checked ? (stats.verified ? ", VERIFIED" : ", MISMATCH")
                               : "");
  return stats;
}

}  // namespace

ClientStats run_client(const ClientConfig& cfg) {
  std::shared_ptr<FaultInjector> injector;
  if (!cfg.fault_plan.empty())
    injector = std::make_shared<FaultInjector>(FaultPlan::parse(cfg.fault_plan));

  // The v3 pool state spans every attempt of this call (and every call,
  // when the caller shares cfg.v3_state): a retry resumes the pool
  // instead of paying the base OT again.
  std::shared_ptr<V3ClientState> v3_state = cfg.v3_state;
  if (!v3_state && (cfg.protocol >= kProtocolVersionV3 ||
                    cfg.mode == SessionMode::kReusable)) {
    crypto::SystemRandom id_rng;
    v3_state = make_v3_client_state(id_rng);
  }

  const int max_attempts = std::max(1, cfg.retry.max_attempts);
  const auto t_run = Clock::now();
  std::uint64_t waited_ms = 0;

  // Failure handler shared by the typed and mapped catch arms: rethrow
  // when out of attempts or non-retryable, otherwise sleep the
  // deterministic backoff and let the loop start a fresh session.
  const auto retry_or_rethrow = [&](const NetError& e, int attempt) {
    if (attempt >= max_attempts || !net_error_is_retryable(e)) throw;
    const std::uint64_t wait = retry_backoff_ms(cfg.retry, attempt);
    if (cfg.verbose)
      std::fprintf(stderr,
                   "[maxel_client] attempt %d/%d failed (%s); retrying with a "
                   "fresh session in %llu ms\n",
                   attempt, max_attempts, e.what(),
                   static_cast<unsigned long long>(wait));
    waited_ms += wait;
    std::this_thread::sleep_for(std::chrono::milliseconds(wait));
  };

  for (int attempt = 1;; ++attempt) {
    try {
      ClientStats stats = run_session_attempt(cfg, injector, v3_state.get(),
                                              attempt >= max_attempts);
      // A checked mismatch is corruption: the session completed but the
      // bytes lied. While attempts remain, burn this session and retry;
      // on the last attempt keep the historical contract (stats.verified
      // reports it, no throw).
      if (cfg.check && !stats.verified && attempt < max_attempts)
        throw CorruptionError(
            "decoded MAC does not match the plaintext reference");
      stats.attempts = static_cast<std::uint32_t>(attempt);
      stats.retry_wait_ms = waited_ms;
      stats.total_seconds = seconds_since(t_run);
      return stats;
    } catch (const NetError& e) {
      retry_or_rethrow(e, attempt);
    } catch (const std::exception& e) {
      // Parse/eval blowups from corrupted-but-framed bytes reach here
      // untyped; map them to the retryable CorruptionError so callers
      // always see a NetError subclass.
      const CorruptionError mapped(std::string("session corrupted: ") +
                                   e.what());
      try {
        retry_or_rethrow(mapped, attempt);
      } catch (...) {
        throw mapped;  // surface the typed mapping, not the raw error
      }
    }
  }
}

}  // namespace maxel::net
