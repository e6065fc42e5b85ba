// Event-loop serving tier tests.
//
//   * state machine: every session mode (precomputed, stream, v3,
//     reusable) driven through an EvSession fed ONE BYTE AT A TIME by
//     the shuttle server (serve_harness.hpp) against the real
//     net::run_client, every MAC checked against the plaintext
//     reference;
//   * pool gate: a second v3 session through the shuttle resumes the
//     first one's OT pool and leaves zero outstanding claims;
//   * EvBroker: all four modes over loopback TCP against the sharded
//     front, with its stats and metrics;
//   * idle eviction: a silent peer is evicted by the timer wheel and
//     counted as an idle timeout and a connection error;
//   * lifecycle: a zero-watermark spool serves on demand and still
//     drains promptly; a connect after drain is refused at once;
//   * SpareFd: the EMFILE reserve releases and reacquires;
//   * loadgen smoke: 2000 canned reusable sessions through a windowed
//     single-threaded client sweep, zero failures, zero stuck claims.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuits.hpp"
#include "crypto/rng.hpp"
#include "evloop/ev_broker.hpp"
#include "evloop/loadgen.hpp"
#include "evloop/session.hpp"
#include "gc/v3.hpp"
#include "net/client.hpp"
#include "net/demo_inputs.hpp"
#include "net/error.hpp"
#include "net/handshake.hpp"
#include "net/reusable_service.hpp"
#include "net/tcp_channel.hpp"
#include "net/v3_service.hpp"
#include "proto/precompute.hpp"
#include "serve_harness.hpp"
#include "svc/session_spool.hpp"

namespace maxel::evloop {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

using test::shuttle_serve_one;
using test::ShuttleResult;

// Standalone EvServeContext (no broker, no spool): sessions are garbled
// on demand by the take callbacks, exactly what the machine consumes.
class EvSessionShuttleTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kBits = 8;
  static constexpr std::size_t kRounds = 6;

  void SetUp() override {
    circ_ = circuit::make_mac_circuit(circuit::MacOptions{kBits, kBits, true});
    an_ = gc::analyze_v3(circ_);
    reg_ = std::make_unique<net::V3PoolRegistry>(
        crypto::SystemRandom().next_block());
    net::DemoInputStream a_inputs(7, net::kGarblerStream, kBits);
    g_bits_.resize(kRounds);
    for (auto& row : g_bits_) row = a_inputs.next_bits();

    ctx_.circ = &circ_;
    ctx_.expect.scheme = gc::Scheme::kHalfGates;
    ctx_.expect.bit_width = kBits;
    ctx_.expect.circuit_hash = net::circuit_fingerprint(circ_);
    ctx_.expect.rounds_per_session = kRounds;
    ctx_.expect.allow_stream = true;
    ctx_.expect.allow_v3 = true;
    ctx_.expect.allow_reusable = true;
    ctx_.reg = reg_.get();
    ctx_.bits = kBits;
    ctx_.rounds = kRounds;
    ctx_.demo_seed = 7;
    ctx_.scheme = gc::Scheme::kHalfGates;
    ctx_.stream_chunk_rounds = 2;  // several chunks even at kRounds = 6
    ctx_.take_session = [this] {
      crypto::SystemRandom rng;
      return proto::garble_session(circ_, gc::Scheme::kHalfGates, kRounds,
                                   rng);
    };
    ctx_.take_v3 = [this] {
      crypto::SystemRandom rng;
      return proto::garble_session_v3(circ_, an_, g_bits_, reg_->delta(),
                                      rng.next_block(), rng);
    };
    crypto::SystemRandom garble_rng;
    rctx_ = net::make_reusable_context(
        circ_, net::garble_reusable(circ_, kBits, garble_rng), kRounds, 7);
    ctx_.reusable = &*rctx_;
  }

  net::ClientConfig shuttle_client(std::uint16_t port) {
    net::ClientConfig ccfg;
    ccfg.port = port;
    ccfg.bits = kBits;
    ccfg.verbose = false;
    ccfg.tcp.recv_timeout_ms = 10'000;
    ccfg.tcp.connect_attempts = 5;
    ccfg.tcp.connect_backoff_ms = 20;
    return ccfg;
  }

  circuit::Circuit circ_;
  gc::V3Analysis an_;
  std::unique_ptr<net::V3PoolRegistry> reg_;
  std::vector<std::vector<bool>> g_bits_;
  std::optional<net::ReusableServeContext> rctx_;
  EvServeContext ctx_;
};

TEST_F(EvSessionShuttleTest, PrecomputedByteAtATime) {
  net::TcpListener lst(0, "127.0.0.1", net::ListenOptions{});
  ShuttleResult res;
  std::thread serve([&] { res = shuttle_serve_one(lst, ctx_); });
  const net::ClientStats cs = net::run_client(shuttle_client(lst.port()));
  serve.join();

  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(cs.output_value, net::demo_mac_reference(7, kBits, kRounds));
  EXPECT_TRUE(res.done) << res.err;
  EXPECT_EQ(res.mode, "precomputed");
  EXPECT_EQ(res.stats.sessions_served, 1u);
  EXPECT_EQ(res.stats.rounds_served, kRounds);
  EXPECT_EQ(res.stats.bytes_sent, cs.bytes_received);
  EXPECT_EQ(res.stats.bytes_received, cs.bytes_sent);
}

TEST_F(EvSessionShuttleTest, StreamByteAtATime) {
  net::TcpListener lst(0, "127.0.0.1", net::ListenOptions{});
  ShuttleResult res;
  std::thread serve([&] { res = shuttle_serve_one(lst, ctx_); });
  net::ClientConfig ccfg = shuttle_client(lst.port());
  ccfg.mode = net::SessionMode::kStream;
  const net::ClientStats cs = net::run_client(ccfg);
  serve.join();

  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(cs.output_value, net::demo_mac_reference(7, kBits, kRounds));
  EXPECT_GT(cs.chunks_received, 1u);
  EXPECT_TRUE(res.done) << res.err;
  EXPECT_EQ(res.mode, "stream");
  EXPECT_EQ(res.stats.stream_sessions_served, 1u);
  EXPECT_GT(res.stats.peak_resident_tables, 0u);
}

TEST_F(EvSessionShuttleTest, V3ByteAtATimeResumesPoolAcrossSessions) {
  net::TcpListener lst(0, "127.0.0.1", net::ListenOptions{});
  crypto::SystemRandom id_rng;
  auto state = net::make_v3_client_state(id_rng);

  std::vector<net::ClientStats> rs;
  for (int i = 0; i < 2; ++i) {
    ShuttleResult res;
    std::thread serve([&] { res = shuttle_serve_one(lst, ctx_); });
    net::ClientConfig ccfg = shuttle_client(lst.port());
    ccfg.protocol = net::kProtocolVersionV3;
    ccfg.v3_state = state;
    rs.push_back(net::run_client(ccfg));
    serve.join();
    EXPECT_TRUE(res.done) << "session " << i << ": " << res.err;
    EXPECT_EQ(res.mode, "v3");
    EXPECT_EQ(res.stats.v3_sessions_served, 1u);
  }

  const std::uint64_t want = net::demo_mac_reference(7, kBits, kRounds);
  EXPECT_TRUE(rs[0].verified);
  EXPECT_TRUE(rs[1].verified);
  EXPECT_EQ(rs[0].output_value, want);
  EXPECT_EQ(rs[1].output_value, want);
  EXPECT_FALSE(rs[0].pool_resumed);
  EXPECT_TRUE(rs[1].pool_resumed);
  EXPECT_LE(rs[1].setup_bytes * 10, rs[0].setup_bytes);
  EXPECT_EQ(reg_->outstanding_claims(), 0u);
}

TEST_F(EvSessionShuttleTest, ReusableByteAtATime) {
  net::TcpListener lst(0, "127.0.0.1", net::ListenOptions{});
  ShuttleResult res;
  std::thread serve([&] { res = shuttle_serve_one(lst, ctx_); });
  net::ClientConfig ccfg = shuttle_client(lst.port());
  ccfg.mode = net::SessionMode::kReusable;
  crypto::SystemRandom id_rng;
  ccfg.v3_state = net::make_v3_client_state(id_rng);
  const net::ClientStats cs = net::run_client(ccfg);
  serve.join();

  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(cs.output_value, net::demo_mac_reference(7, kBits, kRounds));
  EXPECT_TRUE(res.done) << res.err;
  EXPECT_EQ(res.mode, "reusable");
  EXPECT_EQ(res.stats.reusable_sessions_served, 1u);
  EXPECT_EQ(res.stats.reusable_artifacts_sent, 1u);
  EXPECT_EQ(reg_->outstanding_claims(), 0u);
}

// A peer that hangs up mid-handshake must park the machine in the
// failed state with the peer-closed taxonomy, not crash or complete.
TEST_F(EvSessionShuttleTest, EofMidHelloFailsAsPeerClosed) {
  EvSession s(ctx_);
  // A well-formed frame header and the first 8 payload bytes (the
  // magic), then silence: a valid prefix of a real hello.
  std::uint8_t half_hello[12];
  const std::uint32_t frame_len = net::kHelloWireSize;
  const std::uint64_t magic = net::kHelloMagic;
  std::memcpy(half_hello, &frame_len, sizeof frame_len);
  std::memcpy(half_hello + 4, &magic, sizeof magic);
  s.on_bytes(half_hello, sizeof half_hello);
  EXPECT_FALSE(s.done());
  EXPECT_FALSE(s.failed());
  s.on_peer_eof();
  EXPECT_TRUE(s.failed());
  EXPECT_EQ(s.error(), EvError::kPeerClosed);
}

// ---------------------------------------------------------------------------
// SpareFd: the EMFILE reserve.

TEST(SpareFd, ReleasesAndReacquires) {
  SpareFd spare;
  ASSERT_TRUE(spare.held());
  spare.release();
  EXPECT_FALSE(spare.held());
  spare.reacquire();
  EXPECT_TRUE(spare.held());
  // Idempotent in both directions.
  spare.reacquire();
  EXPECT_TRUE(spare.held());
  spare.release();
  spare.release();
  EXPECT_FALSE(spare.held());
}

// ---------------------------------------------------------------------------
// EvBroker over loopback TCP.

class EvBrokerTest : public ::testing::Test {
 protected:
  EvBrokerConfig quiet_config(std::size_t bits, std::size_t rounds) {
    EvBrokerConfig cfg;
    cfg.bind_addr = "127.0.0.1";
    cfg.port = 0;
    cfg.bits = bits;
    cfg.rounds_per_session = rounds;
    cfg.spool_dir = spool_.path();
    cfg.verbose = false;
    return cfg;
  }

  net::ClientConfig quiet_client(std::uint16_t port, std::size_t bits) {
    net::ClientConfig ccfg;
    ccfg.port = port;
    ccfg.bits = bits;
    ccfg.verbose = false;
    ccfg.tcp.recv_timeout_ms = 10'000;
    ccfg.tcp.connect_attempts = 5;
    ccfg.tcp.connect_backoff_ms = 20;
    return ccfg;
  }

  svc::TempSpoolDir spool_;
};

// All four modes through the sharded front, every MAC bit-identical to
// the plaintext reference, stats and metrics accounting for each, and
// no OT-pool claim left outstanding.
TEST_F(EvBrokerTest, ServesAllFourModesAcrossShards) {
  const std::size_t bits = 8, rounds = 6;
  EvBrokerConfig cfg = quiet_config(bits, rounds);
  cfg.shards = 2;
  cfg.spool_low_watermark = 1;
  cfg.spool_high_watermark = 4;
  cfg.max_sessions = 4;
  EvBroker broker(cfg);
  std::thread run([&] { broker.run(); });

  const net::ClientStats pre =
      net::run_client(quiet_client(broker.port(), bits));

  net::ClientConfig scfg = quiet_client(broker.port(), bits);
  scfg.mode = net::SessionMode::kStream;
  const net::ClientStats str = net::run_client(scfg);

  crypto::SystemRandom id_rng;
  net::ClientConfig vcfg = quiet_client(broker.port(), bits);
  vcfg.protocol = net::kProtocolVersionV3;
  vcfg.v3_state = net::make_v3_client_state(id_rng);
  const net::ClientStats v3 = net::run_client(vcfg);

  net::ClientConfig rcfg = quiet_client(broker.port(), bits);
  rcfg.mode = net::SessionMode::kReusable;
  rcfg.v3_state = net::make_v3_client_state(id_rng);
  const net::ClientStats reu = net::run_client(rcfg);
  run.join();  // max_sessions reached -> graceful drain

  const std::uint64_t want = net::demo_mac_reference(cfg.demo_seed, bits,
                                                     rounds);
  for (const auto* cs : {&pre, &str, &v3, &reu}) {
    EXPECT_TRUE(cs->verified);
    EXPECT_EQ(cs->output_value, want);
    EXPECT_EQ(cs->rounds, rounds);
  }

  const svc::BrokerStats st = broker.stats();
  EXPECT_EQ(st.server.sessions_served, 4u);
  EXPECT_EQ(st.server.stream_sessions_served, 1u);
  EXPECT_EQ(st.server.v3_sessions_served, 1u);
  EXPECT_EQ(st.server.reusable_sessions_served, 1u);
  EXPECT_EQ(st.server.connection_errors, 0u);
  EXPECT_EQ(st.spool.sessions_claimed, 1u);  // precomputed only
  EXPECT_EQ(st.spool.v3_claimed, 1u);
  EXPECT_EQ(st.admission_rejects, 0u);
  EXPECT_EQ(broker.v3_outstanding_claims(), 0u);

  svc::MetricsRegistry& m = broker.metrics();
  EXPECT_EQ(m.counter("sessions_served").value(), 4);
  EXPECT_EQ(m.counter("rounds_served").value(),
            static_cast<std::int64_t>(4 * rounds));
  EXPECT_EQ(m.histogram("session_seconds").snapshot().count, 4u);
  EXPECT_GT(m.counter("net_tx_bytes_precomputed").value(), 0);
  EXPECT_GT(m.counter("net_tx_bytes_reusable").value(), 0);
  // Event-loop-specific gauges exist (idle again at snapshot time).
  EXPECT_EQ(m.gauge("ev_shard0_sessions").value(), 0);
  EXPECT_EQ(m.gauge("ev_shard1_sessions").value(), 0);
  EXPECT_NE(m.to_json().find("ev_open_fds"), std::string::npos);
}

// A silent peer is evicted by the timer wheel and accounted as one
// idle timeout and one connection error.
TEST_F(EvBrokerTest, IdlePeerEvictedByTimerWheel) {
  EvBrokerConfig cfg = quiet_config(8, 4);
  cfg.shards = 1;
  cfg.idle_timeout_ms = 250;
  EvBroker broker(cfg);
  std::thread run([&] { broker.run(); });

  auto idle = net::TcpChannel::connect("127.0.0.1", broker.port());
  const auto t0 = Clock::now();
  while (broker.metrics().counter("idle_timeouts").value() < 1 &&
         std::chrono::duration<double>(Clock::now() - t0).count() < 10.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

  broker.request_stop();
  run.join();
  idle.reset();

  const svc::BrokerStats st = broker.stats();
  EXPECT_EQ(st.server.idle_timeouts, 1u);
  EXPECT_EQ(st.server.connection_errors, 1u);  // eviction counts as one
  EXPECT_EQ(st.server.sessions_served, 0u);
  EXPECT_EQ(broker.metrics().counter("idle_timeouts").value(), 1);
}

// request_stop() on an idle evloop broker drains promptly: no blocking
// accept, no lingering timers.
TEST_F(EvBrokerTest, ShutdownLatencyBounded) {
  EvBrokerConfig cfg = quiet_config(8, 4);
  cfg.shards = 2;
  EvBroker broker(cfg);
  std::thread run([&] { broker.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto t0 = Clock::now();
  broker.request_stop();
  run.join();
  EXPECT_LT(std::chrono::duration<double>(Clock::now() - t0).count(), 2.0);
}

// A session that finds its spool lane empty is demand: with both
// watermarks at 0 the producer still garbles for it, so the waiting
// shard is not frozen, and request_stop() ends run() promptly.
TEST_F(EvBrokerTest, ZeroWatermarkSpoolServesOnDemandAndStops) {
  const std::size_t bits = 8, rounds = 4;
  EvBrokerConfig cfg = quiet_config(bits, rounds);
  cfg.shards = 1;
  cfg.spool_low_watermark = 0;
  cfg.spool_high_watermark = 0;
  EvBroker broker(cfg);
  std::atomic<bool> returned{false};
  std::thread run([&] {
    broker.run();
    returned = true;
  });

  net::ClientConfig pre = quiet_client(broker.port(), bits);
  pre.tcp.recv_timeout_ms = 3'000;
  net::ClientConfig v3 = pre;
  crypto::SystemRandom id_rng;
  v3.protocol = net::kProtocolVersionV3;
  v3.v3_state = net::make_v3_client_state(id_rng);
  const std::uint64_t want = net::demo_mac_reference(cfg.demo_seed, bits,
                                                     rounds);
  for (const net::ClientConfig* ccfg : {&pre, &v3}) {
    try {
      const net::ClientStats cs = net::run_client(*ccfg);
      EXPECT_TRUE(cs.verified);
      EXPECT_EQ(cs.output_value, want);
    } catch (const net::NetError& e) {
      ADD_FAILURE() << "protocol " << ccfg->protocol << ": " << e.what();
    }
  }

  const auto t0 = Clock::now();
  broker.request_stop();
  while (!returned && seconds_since(t0) < 5.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double drain_seconds = seconds_since(t0);
  if (!returned) {
    // Joining a wedged broker would hang the whole suite.
    ADD_FAILURE() << "run() still running 5 s after request_stop()";
    std::abort();
  }
  run.join();
  EXPECT_LT(drain_seconds, 2.0);

  const svc::BrokerStats st = broker.stats();
  EXPECT_EQ(st.server.sessions_served, 2u);
  EXPECT_EQ(st.spool.sessions_claimed, 1u);
  EXPECT_EQ(st.spool.v3_claimed, 1u);
  EXPECT_EQ(broker.v3_outstanding_claims(), 0u);
}

// The producer garbles at most one session per pool core per pass, yet a
// lane that fell below the low watermark is still stocked all the way
// to the high one.
TEST_F(EvBrokerTest, OneCoreProducerStocksBothLanesToTheHighWatermark) {
  EvBrokerConfig cfg = quiet_config(8, 4);
  cfg.shards = 1;
  cfg.precompute_cores = 1;
  cfg.spool_low_watermark = 2;
  cfg.spool_high_watermark = 5;
  EvBroker broker(cfg);
  std::thread run([&] { broker.run(); });
  const auto t0 = Clock::now();
  svc::SpoolStats sp = broker.stats().spool;
  while ((sp.sessions_ready < 5 || sp.sessions_ready_v3 < 5) &&
         seconds_since(t0) < 30.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    sp = broker.stats().spool;
  }
  // Let a stray extra pass show up before checking the ceiling.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  sp = broker.stats().spool;
  broker.request_stop();
  run.join();
  EXPECT_EQ(sp.sessions_ready, 5u);
  EXPECT_EQ(sp.sessions_ready_v3, 5u);
}

// A take parked on one lane is served before the other lane's stock:
// the first v3 client after startup does not wait for the whole v2 fill.
TEST_F(EvBrokerTest, WaitingLaneIsServedBeforeTheOtherLanesStock) {
  const std::size_t bits = 16, rounds = 32, stock = 64;
  EvBrokerConfig cfg = quiet_config(bits, rounds);
  cfg.shards = 1;
  cfg.precompute_cores = 1;
  cfg.spool_low_watermark = stock;
  cfg.spool_high_watermark = stock;
  EvBroker broker(cfg);
  std::thread run([&] { broker.run(); });

  net::ClientConfig v3 = quiet_client(broker.port(), bits);
  crypto::SystemRandom id_rng;
  v3.protocol = net::kProtocolVersionV3;
  v3.v3_state = net::make_v3_client_state(id_rng);
  const net::ClientStats cs = net::run_client(v3);
  const svc::SpoolStats sp = broker.stats().spool;
  broker.request_stop();
  run.join();
  EXPECT_TRUE(cs.verified);
  EXPECT_EQ(sp.v3_claimed, 1u);
  // Stocking v2 first would have put all `stock` v2 sessions ahead of it.
  EXPECT_LT(sp.sessions_ready, stock);
}

// A drained broker has closed its listeners: a late connect is refused
// at once instead of waiting out the client's recv timeout.
TEST_F(EvBrokerTest, ConnectAfterDrainIsRefusedAtOnce) {
  EvBrokerConfig cfg = quiet_config(8, 4);
  cfg.shards = 2;
  EvBroker broker(cfg);
  std::thread run([&] { broker.run(); });
  broker.request_stop();
  run.join();

  net::ClientConfig late = quiet_client(broker.port(), 8);
  late.tcp.connect_attempts = 1;
  late.tcp.recv_timeout_ms = 3'000;
  const auto t0 = Clock::now();
  EXPECT_THROW((void)net::run_client(late), net::ConnectError);
  EXPECT_LT(seconds_since(t0), 1.0);
}

// ---------------------------------------------------------------------------
// Loadgen smoke: the CI gate's 2k-client sweep in miniature (same code
// path as bench/fig_broker_scaling, small enough for the test tier).

TEST_F(EvBrokerTest, LoadgenTwoThousandReusableSessionsZeroFailures) {
  EvBrokerConfig cfg = quiet_config(8, 2);
  cfg.shards = 2;
  EvBroker broker(cfg);
  std::thread run([&] { broker.run(); });

  ASSERT_NE(broker.reusable_context(), nullptr);
  ReusableLoadgen lg(broker.v3_registry(), *broker.reusable_context(),
                     broker.expectation());
  LoadgenConfig lcfg;
  lcfg.port = broker.port();
  lcfg.total_sessions = 2000;
  lcfg.window = 256;
  lcfg.clients = 8;
  const LoadgenResult res = lg.run(lcfg);

  broker.request_stop();
  run.join();

  EXPECT_EQ(res.ok, 2000u);
  EXPECT_EQ(res.failed, 0u);
  EXPECT_LE(res.peak_inflight, lcfg.window);
  EXPECT_GT(res.sessions_per_sec(), 0.0);

  const svc::BrokerStats st = broker.stats();
  EXPECT_EQ(st.server.reusable_sessions_served, 2000u);
  EXPECT_EQ(st.server.reusable_artifacts_sent, 0u);  // hash-confirmed cache
  EXPECT_EQ(broker.v3_outstanding_claims(), 0u);
}

}  // namespace
}  // namespace maxel::evloop
