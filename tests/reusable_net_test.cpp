// Reusable-mode end-to-end: one garbling serves many TCP sessions with
// bit-identical outputs across the reusable, precomputed, and plaintext
// reference paths; the handshake rejects the mode with typed verdicts
// wherever it cannot be served; the tests at the end drive the spool
// lane and the artifact-survival-across-restart contract.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuits.hpp"
#include "crypto/rng.hpp"
#include "evloop/ev_broker.hpp"
#include "net/client.hpp"
#include "net/demo_inputs.hpp"
#include "net/error.hpp"
#include "net/handshake.hpp"
#include "net/reusable_service.hpp"
#include "net/tcp_channel.hpp"
#include "net/v3_service.hpp"
#include "serve_harness.hpp"
#include "svc/session_spool.hpp"

namespace maxel::net {
namespace {

using crypto::Block;

TcpOptions fast_opts() {
  TcpOptions o;
  o.recv_timeout_ms = 5'000;
  o.connect_attempts = 3;
  o.connect_backoff_ms = 10;
  return o;
}

// One shard on a private temporary spool, stopping after one session.
evloop::EvBrokerConfig quiet_broker_config(std::size_t bits,
                                           std::size_t rounds) {
  evloop::EvBrokerConfig cfg = test::small_broker_config(bits, rounds);
  cfg.max_sessions = 1;
  return cfg;
}

ClientConfig quiet_client_config(std::uint16_t port, std::size_t bits) {
  ClientConfig cfg;
  cfg.port = port;
  cfg.bits = bits;
  cfg.verbose = false;
  return cfg;
}

// The acceptance triangle: N reusable evaluations, the precomputed
// path, and the plaintext MAC reference must agree bit for bit — and
// the server must garble exactly once for all reusable sessions.
TEST(ReusableNet, SessionsMatchPrecomputedAndReferenceBitForBit) {
  const std::size_t bits = 16, rounds = 16;
  evloop::EvBrokerConfig scfg = quiet_broker_config(bits, rounds);
  scfg.max_sessions = 4;
  test::TestBroker server(scfg);

  ClientConfig pre = quiet_client_config(server.port(), bits);
  const ClientStats sp = run_client(pre);

  // Three reusable sessions off one shared client state: the artifact
  // ships on the first and is cache-confirmed (by hash) on the rest.
  crypto::SystemRandom id_rng(Block{0xCAFE, 1});
  auto state = make_v3_client_state(id_rng);
  ClientConfig reu = quiet_client_config(server.port(), bits);
  reu.mode = SessionMode::kReusable;
  reu.v3_state = state;
  const ClientStats r1 = run_client(reu);
  const ClientStats r2 = run_client(reu);
  const ClientStats r3 = run_client(reu);
  server.wait();

  EXPECT_TRUE(sp.verified);
  EXPECT_TRUE(r1.verified);
  EXPECT_TRUE(r2.verified);
  EXPECT_TRUE(r3.verified);
  EXPECT_EQ(r1.output_value, sp.output_value);
  EXPECT_EQ(r1.output_value, demo_mac_reference(reu.demo_seed, bits, rounds));
  EXPECT_EQ(r2.output_value, r1.output_value);
  EXPECT_EQ(r3.output_value, r1.output_value);
  EXPECT_EQ(r1.protocol_used, kProtocolVersionV3);

  // One base OT for all three sessions, and the artifact cached after
  // the first: setup shrinks by an order of magnitude on resumption.
  EXPECT_FALSE(r1.pool_resumed);
  EXPECT_TRUE(r2.pool_resumed);
  EXPECT_TRUE(r3.pool_resumed);
  EXPECT_LE(r2.setup_bytes * 10, r1.setup_bytes);
  EXPECT_TRUE(state->reusable_view.has_value());

  const evloop::ServerStats ss = server.server_stats();
  EXPECT_EQ(ss.sessions_served, 4u);
  EXPECT_EQ(ss.reusable_sessions_served, 3u);
  EXPECT_EQ(ss.reusable_artifacts_sent, 1u);
  EXPECT_EQ(ss.reusable_garbles, 1u);  // garbled once, into the spool
  EXPECT_EQ(ss.v3_fresh_pools, 1u);
  EXPECT_EQ(server.outstanding_claims(), 0u);
}

// Once the artifact and pool are warm, a reusable session moves far
// fewer bytes per MAC than the v3 slim wire for the same work: the
// whole session is d/z bit vectors plus masked garbler bits.
TEST(ReusableNet, WarmSessionsSlimTheWireUnderV3) {
  const std::size_t bits = 16, rounds = 32;
  evloop::EvBrokerConfig scfg = quiet_broker_config(bits, rounds);
  scfg.max_sessions = 4;
  test::TestBroker server(scfg);

  crypto::SystemRandom id_rng(Block{0xBEEF, 2});
  ClientConfig v3 = quiet_client_config(server.port(), bits);
  v3.protocol = kProtocolVersionV3;
  v3.v3_state = make_v3_client_state(id_rng);
  (void)run_client(v3);                     // warm pool
  const ClientStats v3_warm = run_client(v3);

  ClientConfig reu = quiet_client_config(server.port(), bits);
  reu.mode = SessionMode::kReusable;
  reu.v3_state = make_v3_client_state(id_rng);
  (void)run_client(reu);                    // warm pool + artifact
  const ClientStats reu_warm = run_client(reu);
  server.wait();

  EXPECT_TRUE(v3_warm.verified);
  EXPECT_TRUE(reu_warm.verified);
  const std::uint64_t v3_bytes = v3_warm.bytes_sent + v3_warm.bytes_received;
  const std::uint64_t reu_bytes =
      reu_warm.bytes_sent + reu_warm.bytes_received;
  // The CI gate demands <= 0.25x at 1000 sessions; a single warm session
  // is already far below that.
  EXPECT_LT(reu_bytes * 4, v3_bytes)
      << "reusable " << reu_bytes << " B vs v3 " << v3_bytes << " B";
}

// ---------------------------------------------------------------------------
// Handshake verdicts.

ServerExpectation reusable_expectation(std::size_t bits) {
  ServerExpectation ex;
  ex.scheme = gc::Scheme::kHalfGates;
  ex.bit_width = static_cast<std::uint32_t>(bits);
  ex.circuit_hash = circuit_fingerprint(
      circuit::make_mac_circuit(circuit::MacOptions{bits, bits, true}));
  ex.rounds_per_session = 16;
  ex.allow_v3 = true;
  ex.allow_reusable = true;
  return ex;
}

struct HandshakePair {
  std::unique_ptr<TcpChannel> client;
  std::unique_ptr<TcpChannel> server;
};

HandshakePair make_pair_over_loopback(TcpListener& lis) {
  HandshakePair p;
  std::thread t([&] { p.server = lis.accept(5'000, fast_opts()); });
  p.client = TcpChannel::connect("127.0.0.1", lis.port(), fast_opts());
  t.join();
  return p;
}

ClientHello reusable_hello(const ServerExpectation& ex) {
  ClientHello h;
  h.scheme = static_cast<std::uint8_t>(ex.scheme);
  h.ot = static_cast<std::uint8_t>(OtChoice::kIknp);
  h.mode = static_cast<std::uint8_t>(SessionMode::kReusable);
  h.bit_width = ex.bit_width;
  h.circuit_hash = ex.circuit_hash;
  return h;
}

// Runs a v3 hello (with extension) against an expectation and returns
// the code each side saw.
std::pair<RejectCode, RejectCode> run_v3_handshake(
    const ClientHello& hello, const ServerExpectation& ex) {
  TcpListener lis(0, "127.0.0.1");
  HandshakePair p = make_pair_over_loopback(lis);
  RejectCode server_code = RejectCode::kOk;
  std::thread server([&] {
    try {
      (void)server_handshake_v23(*p.server, ex);
    } catch (const HandshakeError& e) {
      server_code = e.code();
    }
  });
  HelloExtV3 ext;
  ext.client_id = Block{5, 6};
  RejectCode client_code = RejectCode::kOk;
  try {
    (void)client_handshake_v3(*p.client, hello, ext);
  } catch (const HandshakeError& e) {
    client_code = e.code();
  }
  server.join();
  return {client_code, server_code};
}

TEST(ReusableHandshake, AcceptedWhenAllowed) {
  const ServerExpectation ex = reusable_expectation(8);
  const auto [cc, sc] = run_v3_handshake(reusable_hello(ex), ex);
  EXPECT_EQ(cc, RejectCode::kOk);
  EXPECT_EQ(sc, RejectCode::kOk);
}

TEST(ReusableHandshake, TypedRejectWhenModeDisabled) {
  ServerExpectation ex = reusable_expectation(8);
  ex.allow_reusable = false;
  const auto [cc, sc] = run_v3_handshake(reusable_hello(ex), ex);
  EXPECT_EQ(cc, RejectCode::kBadMode);
  EXPECT_EQ(sc, RejectCode::kBadMode);
}

TEST(ReusableHandshake, V2HelloAskingReusableIsBadMode) {
  // A v2 hello cannot carry the identity/ticket extension the reusable
  // flow needs: typed kBadMode, never a silent downgrade.
  const ServerExpectation ex = reusable_expectation(8);
  TcpListener lis(0, "127.0.0.1");
  HandshakePair p = make_pair_over_loopback(lis);
  RejectCode server_code = RejectCode::kOk;
  std::thread server([&] {
    try {
      (void)server_handshake_v23(*p.server, ex);
    } catch (const HandshakeError& e) {
      server_code = e.code();
    }
  });
  ClientHello h = reusable_hello(ex);  // version stays kProtocolVersion (2)
  RejectCode client_code = RejectCode::kOk;
  try {
    (void)client_handshake(*p.client, h);
  } catch (const HandshakeError& e) {
    client_code = e.code();
  }
  server.join();
  EXPECT_EQ(client_code, RejectCode::kBadMode);
  EXPECT_EQ(server_code, RejectCode::kBadMode);
}

TEST(ReusableHandshake, UnknownModeByteStillRejected) {
  // client_handshake_v3 coerces unknown modes, so a hostile hello with
  // mode one past kReusable has to go out raw — the server must still
  // answer with a typed kBadMode.
  const ServerExpectation ex = reusable_expectation(8);
  TcpListener lis(0, "127.0.0.1");
  HandshakePair p = make_pair_over_loopback(lis);
  RejectCode server_code = RejectCode::kOk;
  std::thread server([&] {
    try {
      (void)server_handshake_v23(*p.server, ex);
    } catch (const HandshakeError& e) {
      server_code = e.code();
    }
  });
  ClientHello h = reusable_hello(ex);
  h.version = kProtocolVersionV3;
  h.mode = 3;  // one past kReusable
  send_hello(*p.client, h);
  HelloExtV3 ext;
  ext.client_id = Block{9, 9};
  send_hello_ext_v3(*p.client, ext);
  const ServerAccept a = recv_accept(*p.client);
  server.join();
  EXPECT_EQ(a.status, RejectCode::kBadMode);
  EXPECT_EQ(server_code, RejectCode::kBadMode);
}

// ---------------------------------------------------------------------------
// Session-layer hostility: a served artifact whose bytes were flipped
// in flight must die to the checksum, not to undefined evaluation.

TEST(ReusableNet, DisabledModeServerRejectsRunClient) {
  const std::size_t bits = 8, rounds = 8;
  evloop::EvBrokerConfig scfg = quiet_broker_config(bits, rounds);
  scfg.allow_reusable = false;
  scfg.max_sessions = 1;
  test::TestBroker server(scfg);

  ClientConfig reu = quiet_client_config(server.port(), bits);
  reu.mode = SessionMode::kReusable;
  RejectCode code = RejectCode::kOk;
  try {
    (void)run_client(reu);
  } catch (const HandshakeError& e) {
    code = e.code();
  }
  EXPECT_EQ(code, RejectCode::kBadMode);
  server.stop();
}

// ---------------------------------------------------------------------------
// Broker + spool lane: garble once per (fingerprint, bits) key, persist
// the artifact, serve unbounded evaluations off it, survive restarts.

namespace fs = std::filesystem;

class ReusableBrokerTest : public ::testing::Test {
 protected:
  evloop::EvBrokerConfig broker_config(std::size_t bits, std::size_t rounds,
                                       std::uint64_t max_sessions) {
    evloop::EvBrokerConfig cfg;
    cfg.bind_addr = "127.0.0.1";
    cfg.port = 0;
    cfg.bits = bits;
    cfg.rounds_per_session = rounds;
    cfg.shards = 2;
    cfg.spool_dir = spool_.path();
    cfg.spool_low_watermark = 1;
    cfg.spool_high_watermark = 1;
    cfg.max_sessions = max_sessions;
    cfg.verbose = false;
    return cfg;
  }

  ClientConfig broker_client(std::uint16_t port, std::size_t bits,
                             std::shared_ptr<V3ClientState> state) {
    ClientConfig cfg;
    cfg.port = port;
    cfg.bits = bits;
    cfg.mode = SessionMode::kReusable;
    cfg.v3_state = std::move(state);
    cfg.verbose = false;
    cfg.tcp.recv_timeout_ms = 10'000;
    cfg.tcp.connect_attempts = 5;
    cfg.tcp.connect_backoff_ms = 20;
    return cfg;
  }

  // The one reus-*.mxr artifact file in ready/, or an empty path.
  fs::path artifact_file() const {
    const fs::path ready = fs::path(spool_.path()) / "ready";
    for (const auto& e : fs::directory_iterator(ready))
      if (e.path().filename().string().rfind("reus-", 0) == 0)
        return e.path();
    return {};
  }

  svc::TempSpoolDir spool_;
};

// The subsystem's acceptance bar: >=1000 MAC evaluations over TCP
// through the broker, all off ONE garbling, every decoded value
// bit-identical to the plaintext reference, zero stuck pool claims.
TEST_F(ReusableBrokerTest, ThousandEvaluationsOffOneGarbling) {
  const std::size_t bits = 16, rounds = 128, sessions = 8;
  evloop::EvBrokerConfig bcfg = broker_config(bits, rounds, sessions);
  evloop::EvBroker broker(bcfg);
  std::thread run([&] { broker.run(); });

  crypto::SystemRandom id_rng(Block{0x1000, 1});
  auto state = make_v3_client_state(id_rng);
  const ClientConfig cfg = broker_client(broker.port(), bits, state);
  const std::uint64_t expect = demo_mac_reference(cfg.demo_seed, bits, rounds);
  for (std::size_t s = 0; s < sessions; ++s) {
    const ClientStats st = run_client(cfg);
    ASSERT_TRUE(st.verified) << "session " << s;
    ASSERT_EQ(st.output_value, expect) << "session " << s;
  }
  run.join();

  const svc::BrokerStats st = broker.stats();
  EXPECT_EQ(st.server.reusable_sessions_served, sessions);
  EXPECT_EQ(st.server.reusable_garbles, 1u);
  EXPECT_EQ(st.server.reusable_artifacts_sent, 1u);
  EXPECT_EQ(st.spool.reusable_ready, 1u);
  EXPECT_GE(st.spool.reusable_evaluations, 1000u);
  EXPECT_EQ(st.spool.reusable_evaluations, sessions * rounds);
  EXPECT_EQ(broker.v3_outstanding_claims(), 0u);
}

// A broker restarting on the same spool directory reloads the persisted
// artifact instead of re-garbling: the client's cached view stays
// valid (hash-confirmed, never re-sent) and the evaluations-served
// counter keeps accumulating across processes.
TEST_F(ReusableBrokerTest, ArtifactSurvivesBrokerRestart) {
  const std::size_t bits = 8, rounds = 16;
  crypto::SystemRandom id_rng(Block{0x2000, 2});
  auto state = make_v3_client_state(id_rng);

  {
    evloop::EvBroker broker(broker_config(bits, rounds, 1));
    std::thread run([&] { broker.run(); });
    const ClientStats st =
        run_client(broker_client(broker.port(), bits, state));
    run.join();
    ASSERT_TRUE(st.verified);
    EXPECT_EQ(broker.stats().server.reusable_garbles, 1u);
  }
  ASSERT_TRUE(state->reusable_view.has_value());
  const auto cached_sha = state->reusable_sha;

  evloop::EvBroker broker2(broker_config(bits, rounds, 1));
  std::thread run2([&] { broker2.run(); });
  const ClientStats st2 =
      run_client(broker_client(broker2.port(), bits, state));
  run2.join();
  EXPECT_TRUE(st2.verified);
  EXPECT_EQ(st2.output_value, demo_mac_reference(7, bits, rounds));

  const svc::BrokerStats bs2 = broker2.stats();
  EXPECT_EQ(bs2.server.reusable_garbles, 0u);      // reloaded, not re-garbled
  EXPECT_EQ(bs2.server.reusable_artifacts_sent, 0u);  // cache confirmed
  EXPECT_EQ(state->reusable_sha, cached_sha);
  // Both processes' sessions accumulate on the persisted counter.
  EXPECT_EQ(bs2.spool.reusable_evaluations, 2 * rounds);

  svc::SessionSpool spool(svc::SpoolConfig{spool_.path(), 0, true});
  const auto entries = spool.reusable_entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].evaluations, 2 * rounds);
}

// Bit rot on the cached artifact: the next broker's checksum probe
// destroys the blob and garbles a replacement — clients holding the old
// view get the new artifact pushed (hash mismatch), never wrong tables.
TEST_F(ReusableBrokerTest, CorruptArtifactOnDiskForcesRegarble) {
  const std::size_t bits = 8, rounds = 16;
  crypto::SystemRandom id_rng(Block{0x3000, 3});
  auto state = make_v3_client_state(id_rng);

  {
    evloop::EvBroker broker(broker_config(bits, rounds, 1));
    std::thread run([&] { broker.run(); });
    const ClientStats st =
        run_client(broker_client(broker.port(), bits, state));
    run.join();
    ASSERT_TRUE(st.verified);
  }
  const auto old_sha = state->reusable_sha;

  // Flip one byte mid-file; any flipped bit must fail the checksum.
  const fs::path victim = artifact_file();
  ASSERT_FALSE(victim.empty());
  {
    std::ifstream in(victim, std::ios::binary);
    std::string blob((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ASSERT_FALSE(blob.empty());
    blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x5A);
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }

  evloop::EvBroker broker2(broker_config(bits, rounds, 1));
  std::thread run2([&] { broker2.run(); });
  const ClientStats st2 =
      run_client(broker_client(broker2.port(), bits, state));
  run2.join();
  EXPECT_TRUE(st2.verified);
  EXPECT_EQ(st2.output_value, demo_mac_reference(7, bits, rounds));

  const svc::BrokerStats bs2 = broker2.stats();
  EXPECT_EQ(bs2.spool.reusable_corrupt_discarded, 1u);
  EXPECT_EQ(bs2.server.reusable_garbles, 1u);        // fresh flips
  EXPECT_EQ(bs2.server.reusable_artifacts_sent, 1u); // old cache invalid
  EXPECT_NE(state->reusable_sha, old_sha);
  // The replacement artifact starts its evaluation count over.
  EXPECT_EQ(bs2.spool.reusable_evaluations, rounds);
}

}  // namespace
}  // namespace maxel::net
