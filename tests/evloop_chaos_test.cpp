// Chaos tier for the event-loop serving path: the close/stall/trunc
// FaultPlan matrix from chaos_test.cpp replayed against a live sharded
// EvBroker, in all four session modes. The contract is the blocking
// tier's: every scenario ends within a watchdog in either a bit-correct
// verified MAC or a typed NetError — never a hang — the broker keeps
// serving clean clients afterwards, and no scenario leaves an OT-pool
// claim outstanding (the zero-stuck-claims gate).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "crypto/rng.hpp"
#include "evloop/ev_broker.hpp"
#include "net/client.hpp"
#include "net/demo_inputs.hpp"
#include "net/error.hpp"
#include "net/v3_service.hpp"
#include "svc/session_spool.hpp"

namespace maxel::evloop {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kBits = 8;
constexpr std::size_t kRounds = 12;
constexpr double kWatchdogSeconds = 25.0;

// The close/stall/trunc plans from the blocking matrix (client-side
// injection; indices are raw-op counts, so each schedule reproduces
// bit-for-bit from the string alone).
const char* const kPlans[] = {
    "close@send:0",             // hello dies
    "close@send:2",             // OT setup dies on our side
    "close@recv:1",             // handshake reply dies
    "close@recv:6",             // session material dies
    "trunc@send:1",             // peer sees a mid-message EOF
    "trunc@send:3",
    "seed=11;stall@recv:1:300"  // a short stall inside the idle deadline
};

struct Outcome {
  bool verified = false;
  bool threw = false;
  std::string error;
  std::uint32_t attempts = 0;
  std::uint64_t output = 0;
  double elapsed = 0;
};

Outcome run_chaos_client(const net::ClientConfig& cfg) {
  Outcome out;
  const auto t0 = Clock::now();
  try {
    const net::ClientStats cs = net::run_client(cfg);
    out.verified = cs.verified;
    out.attempts = cs.attempts;
    out.output = cs.output_value;
  } catch (const net::NetError& e) {
    out.threw = true;
    out.error = e.what();
  }
  out.elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

void check_outcome(const Outcome& out, std::uint64_t expected_mac) {
  EXPECT_LT(out.elapsed, kWatchdogSeconds);
  if (out.threw) {
    EXPECT_FALSE(out.error.empty());
  } else {
    EXPECT_TRUE(out.verified) << "completed without verifying";
    EXPECT_EQ(out.output, expected_mac);
  }
}

class EvBrokerChaosTest : public ::testing::Test {
 protected:
  EvBrokerConfig chaos_config() {
    EvBrokerConfig cfg;
    cfg.bind_addr = "127.0.0.1";
    cfg.port = 0;
    cfg.bits = kBits;
    cfg.rounds_per_session = kRounds;
    cfg.spool_dir = spool_.path();
    cfg.shards = 2;
    cfg.spool_low_watermark = 1;
    cfg.spool_high_watermark = 4;
    cfg.verbose = false;
    cfg.idle_timeout_ms = 5'000;  // bounds stalled/half-dead peers
    return cfg;
  }

  net::ClientConfig chaos_client(std::uint16_t port, const std::string& plan) {
    net::ClientConfig cfg;
    cfg.port = port;
    cfg.bits = kBits;
    cfg.verbose = false;
    cfg.fault_plan = plan;
    cfg.retry.max_attempts = 4;
    cfg.retry.backoff_ms = 10;
    cfg.retry.backoff_max_ms = 50;
    cfg.tcp.recv_timeout_ms = 2'000;
    cfg.tcp.send_timeout_ms = 2'000;
    cfg.tcp.connect_attempts = 3;
    cfg.tcp.connect_backoff_ms = 20;
    return cfg;
  }

  // One broker per mode; every plan runs against it in sequence, with a
  // clean-client probe after each scenario that died typed.
  void run_matrix(net::SessionMode mode, std::uint32_t protocol) {
    const std::uint64_t expected =
        net::demo_mac_reference(7, kBits, kRounds);
    EvBrokerConfig cfg = chaos_config();
    EvBroker broker(cfg);
    std::thread run([&] { broker.run(); });
    int recovered = 0;

    crypto::SystemRandom id_rng;
    for (const char* plan : kPlans) {
      SCOPED_TRACE(std::string("plan=") + plan);
      net::ClientConfig ccfg = chaos_client(broker.port(), plan);
      ccfg.mode = mode;
      ccfg.protocol = protocol;
      if (protocol == net::kProtocolVersionV3 ||
          mode == net::SessionMode::kReusable)
        ccfg.v3_state = net::make_v3_client_state(id_rng);
      const Outcome out = run_chaos_client(ccfg);
      check_outcome(out, expected);
      if (out.verified && out.attempts >= 2) ++recovered;

      if (out.threw) {
        net::ClientConfig clean = chaos_client(broker.port(), "");
        clean.mode = mode;
        clean.protocol = protocol;
        if (protocol == net::kProtocolVersionV3 ||
            mode == net::SessionMode::kReusable)
          clean.v3_state = net::make_v3_client_state(id_rng);
        const Outcome ok = run_chaos_client(clean);
        EXPECT_TRUE(ok.verified) << ok.error;
      }
    }
    broker.request_stop();
    run.join();
    // Checked after the loops are fully down: every claim must have
    // ended in consume or discard, whatever the fault schedule did.
    EXPECT_EQ(broker.v3_outstanding_claims(), 0u);
    EXPECT_EQ(static_cast<std::int64_t>(broker.stats().server.sessions_served),
              broker.metrics().counter("sessions_served").value());
    // Transient faults must actually be recovering through retry.
    EXPECT_GE(recovered, 3);
  }

  svc::TempSpoolDir spool_;
};

TEST_F(EvBrokerChaosTest, PrecomputedSurvivesEveryPlan) {
  run_matrix(net::SessionMode::kPrecomputed, net::kProtocolVersion);
}

TEST_F(EvBrokerChaosTest, StreamSurvivesEveryPlan) {
  run_matrix(net::SessionMode::kStream, net::kProtocolVersion);
}

TEST_F(EvBrokerChaosTest, V3SurvivesEveryPlanWithNoStuckClaims) {
  run_matrix(net::SessionMode::kPrecomputed, net::kProtocolVersionV3);
}

TEST_F(EvBrokerChaosTest, ReusableSurvivesEveryPlanWithNoStuckClaims) {
  run_matrix(net::SessionMode::kReusable, net::kProtocolVersionV3);
}

}  // namespace
}  // namespace maxel::evloop
