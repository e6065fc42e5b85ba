// One session core, one front: evloop::EvBroker serves every connection
// through evloop::EvSession, and a client must see the wire that the
// separate blocking serve paths put on it before the session core
// replaced them.
//
//   * wire identity: one client session per mode — precomputed with
//     base OT and with IKNP, stream, v3 fresh then resumed, reusable
//     cold then warm — with ClientStats bytes (and stream chunks) equal
//     to the constants pinned below, which were recorded from the
//     blocking serve paths;
//   * server-side timing: every mode reports nonzero ot_seconds and
//     transfer_seconds.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "crypto/rng.hpp"
#include "evloop/ev_broker.hpp"
#include "net/client.hpp"
#include "net/demo_inputs.hpp"
#include "net/v3_service.hpp"
#include "serve_harness.hpp"

namespace maxel {
namespace {

constexpr std::size_t kBits = 8;
constexpr std::size_t kRounds = 6;
constexpr std::size_t kChunkRounds = 2;  // several stream chunks

// The front: a broker on an ephemeral loopback port and a private spool.
evloop::EvBrokerConfig front_config() {
  evloop::EvBrokerConfig cfg = test::small_broker_config(kBits, kRounds);
  cfg.stream_chunk_rounds = kChunkRounds;
  return cfg;
}

// The front folds a session into its stats after the client already
// holds its last byte; poll until `n` sessions are on the books.
evloop::ServerStats stats_after(const test::TestBroker& front,
                                std::uint64_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  evloop::ServerStats st = front.server_stats();
  while (st.sessions_served < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    st = front.server_stats();
  }
  return st;
}

struct Scenario {
  const char* name;
  net::SessionMode mode;
  std::uint32_t protocol;
  net::OtChoice ot;
  bool fresh_state;  // false: reuse the previous scenario's client state
};

const Scenario kScenarios[] = {
    {"precomputed-base", net::SessionMode::kPrecomputed,
     net::kProtocolVersion, net::OtChoice::kBase, true},
    {"precomputed-iknp", net::SessionMode::kPrecomputed,
     net::kProtocolVersion, net::OtChoice::kIknp, true},
    {"stream", net::SessionMode::kStream, net::kProtocolVersion,
     net::OtChoice::kIknp, true},
    {"v3-fresh", net::SessionMode::kPrecomputed, net::kProtocolVersionV3,
     net::OtChoice::kIknp, true},
    {"v3-resumed", net::SessionMode::kPrecomputed, net::kProtocolVersionV3,
     net::OtChoice::kIknp, false},
    {"reusable-cold", net::SessionMode::kReusable, net::kProtocolVersionV3,
     net::OtChoice::kIknp, true},
    {"reusable-warm", net::SessionMode::kReusable, net::kProtocolVersionV3,
     net::OtChoice::kIknp, false},
};

struct Wire {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t chunks = 0;

  bool operator==(const Wire&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Wire& w) {
  return os << "{" << w.sent << ", " << w.received << ", " << w.chunks << "}";
}

// Client-side payload bytes per scenario, in kScenarios order, recorded
// against the blocking serve paths before they were folded into the
// session core (b=8, 6 rounds, 2-round stream chunks).
const Wire kPinned[] = {
    {824, 24634, 0},     // precomputed-base
    {10312, 26586, 0},   // precomputed-iknp
    {10312, 26701, 3},   // stream
    {135279, 16555, 0},  // v3-fresh
    {143, 14507, 0},     // v3-resumed
    {135320, 2378, 0},   // reusable-cold
    {184, 177, 0},       // reusable-warm
};

class ServingFrontsTest : public ::testing::Test {
 protected:
  // Runs every scenario once against the front on `port`, in order, and
  // returns the client's view of each session's wire.
  static std::vector<net::ClientStats> run_scenarios(
      std::uint16_t port, const std::function<void(std::size_t)>& after) {
    std::vector<net::ClientStats> out;
    std::shared_ptr<net::V3ClientState> state;
    crypto::SystemRandom id_rng;
    for (std::size_t i = 0; i < std::size(kScenarios); ++i) {
      const Scenario& sc = kScenarios[i];
      net::ClientConfig ccfg;
      ccfg.port = port;
      ccfg.bits = kBits;
      ccfg.verbose = false;
      ccfg.ot = sc.ot;
      ccfg.mode = sc.mode;
      ccfg.protocol = sc.protocol;
      ccfg.tcp.recv_timeout_ms = 10'000;
      ccfg.tcp.connect_attempts = 5;
      ccfg.tcp.connect_backoff_ms = 20;
      if (sc.fresh_state || !state) state = net::make_v3_client_state(id_rng);
      ccfg.v3_state = state;
      out.push_back(net::run_client(ccfg));
      if (after) after(i);
    }
    return out;
  }
};

TEST_F(ServingFrontsTest, EveryModeHasTheSameWireOnEveryFront) {
  const std::uint64_t want = net::demo_mac_reference(7, kBits, kRounds);
  test::TestBroker front(front_config());
  const std::vector<net::ClientStats> cs =
      run_scenarios(front.port(), nullptr);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    SCOPED_TRACE(kScenarios[i].name);
    EXPECT_TRUE(cs[i].verified);
    EXPECT_EQ(cs[i].output_value, want);
    EXPECT_EQ(cs[i].attempts, 1u);
    EXPECT_EQ((Wire{cs[i].bytes_sent, cs[i].bytes_received,
                    cs[i].chunks_received}),
              kPinned[i])
        << "drifted from the pinned wire";
  }
  EXPECT_FALSE(cs[3].pool_resumed);
  EXPECT_TRUE(cs[4].pool_resumed);
  EXPECT_TRUE(cs[6].pool_resumed);
  EXPECT_GT(cs[2].chunks_received, 1u);
  (void)stats_after(front, std::size(kScenarios));
  EXPECT_EQ(front.outstanding_claims(), 0u);
}

// The server times its OT steps and its table/label sends inside the
// session core, so every mode reports both as nonzero.
TEST_F(ServingFrontsTest, EveryModeReportsServerSideOtAndTransferTime) {
  test::TestBroker front(front_config());
  evloop::ServerStats before = front.server_stats();
  run_scenarios(front.port(), [&](std::size_t i) {
    SCOPED_TRACE(kScenarios[i].name);
    const evloop::ServerStats after = stats_after(front, i + 1);
    ASSERT_EQ(after.sessions_served, i + 1);
    EXPECT_GT(after.ot_seconds, before.ot_seconds);
    EXPECT_GT(after.transfer_seconds, before.transfer_seconds);
    before = after;
  });
}

}  // namespace
}  // namespace maxel
