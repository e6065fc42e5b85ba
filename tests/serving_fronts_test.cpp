// One session core, two fronts: net::Server and evloop::EvBroker both
// serve every connection through evloop::EvSession, so a client must see
// the same wire on each of them.
//
//   * wire identity: one client session per mode against each front —
//     precomputed with base OT and with IKNP, stream, v3 fresh then
//     resumed, reusable cold then warm — with ClientStats bytes (and
//     stream chunks) equal across the fronts AND equal to the constants
//     pinned below, which were recorded from the separate blocking
//     serve paths the session core replaced;
//   * server-side timing: every mode reports nonzero ot_seconds and
//     transfer_seconds on every front.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "crypto/rng.hpp"
#include "evloop/ev_broker.hpp"
#include "net/client.hpp"
#include "net/demo_inputs.hpp"
#include "net/server.hpp"
#include "net/v3_service.hpp"

namespace maxel {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kBits = 8;
constexpr std::size_t kRounds = 6;
constexpr std::size_t kChunkRounds = 2;  // several stream chunks

enum class FrontKind { kServer, kEvBroker };

const char* front_name(FrontKind k) {
  switch (k) {
    case FrontKind::kServer:
      return "net::Server";
    case FrontKind::kEvBroker:
      return "evloop::EvBroker";
  }
  return "?";
}

// One running front on an ephemeral loopback port; stopped and joined
// on destruction.
class Front {
 public:
  Front(FrontKind kind, const fs::path& spool_dir) {
    switch (kind) {
      case FrontKind::kServer: {
        net::ServerConfig cfg;
        cfg.bind_addr = "127.0.0.1";
        cfg.port = 0;
        cfg.bits = kBits;
        cfg.rounds_per_session = kRounds;
        cfg.stream_chunk_rounds = kChunkRounds;
        cfg.accept_poll_ms = 50;
        cfg.verbose = false;
        cfg.tcp.recv_timeout_ms = 10'000;
        auto s = std::make_shared<net::Server>(cfg);
        port_ = s->port();
        stats_ = [s] { return s->stats(); };
        claims_ = [s] { return s->v3_outstanding_claims(); };
        stop_ = [s] { s->request_stop(); };
        thread_ = std::thread([s] { s->serve(); });
        break;
      }
      case FrontKind::kEvBroker: {
        evloop::EvBrokerConfig cfg;
        cfg.bind_addr = "127.0.0.1";
        cfg.port = 0;
        cfg.bits = kBits;
        cfg.rounds_per_session = kRounds;
        cfg.stream_chunk_rounds = kChunkRounds;
        cfg.shards = 1;
        cfg.spool_dir = spool_dir.string();
        cfg.verbose = false;
        cfg.tcp.recv_timeout_ms = 10'000;
        auto b = std::make_shared<evloop::EvBroker>(cfg);
        port_ = b->port();
        stats_ = [b] { return b->stats().server; };
        claims_ = [b] { return b->v3_outstanding_claims(); };
        stop_ = [b] { b->request_stop(); };
        thread_ = std::thread([b] { b->run(); });
        break;
      }
    }
  }
  ~Front() {
    stop_();
    thread_.join();
  }
  Front(const Front&) = delete;
  Front& operator=(const Front&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] net::ServerStats stats() const { return stats_(); }
  [[nodiscard]] std::uint64_t outstanding_claims() const { return claims_(); }

  // The front folds a session into its stats after the client already
  // holds its last byte; poll until `n` sessions are on the books.
  [[nodiscard]] net::ServerStats stats_after(std::uint64_t n) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    net::ServerStats st = stats();
    while (st.sessions_served < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      st = stats();
    }
    return st;
  }

 private:
  std::uint16_t port_ = 0;
  std::function<net::ServerStats()> stats_;
  std::function<std::uint64_t()> claims_;
  std::function<void()> stop_;
  std::thread thread_;
};

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
  void SetUp() override {
    spool_dir_ = fs::temp_directory_path() /
                 ("maxel_fronts_test_" +
                  std::to_string(
                      ::testing::UnitTest::GetInstance()->random_seed()) +
                  "_" + ::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name());
    fs::remove_all(spool_dir_);
  }
  void TearDown() override { fs::remove_all(spool_dir_); }

  // Runs every scenario once against `front`, in order, and returns the
  // client's view of each session's wire.
  static std::vector<net::ClientStats> run_scenarios(
      const Front& front, const std::function<void(std::size_t)>& after) {
    std::vector<net::ClientStats> out;
    std::shared_ptr<net::V3ClientState> state;
    crypto::SystemRandom id_rng;
    for (std::size_t i = 0; i < std::size(kScenarios); ++i) {
      const Scenario& sc = kScenarios[i];
      net::ClientConfig ccfg;
      ccfg.port = front.port();
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

  fs::path spool_dir_;
};

TEST_F(ServingFrontsTest, EveryModeHasTheSameWireOnEveryFront) {
  const std::uint64_t want = net::demo_mac_reference(7, kBits, kRounds);
  std::vector<std::vector<Wire>> wires;
  for (FrontKind kind : {FrontKind::kServer, FrontKind::kEvBroker}) {
    SCOPED_TRACE(front_name(kind));
    fs::remove_all(spool_dir_);
    Front front(kind, spool_dir_);
    const std::vector<net::ClientStats> cs = run_scenarios(front, nullptr);
    std::vector<Wire> w;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      SCOPED_TRACE(kScenarios[i].name);
      EXPECT_TRUE(cs[i].verified);
      EXPECT_EQ(cs[i].output_value, want);
      EXPECT_EQ(cs[i].attempts, 1u);
      w.push_back({cs[i].bytes_sent, cs[i].bytes_received,
                   cs[i].chunks_received});
    }
    EXPECT_FALSE(cs[3].pool_resumed);
    EXPECT_TRUE(cs[4].pool_resumed);
    EXPECT_TRUE(cs[6].pool_resumed);
    EXPECT_GT(cs[2].chunks_received, 1u);
    (void)front.stats_after(std::size(kScenarios));
    EXPECT_EQ(front.outstanding_claims(), 0u);
    wires.push_back(std::move(w));
  }
  for (std::size_t i = 0; i < std::size(kScenarios); ++i) {
    SCOPED_TRACE(kScenarios[i].name);
    EXPECT_EQ(wires[1][i], wires[0][i]) << "evloop::EvBroker vs net::Server";
    EXPECT_EQ(wires[0][i], kPinned[i]) << "drifted from the pinned wire";
  }
}

// The server times its OT steps and its table/label sends inside the
// session core, so every mode on every front reports both as nonzero.
TEST_F(ServingFrontsTest, EveryModeReportsServerSideOtAndTransferTime) {
  for (FrontKind kind : {FrontKind::kServer, FrontKind::kEvBroker}) {
    SCOPED_TRACE(front_name(kind));
    fs::remove_all(spool_dir_);
    Front front(kind, spool_dir_);
    net::ServerStats before = front.stats();
    run_scenarios(front, [&](std::size_t i) {
      SCOPED_TRACE(kScenarios[i].name);
      const net::ServerStats after = front.stats_after(i + 1);
      ASSERT_EQ(after.sessions_served, i + 1);
      EXPECT_GT(after.ot_seconds, before.ot_seconds);
      EXPECT_GT(after.transfer_seconds, before.transfer_seconds);
      before = after;
    });
  }
}

}  // namespace
}  // namespace maxel
