// Precomputed garbling (Sec. 3's deployment model): sessions are
// produced offline by garble_session and served online by the one
// GarblerParty from a stored RoundSource — the same bytes as a live
// garbler (the client cannot tell) — and labels differ across sessions.
// Single use of the stored sessions is the spool's job
// (tests/spool_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/circuits.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "ot/precomputed_ot.hpp"
#include "proto/precompute.hpp"
#include "proto/protocol.hpp"

namespace maxel::proto {
namespace {

using circuit::MacOptions;
using circuit::to_bits;
using crypto::Block;
using crypto::SystemRandom;

// Drives one full served session against the ordinary EvaluatorParty.
std::uint64_t serve_session(const circuit::Circuit& c,
                            PrecomputedSession session,
                            const std::vector<std::uint64_t>& a_vals,
                            const std::vector<std::uint64_t>& x_vals,
                            std::size_t bits) {
  auto [g_ch, e_ch] = MemoryChannel::create_pair();
  SystemRandom g_rng(Block{1, 1});
  SystemRandom e_rng(Block{1, 2});
  GarblerParty garbler(RoundSource(std::move(session)), *g_ch, g_rng,
                       OtMode::kBase);
  ProtocolOptions opt;
  opt.ot = OtMode::kBase;
  EvaluatorParty evaluator(c, opt, *e_ch, e_rng);

  std::vector<bool> out;
  for (std::size_t r = 0; r < a_vals.size(); ++r) {
    garbler.garble_and_send(to_bits(a_vals[r], bits));
    evaluator.receive_and_choose(to_bits(x_vals[r], bits));
    garbler.finish_ot();
    out = evaluator.evaluate_round();
  }
  return circuit::from_bits(out);
}

TEST(PrecomputedServing, ServedSessionComputesCorrectMac) {
  const MacOptions mac{8, 8, true};
  const circuit::Circuit c = circuit::make_mac_circuit(mac);
  SystemRandom rng(Block{3, 3});
  PrecomputedSession session =
      garble_session(c, gc::Scheme::kHalfGates, /*rounds=*/6, rng);

  crypto::Prg prg(Block{4, 4});
  std::vector<std::uint64_t> a(6), x(6);
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    a[i] = prg.next_u64() & 0xFF;
    x[i] = prg.next_u64() & 0xFF;
    expect = circuit::mac_reference(expect, a[i], x[i], mac);
  }
  EXPECT_EQ(serve_session(c, std::move(session), a, x, 8), expect);
}

TEST(PrecomputedServing, FreshLabelsPerSession) {
  // Sec. 3: "even if the model does not change, new labels are required
  // for every garbling operation to ensure security."
  const circuit::Circuit c = circuit::make_millionaires_circuit(8);
  SystemRandom rng(Block{6, 6});
  const auto s1 = garble_session(c, gc::Scheme::kHalfGates, 1, rng);
  const auto s2 = garble_session(c, gc::Scheme::kHalfGates, 1, rng);
  EXPECT_NE(s1.delta, s2.delta);
  EXPECT_NE(s1.rounds[0].garbler_labels0[0], s2.rounds[0].garbler_labels0[0]);
  EXPECT_NE(s1.rounds[0].tables.tables[0], s2.rounds[0].tables.tables[0]);
}

TEST(PrecomputedServing, ServedSessionExhaustsAfterItsRounds) {
  const circuit::Circuit c = circuit::make_millionaires_circuit(4);
  SystemRandom rng(Block{7, 7});

  auto [g_ch, e_ch] = MemoryChannel::create_pair();
  SystemRandom g_rng(Block{8, 1});
  GarblerParty garbler(
      RoundSource(garble_session(c, gc::Scheme::kHalfGates, 1, rng)), *g_ch,
      g_rng, OtMode::kBase);
  garbler.garble_and_send(to_bits(3, 4));
  EXPECT_THROW(garbler.garble_and_send(to_bits(3, 4)), std::runtime_error);
}

TEST(PrecomputedServing, FullyOfflineServingWithBeaverOt) {
  // Precomputed tables + precomputed OT: the online phase is transfer
  // and XOR only, and still decodes the right MAC.
  const MacOptions mac{8, 8, true};
  const circuit::Circuit c = circuit::make_mac_circuit(mac);
  SystemRandom rng(Block{21, 1});
  PrecomputedSession session =
      garble_session(c, gc::Scheme::kHalfGates, 4, rng);

  // Offline OT pool over base OT.
  auto [po_s, po_r] = MemoryChannel::create_pair();
  SystemRandom s_rng(Block{21, 2});
  SystemRandom e_rng(Block{21, 3});
  ot::BaseOtSender pool_s(*po_s, s_rng);
  ot::BaseOtReceiver pool_r(*po_r, e_rng);
  const ot::OtPool pool =
      ot::precompute_ot_pool(pool_s, pool_r, 4 * 8, s_rng, e_rng);

  auto [g_ch, e_ch] = MemoryChannel::create_pair();
  ot::PrecomputedOtSender ot_s(*g_ch, pool.sender_pairs);
  ot::PrecomputedOtReceiver ot_r(*e_ch, pool.choices, pool.received);
  GarblerParty garbler(RoundSource(std::move(session)), *g_ch, ot_s);
  EvaluatorParty evaluator(c, gc::Scheme::kHalfGates, *e_ch, ot_r);

  crypto::Prg prg(Block{22, 22});
  std::uint64_t expect = 0;
  std::vector<bool> out;
  for (int r = 0; r < 4; ++r) {
    const std::uint64_t a = prg.next_u64() & 0xFF;
    const std::uint64_t x = prg.next_u64() & 0xFF;
    expect = circuit::mac_reference(expect, a, x, mac);
    garbler.garble_and_send(to_bits(a, 8));
    evaluator.receive_and_choose(to_bits(x, 8));
    garbler.finish_ot();
    out = evaluator.evaluate_round();
  }
  EXPECT_EQ(circuit::from_bits(out), expect);
}

// Forwards to `inner` and keeps a copy of every byte this end sends.
class RecordingChannel final : public Channel {
 public:
  explicit RecordingChannel(Channel& inner) : inner_(inner) {}
  std::vector<std::uint8_t> sent;

 protected:
  void raw_send(const std::uint8_t* data, std::size_t n) override {
    sent.insert(sent.end(), data, data + n);
    inner_.send_bytes(data, n);
  }
  void raw_recv(std::uint8_t* data, std::size_t n) override {
    inner_.recv_bytes(data, n);
  }

 private:
  Channel& inner_;
};

TEST(PrecomputedServing, StoredAndLiveSourcesSendIdenticalStreams) {
  // Precomputation is invisible on the wire: a GarblerParty serving a
  // stored garble_session and one garbling live from the same seed send
  // the same bytes, and the evaluator answers with the same bytes.
  const MacOptions mac{8, 8, true};
  const circuit::Circuit c = circuit::make_mac_circuit(mac);
  constexpr std::size_t kRounds = 5;
  for (const OtMode ot : {OtMode::kBase, OtMode::kIknp}) {
    const auto run = [&](bool stored) {
      auto [g_mem, e_mem] = MemoryChannel::create_pair();
      RecordingChannel g_ch(*g_mem), e_ch(*e_mem);
      SystemRandom garble_rng(Block{31, 1});
      SystemRandom ot_rng(Block{31, 2});
      SystemRandom e_rng(Block{31, 3});
      GarblerParty garbler(
          stored ? RoundSource(garble_session(c, gc::Scheme::kHalfGates,
                                              kRounds, garble_rng))
                 : RoundSource(c, gc::Scheme::kHalfGates, garble_rng),
          g_ch, ot_rng, ot);
      ProtocolOptions opt;
      opt.ot = ot;
      EvaluatorParty evaluator(c, opt, e_ch, e_rng);
      evaluator.setup_step1();
      garbler.setup_step2();
      evaluator.setup_step3();
      garbler.setup_step4();
      crypto::Prg prg(Block{32, 32});
      std::uint64_t expect = 0;
      std::vector<bool> out;
      for (std::size_t r = 0; r < kRounds; ++r) {
        const std::uint64_t a = prg.next_u64() & 0xFF;
        const std::uint64_t x = prg.next_u64() & 0xFF;
        expect = circuit::mac_reference(expect, a, x, mac);
        garbler.garble_and_send(to_bits(a, 8));
        evaluator.receive_and_choose(to_bits(x, 8));
        garbler.finish_ot();
        out = evaluator.evaluate_round();
      }
      EXPECT_EQ(circuit::from_bits(out), expect);
      return std::make_pair(g_ch.sent, e_ch.sent);
    };
    const auto stored = run(true);
    const auto live = run(false);
    EXPECT_FALSE(stored.first.empty());
    EXPECT_EQ(stored.first, live.first)
        << "garbler stream, ot=" << static_cast<int>(ot);
    EXPECT_EQ(stored.second, live.second)
        << "evaluator stream, ot=" << static_cast<int>(ot);
  }
}

TEST(PrecomputedServing, MillionairesEndToEnd) {
  const circuit::Circuit c = circuit::make_millionaires_circuit(16);
  SystemRandom rng(Block{9, 9});

  const auto run = [&](std::uint64_t a, std::uint64_t b) {
    return serve_session(c, garble_session(c, gc::Scheme::kHalfGates, 1, rng),
                         {a}, {b}, 16) != 0;
  };
  EXPECT_TRUE(run(100, 200));
  EXPECT_FALSE(run(200, 100));
  EXPECT_FALSE(run(150, 150));
}

}  // namespace
}  // namespace maxel::proto
