// Real-concurrency protocol runs: garbler and evaluator on separate
// threads over blocking channels — no orchestrated phase interleaving,
// each party just runs its own loop, like a deployed server and client.
#include <gtest/gtest.h>

#include <thread>

#include "circuit/circuits.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "ot/iknp.hpp"
#include "proto/protocol.hpp"
#include "proto/threaded_channel.hpp"

namespace maxel::proto {
namespace {

using circuit::MacOptions;
using circuit::to_bits;
using crypto::Block;
using crypto::SystemRandom;

TEST(ThreadedChannel, BlocksUntilDataArrives) {
  auto [a, b] = ThreadedChannel::create_pair();
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    a->send_u64(1234);
  });
  EXPECT_EQ(b->recv_u64(), 1234u);  // blocks until the writer delivers
  writer.join();
}

TEST(ThreadedProtocol, SequentialMacAcrossThreads) {
  const MacOptions mac{8, 8, true};
  const circuit::Circuit c = circuit::make_mac_circuit(mac);
  const std::size_t rounds = 10;

  crypto::Prg prg(Block{0x7EAD, 1});
  std::vector<std::vector<bool>> a_bits(rounds), x_bits(rounds);
  std::uint64_t expect = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint64_t a = prg.next_u64() & 0xFF;
    const std::uint64_t x = prg.next_u64() & 0xFF;
    a_bits[r] = to_bits(a, 8);
    x_bits[r] = to_bits(x, 8);
    expect = circuit::mac_reference(expect, a, x, mac);
  }

  auto [g_ch, e_ch] = ThreadedChannel::create_pair();
  ProtocolOptions opt;
  opt.ot = OtMode::kIknp;

  std::thread garbler_thread([&, g = std::move(g_ch)]() mutable {
    SystemRandom rng(Block{0x7EAD, 2});
    GarblerParty garbler(RoundSource(c, opt.scheme, rng), *g, rng, opt.ot);
    garbler.setup_step2();
    garbler.setup_step4();
    for (std::size_t r = 0; r < rounds; ++r) {
      garbler.garble_and_send(a_bits[r]);
      garbler.finish_ot();
    }
  });

  std::uint64_t decoded = 0;
  std::thread evaluator_thread([&, e = std::move(e_ch)]() mutable {
    SystemRandom rng(Block{0x7EAD, 3});
    EvaluatorParty evaluator(c, opt, *e, rng);
    evaluator.setup_step1();
    evaluator.setup_step3();
    std::vector<bool> out;
    for (std::size_t r = 0; r < rounds; ++r) {
      evaluator.receive_and_choose(x_bits[r]);
      out = evaluator.evaluate_round();
    }
    decoded = circuit::from_bits(out);
  });

  garbler_thread.join();
  evaluator_thread.join();
  EXPECT_EQ(decoded, expect);
}

TEST(ThreadedProtocol, MillionairesWithBaseOt) {
  const circuit::Circuit c = circuit::make_millionaires_circuit(16);
  auto [g_ch, e_ch] = ThreadedChannel::create_pair();
  ProtocolOptions opt;
  opt.ot = OtMode::kBase;

  std::thread garbler_thread([&, g = std::move(g_ch)]() mutable {
    SystemRandom rng(Block{0x7EAE, 1});
    GarblerParty garbler(RoundSource(c, opt.scheme, rng), *g, rng, opt.ot);
    garbler.garble_and_send(to_bits(31337, 16));
    garbler.finish_ot();
  });

  bool result = false;
  std::thread evaluator_thread([&, e = std::move(e_ch)]() mutable {
    SystemRandom rng(Block{0x7EAE, 2});
    EvaluatorParty evaluator(c, opt, *e, rng);
    evaluator.receive_and_choose(to_bits(40000, 16));
    result = evaluator.evaluate_round().at(0);
  });

  garbler_thread.join();
  evaluator_thread.join();
  EXPECT_TRUE(result);  // 31337 < 40000
}

}  // namespace
}  // namespace maxel::proto
