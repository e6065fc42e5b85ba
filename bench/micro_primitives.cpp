// Micro-benchmarks (google-benchmark) of every primitive on the garbling
// hot path: AES, the fixed-key hash, gate garbling and evaluation per
// scheme, the n-wide half-gates kernels, whole-MAC garbling, base OT and
// IKNP extension, and the MAXelerator simulator itself.
#include <benchmark/benchmark.h>

#include "baseline/tinygarble.hpp"
#include "circuit/circuits.hpp"
#include "core/maxelerator.hpp"
#include "crypto/aes.hpp"
#include "crypto/gc_hash.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "ot/base_ot.hpp"
#include "ot/iknp.hpp"
#include "proto/channel.hpp"

namespace {

using namespace maxel;
using crypto::Block;

void BM_Aes128Encrypt(benchmark::State& state) {
  const crypto::Aes128 aes;
  Block b{1, 2};
  for (auto _ : state) {
    b = aes.encrypt(b);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_Aes128Encrypt);

void BM_GcHash(benchmark::State& state) {
  const crypto::GcHash h;
  Block x{3, 4};
  std::uint64_t t = 0;
  for (auto _ : state) {
    x = h(x, Block{t++, 0});
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_GcHash);

void BM_GarbleGate(benchmark::State& state) {
  const auto scheme = static_cast<gc::Scheme>(state.range(0));
  crypto::SystemRandom rng(Block{7, 7});
  const Block delta = crypto::random_delta(rng);
  const gc::GateGarbler g(scheme, delta);
  Block a0 = rng.next_block();
  const Block b0 = rng.next_block();
  gc::GarbledTable t;
  std::uint64_t tw = 0;
  for (auto _ : state) {
    a0 = g.garble(circuit::and_form(circuit::GateType::kAnd), a0, b0,
                  Block{2 * tw++, 0}, t);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GarbleGate)
    ->Arg(static_cast<int>(gc::Scheme::kClassic4))
    ->Arg(static_cast<int>(gc::Scheme::kGrr3))
    ->Arg(static_cast<int>(gc::Scheme::kHalfGates));

void BM_EvaluateGate(benchmark::State& state) {
  crypto::SystemRandom rng(Block{8, 8});
  const Block delta = crypto::random_delta(rng);
  const gc::GateGarbler g(gc::Scheme::kHalfGates, delta);
  const gc::GateGarbler ev(gc::Scheme::kHalfGates, Block::zero());
  const Block a0 = rng.next_block();
  const Block b0 = rng.next_block();
  gc::GarbledTable t;
  (void)g.garble(circuit::and_form(circuit::GateType::kAnd), a0, b0,
                 Block{0, 0}, t);
  Block a = a0;
  for (auto _ : state) {
    a = ev.evaluate(a, b0, t, Block{0, 0});
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_EvaluateGate);

// One window of n independent ANDs through GateGarbler::garble_n: one
// hash batch of 4n blocks. Items are ANDs, so the per-item time is the
// cost of one AND at that window width (n = 1 is the scalar path).
void BM_GarbleWindow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  crypto::SystemRandom rng(Block{9, n});
  const gc::GateGarbler g(gc::Scheme::kHalfGates, crypto::random_delta(rng));
  std::vector<circuit::AndForm> f(n,
                                  circuit::and_form(circuit::GateType::kAnd));
  std::vector<Block> a0(n), b0(n), tw(n), out0(n);
  for (std::size_t i = 0; i < n; ++i) {
    a0[i] = rng.next_block();
    b0[i] = rng.next_block();
    tw[i] = Block{2 * i, 0};
  }
  std::vector<gc::GarbledTable> tables(n);
  for (auto _ : state) {
    g.garble_n(f.data(), a0.data(), b0.data(), tw.data(), tables.data(),
               out0.data(), n);
    a0.swap(out0);  // feed outputs back so no window is hoisted
    benchmark::DoNotOptimize(tables.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GarbleWindow)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// The evaluator's side: one window of n ANDs, one hash batch of 2n.
void BM_EvalWindow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  crypto::SystemRandom rng(Block{10, n});
  const gc::GateGarbler g(gc::Scheme::kHalfGates, crypto::random_delta(rng));
  const gc::GateGarbler ev(gc::Scheme::kHalfGates, Block::zero());
  std::vector<circuit::AndForm> f(n,
                                  circuit::and_form(circuit::GateType::kAnd));
  std::vector<Block> a(n), b(n), tw(n), out(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.next_block();
    b[i] = rng.next_block();
    tw[i] = Block{2 * i, 0};
  }
  std::vector<gc::GarbledTable> tables(n);
  g.garble_n(f.data(), a.data(), b.data(), tw.data(), tables.data(),
             out.data(), n);
  for (auto _ : state) {
    ev.eval_n(a.data(), b.data(), tables.data(), tw.data(), out.data(), n);
    a.swap(out);
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EvalWindow)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_GarbleMacRound(benchmark::State& state) {
  const auto b = static_cast<std::size_t>(state.range(0));
  const circuit::MacOptions opt{b, b, true,
                                circuit::Builder::MulStructure::kSerial};
  const circuit::Circuit c = circuit::make_mac_circuit(opt);
  crypto::SystemRandom rng(Block{b, 3});
  gc::CircuitGarbler g(c, gc::Scheme::kHalfGates, rng);
  for (auto _ : state) {
    auto tables = g.garble_round();
    benchmark::DoNotOptimize(tables);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["ANDs"] = static_cast<double>(c.and_count());
}
BENCHMARK(BM_GarbleMacRound)->Arg(8)->Arg(16)->Arg(32);

void BM_MaxeleratorSimRound(benchmark::State& state) {
  const auto b = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    core::MaxeleratorConfig cfg;
    cfg.bit_width = b;
    crypto::SystemRandom rng(Block{b, 4});
    core::MaxeleratorSim sim(cfg, rng);
    state.ResumeTiming();
    sim.run(8);
    benchmark::DoNotOptimize(sim.stats().tables);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
// Arg(16) is the served and conv-layer width.
BENCHMARK(BM_MaxeleratorSimRound)->Arg(8)->Arg(16)->Arg(32);

void BM_BaseOt(benchmark::State& state) {
  crypto::SystemRandom s_rng(Block{21, 1});
  crypto::SystemRandom r_rng(Block{21, 2});
  for (auto _ : state) {
    auto [s_ch, r_ch] = proto::MemoryChannel::create_pair();
    ot::BaseOtSender sender(*s_ch, s_rng);
    ot::BaseOtReceiver receiver(*r_ch, r_rng);
    std::vector<std::pair<Block, Block>> msgs(16);
    for (auto& [m0, m1] : msgs) {
      m0 = s_rng.next_block();
      m1 = s_rng.next_block();
    }
    const std::vector<bool> choices(16, true);
    auto out = ot::run_ot(sender, receiver, msgs, choices);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_BaseOt);

void BM_IknpExtension(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  crypto::SystemRandom s_rng(Block{22, 1});
  crypto::SystemRandom r_rng(Block{22, 2});
  auto [s_ch, r_ch] = proto::MemoryChannel::create_pair();
  ot::IknpSender sender(*s_ch, s_rng);
  ot::IknpReceiver receiver(*r_ch, r_rng);
  ot::iknp_setup(sender, receiver);
  std::vector<std::pair<Block, Block>> msgs(n);
  for (auto& [m0, m1] : msgs) {
    m0 = s_rng.next_block();
    m1 = s_rng.next_block();
  }
  crypto::Prg prg(Block{5, 5});
  for (auto _ : state) {
    const std::vector<bool> choices = prg.bits(n);
    auto out = ot::run_ot(sender, receiver, msgs, choices);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_IknpExtension)->Arg(1024)->Arg(8192);

void BM_Prg(benchmark::State& state) {
  crypto::Prg prg(Block{6, 6});
  for (auto _ : state) {
    Block b = prg.next_block();
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_Prg);

}  // namespace

BENCHMARK_MAIN();
