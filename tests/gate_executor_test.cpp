// Cross-gate batching must not change a single byte: the n-wide gate
// kernels equal n scalar calls, and a pinned digest of everything the
// simulator and the circuit garbler emit (tables, labels, stats) holds.
// The digests were recorded on the gate-at-a-time implementation, before
// the wave plan and the batched simulator cycle existed.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "circuit/circuits.hpp"
#include "core/hw_netlist.hpp"
#include "core/maxelerator.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/scheme.hpp"

namespace maxel {
namespace {

using crypto::Block;
using crypto::SystemRandom;

// FNV-1a over 64-bit words, little-endian byte order.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(const Block& b) {
    add(b.lo);
    add(b.hi);
  }
  void add_double(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  void add(const std::vector<Block>& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (const auto& b : v) add(b);
  }
  void add(const gc::RoundTables& t) {
    add(static_cast<std::uint64_t>(t.tables.size()));
    for (const auto& table : t.tables)
      for (const auto& ct : table.ct) add(ct);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::vector<Block> active_labels(const std::vector<Block>& labels0,
                                 const std::vector<bool>& bits,
                                 const Block& delta) {
  std::vector<Block> out(labels0.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = bits[i] ? labels0[i] ^ delta : labels0[i];
  return out;
}

// Nine simulator rounds at width b: every table, every label the host
// receives, the evaluator's output labels on those tables, and stats.
std::uint64_t sim_digest(std::size_t b) {
  constexpr std::uint64_t kRounds = 9;
  core::MaxeleratorConfig cfg;
  cfg.bit_width = b;
  SystemRandom rng(Block{b, 0x5EED});
  core::MaxeleratorSim sim(cfg, rng);
  gc::CircuitEvaluator ev(sim.netlist(), gc::Scheme::kHalfGates);
  crypto::Prg inputs(Block{b, 0x1A});

  Fnv h;
  sim.run(kRounds, [&](core::RoundOutput&& ro) {
    h.add(ro.round);
    h.add(ro.tables);
    h.add(ro.garbler_labels0);
    h.add(ro.evaluator_labels0);
    h.add(ro.fixed_labels0[0]);
    h.add(ro.fixed_labels0[1]);
    h.add(ro.output_labels0);
    h.add(ro.initial_state_active);
    if (ro.round == 0) ev.set_initial_state_labels(ro.initial_state_active);
    const auto g = active_labels(ro.garbler_labels0, inputs.bits(b),
                                 sim.delta());
    const auto e = active_labels(ro.evaluator_labels0, inputs.bits(b),
                                 sim.delta());
    h.add(ev.eval_round(ro.tables, g, e,
                        {ro.fixed_labels0[0],
                         ro.fixed_labels0[1] ^ sim.delta()}));
  });

  const core::MaxeleratorStats& s = sim.stats();
  for (const std::uint64_t v :
       {std::uint64_t{s.bit_width}, std::uint64_t{s.seg1_cores},
        std::uint64_t{s.seg2_cores}, std::uint64_t{s.cores}, s.rounds,
        s.total_stages, s.total_cycles, s.prologue_stages,
        std::uint64_t{s.pipeline_latency_stages}, s.tables, s.table_bytes,
        s.busy_slots, s.idle_slots, std::uint64_t{s.steady_idle_per_stage},
        std::uint64_t{s.max_ops_per_stage}, s.labels_generated, s.rng_bits,
        s.rng_peak_bits_per_cycle, s.rng_underflows,
        std::uint64_t{s.memory_peak_fill}, s.memory_overflow_stalls,
        s.pcie_bytes})
    h.add(v);
  for (const double d : {s.rng_gated_fraction, s.pcie_seconds, s.clock_mhz,
                         s.cycles_per_mac})
    h.add_double(d);
  return h.value();
}

// Three rounds of a CircuitGarbler: tables, round material, initial
// state labels and the evaluator's output labels on those tables.
std::uint64_t garbler_digest(const circuit::Circuit& c, gc::Scheme scheme,
                             gc::LabelLayout layout, std::uint64_t seed) {
  constexpr int kRounds = 3;
  SystemRandom rng(Block{seed, 0x6A});
  gc::CircuitGarbler g(c, scheme, rng, layout);
  gc::CircuitEvaluator ev(c, scheme);
  crypto::Prg inputs(Block{seed, 0x1B});

  Fnv h;
  h.add(g.delta());
  for (int r = 0; r < kRounds; ++r) {
    const gc::RoundMaterial m = g.garble_round_material();
    h.add(m.tables);
    h.add(m.garbler_labels0);
    for (const auto& [m0, m1] : m.evaluator_pairs) {
      h.add(m0);
      h.add(m1);
    }
    h.add(m.fixed_labels);
    for (const bool bit : m.output_map) h.add(bit ? 1u : 0u);
    if (r == 0) {
      h.add(g.initial_state_labels());
      ev.set_initial_state_labels(g.initial_state_labels());
    }
    const auto gbits = inputs.bits(c.garbler_inputs.size());
    const auto ebits = inputs.bits(c.evaluator_inputs.size());
    std::vector<Block> e(ebits.size());
    for (std::size_t i = 0; i < e.size(); ++i)
      e[i] = ebits[i] ? m.evaluator_pairs[i].second
                      : m.evaluator_pairs[i].first;
    h.add(ev.eval_round(m.tables,
                        active_labels(m.garbler_labels0, gbits, g.delta()),
                        e, m.fixed_labels));
  }
  return h.value();
}

const gc::Scheme kSchemes[] = {gc::Scheme::kClassic4, gc::Scheme::kGrr3,
                               gc::Scheme::kHalfGates};

// One digest over both layouts and all three schemes, on the served
// b=16 MAC and on the hardware b=16 netlist.
std::uint64_t all_garbler_digest() {
  const circuit::Circuit served =
      circuit::make_mac_circuit(circuit::MacOptions{16, 16, true});
  const core::HwMacNetlist hw = core::build_hw_mac_netlist(16);
  Fnv h;
  std::uint64_t seed = 1;
  for (const circuit::Circuit* c : {&served, &hw.circuit})
    for (const gc::Scheme s : kSchemes)
      for (const gc::LabelLayout l :
           {gc::LabelLayout::kDense, gc::LabelLayout::kPlanned})
        h.add(garbler_digest(*c, s, l, seed++));
  return h.value();
}

// Recorded on the gate-at-a-time simulator and garbler.
constexpr std::uint64_t kPinnedSim[] = {
    0x63F94FED2CFF8513ull,  // b=8
    0x206A5F001D0E0F30ull,  // b=16
    0xDDF58F2C48960ED5ull,  // b=32
};
constexpr std::uint64_t kPinnedGarbler = 0xB7F2C866EE345279ull;

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llXull",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- n-wide kernels -------------------------------------------------------

const circuit::GateType kNonFree[] = {
    circuit::GateType::kAnd, circuit::GateType::kNand, circuit::GateType::kOr,
    circuit::GateType::kNor};

// Widths on both sides of GateGarbler::kWindow = 16 gates (17 and 64
// split into chunks), whose block counts also reach the 4- and 2-block
// tails of the AES-NI ladder (a 3-gate window garbles 12 blocks and
// evaluates 6).
const std::size_t kWidths[] = {1, 3, 16, 17, 64};

TEST(GateKernels, GarbleNEqualsScalarCalls) {
  for (const gc::Scheme scheme : kSchemes) {
    SystemRandom rng(Block{31, static_cast<std::uint64_t>(scheme)});
    const gc::GateGarbler g(scheme, crypto::random_delta(rng));
    for (const std::size_t n : kWidths) {
      SCOPED_TRACE(std::string(gc::scheme_name(scheme)) + " n=" +
                   std::to_string(n));
      std::vector<circuit::AndForm> f(n);
      std::vector<Block> a0(n), b0(n), tw(n), out0(n);
      for (std::size_t i = 0; i < n; ++i) {
        f[i] = circuit::and_form(kNonFree[i % 4]);
        a0[i] = rng.next_block();
        b0[i] = rng.next_block();
        tw[i] = gc::gate_tweak(static_cast<std::uint32_t>(i), n);
      }
      std::vector<gc::GarbledTable> tables(n);
      g.garble_n(f.data(), a0.data(), b0.data(), tw.data(), tables.data(),
                 out0.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        gc::GarbledTable t;
        EXPECT_EQ(g.garble(f[i], a0[i], b0[i], tw[i], t), out0[i]) << i;
        EXPECT_EQ(t, tables[i]) << i;
      }
    }
  }
}

TEST(GateKernels, EvalNEqualsScalarCallsAndDecodes) {
  for (const gc::Scheme scheme : kSchemes) {
    SystemRandom rng(Block{32, static_cast<std::uint64_t>(scheme)});
    const Block delta = crypto::random_delta(rng);
    const gc::GateGarbler g(scheme, delta);
    const gc::GateGarbler ev(scheme, Block::zero());
    crypto::Prg bits(Block{33, 0});
    for (const std::size_t n : kWidths) {
      SCOPED_TRACE(std::string(gc::scheme_name(scheme)) + " n=" +
                   std::to_string(n));
      std::vector<circuit::AndForm> f(n);
      std::vector<Block> a0(n), b0(n), tw(n), out0(n);
      std::vector<Block> a(n), b(n), got(n);
      std::vector<bool> want(n);
      for (std::size_t i = 0; i < n; ++i) {
        f[i] = circuit::and_form(kNonFree[i % 4]);
        a0[i] = rng.next_block();
        b0[i] = rng.next_block();
        tw[i] = gc::gate_tweak(static_cast<std::uint32_t>(i), 7);
        const bool va = bits.next_bit(), vb = bits.next_bit();
        a[i] = va ? a0[i] ^ delta : a0[i];
        b[i] = vb ? b0[i] ^ delta : b0[i];
        want[i] = circuit::eval_gate(kNonFree[i % 4], va, vb);
      }
      std::vector<gc::GarbledTable> tables(n);
      g.garble_n(f.data(), a0.data(), b0.data(), tw.data(), tables.data(),
                 out0.data(), n);
      ev.eval_n(a.data(), b.data(), tables.data(), tw.data(), got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ev.evaluate(a[i], b[i], tables[i], tw[i]), got[i]) << i;
        EXPECT_EQ(got[i], want[i] ? out0[i] ^ delta : out0[i]) << i;
      }
    }
  }
}

// --- wave plan ------------------------------------------------------------

// Walks a plan the way the dense garbler does, checking that every gate
// runs once, after its inputs, and that no AND of a window reads
// another AND of the same window; returns the plan's wave count.
std::size_t check_plan(const circuit::Circuit& c, const gc::WavePlan& plan) {
  std::vector<char> ready(c.num_wires, 0);
  ready[circuit::kConstZero] = ready[circuit::kConstOne] = 1;
  for (const auto w : c.garbler_inputs) ready[w] = 1;
  for (const auto w : c.evaluator_inputs) ready[w] = 1;
  for (const auto& d : c.dffs) ready[d.q] = 1;
  std::vector<char> table_seen(c.and_count(), 0);
  std::size_t fi = 0, ai = 0;
  for (const auto& wave : plan.waves) {
    for (; fi < wave.free_end; ++fi) {
      const auto& g = plan.free_gates[fi];
      EXPECT_TRUE(ready[g.a] && ready[g.b]) << "free gate " << fi;
      ready[g.out] = 1;
    }
    const std::size_t first = ai;
    for (; ai < wave.and_end; ++ai) {
      const auto& g = plan.and_gates[ai];
      EXPECT_TRUE(ready[g.a] && ready[g.b]) << "AND " << ai;
      const auto& ng = c.gates[g.gate];
      EXPECT_TRUE(ng.a == g.a && ng.b == g.b && ng.out == g.out);
      EXPECT_FALSE(table_seen[g.table]);
      table_seen[g.table] = 1;
    }
    for (std::size_t i = first; i < ai; ++i) ready[plan.and_gates[i].out] = 1;
  }
  EXPECT_EQ(fi, c.xor_count());
  EXPECT_EQ(ai, c.and_count());
  return plan.waves.size();
}

TEST(WavePlan, EveryGateOnceAfterItsInputsWithIndependentWindows) {
  const circuit::Circuit served =
      circuit::make_mac_circuit(circuit::MacOptions{16, 16, true});
  const core::HwMacNetlist hw = core::build_hw_mac_netlist(16);
  for (const circuit::Circuit* c : {&served, &hw.circuit}) {
    const gc::WavePlan plan = gc::plan_waves(*c);
    const std::size_t waves = check_plan(*c, plan);
    // The whole point: windows far wider than one gate.
    EXPECT_GT(static_cast<double>(c->and_count()) /
                  static_cast<double>(waves),
              8.0);
  }
}

TEST(PinnedDigest, SimulatorTablesLabelsAndStats) {
  const std::size_t widths[] = {8, 16, 32};
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(hex(sim_digest(widths[i])), hex(kPinnedSim[i]))
        << "b=" << widths[i];
}

TEST(PinnedDigest, CircuitGarblerBothLayoutsAllSchemes) {
  EXPECT_EQ(hex(all_garbler_digest()), hex(kPinnedGarbler));
}

}  // namespace
}  // namespace maxel
