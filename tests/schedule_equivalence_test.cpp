// Locality scheduling must be invisible to every garbling mode: the
// reordered netlist (circuit::schedule_for_locality) computes the same
// function, so all four session modes — precomputed, streaming, v3 and
// reusable — must decode bit-for-bit identical outputs on the scheduled
// and unscheduled circuits over the same random input vectors. Also
// pins the planned label layout (gc::LabelLayout::kPlanned) to the
// dense one: same seed, byte-identical round material.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/bristol.hpp"
#include "circuit/circuits.hpp"
#include "circuit/fp16.hpp"
#include "circuit/montgomery.hpp"
#include "circuit/netlist.hpp"
#include "circuit/optimize.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/reusable.hpp"
#include "gc/streaming_evaluator.hpp"
#include "gc/v3.hpp"
#include "proto/chunk_io.hpp"
#include "proto/precompute.hpp"

namespace maxel {
namespace {

using circuit::Circuit;
using circuit::MacOptions;
using circuit::RoundInputs;
using crypto::Block;
using crypto::Prg;
using crypto::SystemRandom;

// Exact decoded-output representation for circuits of any output width
// (the Montgomery netlists exceed 64 output wires): 64-bit words,
// LSB-first.
using Words = std::vector<std::uint64_t>;

Words from_bits(const std::vector<bool>& bits) {
  Words v(bits.empty() ? 1 : (bits.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) v[i / 64] |= 1ull << (i % 64);
  return v;
}

std::vector<bool> mask_bits(const std::vector<bool>& v,
                            const std::vector<bool>& flips) {
  std::vector<bool> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i] ^ flips[i];
  return out;
}

// Per-round decoded output words of the plaintext reference.
std::vector<Words> run_plain(const Circuit& c,
                             const std::vector<RoundInputs>& rounds) {
  std::vector<bool> state;
  for (const auto& d : c.dffs) state.push_back(d.init);
  std::vector<Words> out;
  for (const auto& r : rounds)
    out.push_back(
        from_bits(eval_plain(c, r.garbler_bits, r.evaluator_bits, &state)));
  return out;
}

// Selects active input labels from a RoundMaterial and evaluates one
// round on a StreamingEvaluator (the precomputed driver below).
Words eval_material_round(const gc::RoundMaterial& m, const Block& delta,
                          const RoundInputs& in, gc::StreamingEvaluator& ev) {
  std::vector<Block> g(in.garbler_bits.size());
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] = in.garbler_bits[i] ? m.garbler_labels0[i] ^ delta
                              : m.garbler_labels0[i];
  std::vector<Block> e(in.evaluator_bits.size());
  for (std::size_t i = 0; i < e.size(); ++i)
    e[i] = in.evaluator_bits[i] ? m.evaluator_pairs[i].second
                                : m.evaluator_pairs[i].first;
  const auto out = ev.eval_round(m.tables, g, e, m.fixed_labels);
  return from_bits(gc::decode_with_map(out, m.output_map));
}

std::vector<Words> run_precomputed(
    const Circuit& c, const std::vector<RoundInputs>& rounds,
    std::uint64_t seed) {
  SystemRandom rng(Block{seed, 0x9C0});
  const proto::PrecomputedSession s =
      proto::garble_session(c, gc::Scheme::kHalfGates, rounds.size(), rng);
  gc::StreamingEvaluator ev(c, gc::Scheme::kHalfGates);
  ev.set_initial_state_labels(s.initial_state_labels);
  std::vector<Words> out;
  for (std::size_t r = 0; r < rounds.size(); ++r)
    out.push_back(eval_material_round(s.rounds[r], s.delta, rounds[r], ev));
  return out;
}

// Stream mode as the session core runs it: one planned-layout garbler,
// rounds garbled inline into 3-round wire chunks (proto::garble_chunk),
// evaluator labels selected from the pairs kept back for the OT.
std::vector<Words> run_streaming(
    const Circuit& c, const std::vector<RoundInputs>& rounds,
    std::uint64_t seed) {
  SystemRandom rng(Block{seed, 0x57E});
  gc::CircuitGarbler garbler(c, gc::Scheme::kHalfGates, rng,
                             gc::LabelLayout::kPlanned);
  gc::StreamingEvaluator ev(c, gc::Scheme::kHalfGates);
  std::vector<Words> out;
  for (std::size_t first = 0; first < rounds.size(); first += 3) {
    std::vector<std::vector<bool>> a_bits;
    for (std::size_t r = first; r < std::min(first + 3, rounds.size()); ++r)
      a_bits.push_back(rounds[r].garbler_bits);
    std::vector<std::vector<std::pair<Block, Block>>> pairs;
    const proto::WireChunk wc = proto::garble_chunk(garbler, a_bits, pairs);
    if (wc.first_round == 0)
      ev.set_initial_state_labels(wc.initial_state_labels);
    for (std::size_t i = 0; i < wc.rounds.size(); ++i) {
      const proto::WireChunk::Round& wr = wc.rounds[i];
      const RoundInputs& in = rounds[first + i];
      std::vector<Block> e(in.evaluator_bits.size());
      for (std::size_t j = 0; j < e.size(); ++j)
        e[j] = in.evaluator_bits[j] ? pairs[i][j].second : pairs[i][j].first;
      const auto labels =
          ev.eval_round(wr.tables, wr.garbler_labels, e, wr.fixed_labels);
      out.push_back(from_bits(gc::decode_with_map(labels, wr.output_map)));
    }
  }
  return out;
}

std::vector<Words> run_v3(const Circuit& c,
                          const std::vector<RoundInputs>& rounds,
                          std::uint64_t seed) {
  SystemRandom rng(Block{seed, 0x13});
  const gc::V3Analysis an = gc::analyze_v3(c);
  Block delta = rng.next_block();
  delta.lo |= 1;
  const Block label_seed = rng.next_block();
  gc::V3Garbler garbler(c, an, delta, label_seed, rng);
  gc::V3Evaluator evaluator(c, an, label_seed);
  std::vector<Words> out;
  for (const auto& r : rounds) {
    const gc::V3RoundMaterial m = garbler.garble_round(r.garbler_bits);
    std::vector<Block> e_labels;
    for (std::size_t i = 0; i < r.evaluator_bits.size(); ++i)
      e_labels.push_back(r.evaluator_bits[i] ? m.evaluator_pairs[i].second
                                             : m.evaluator_pairs[i].first);
    const auto labels = evaluator.eval_round(m.rows, r.evaluator_bits,
                                             e_labels);
    out.push_back(from_bits(gc::decode_with_map(labels, m.output_map)));
  }
  return out;
}

std::vector<Words> run_reusable(const Circuit& c,
                                const std::vector<RoundInputs>& rounds,
                                std::uint64_t seed) {
  SystemRandom rng(Block{seed, 0x2E0});
  const auto rc = gc::make_reusable_circuit(c, rng);
  gc::ReusableEvaluator ev(c, rc.view);
  std::vector<Words> out;
  for (const auto& r : rounds)
    out.push_back(from_bits(
        ev.eval_round(mask_bits(r.garbler_bits, rc.garbler_flips),
                      mask_bits(r.evaluator_bits, rc.evaluator_flips))));
  return out;
}

std::vector<RoundInputs> random_rounds(const Circuit& c, std::size_t n,
                                       std::uint64_t seed) {
  Prg prg(Block{seed, 0xDA7A});
  std::vector<RoundInputs> rounds(n);
  for (auto& r : rounds) {
    r.garbler_bits = prg.bits(c.garbler_inputs.size());
    r.evaluator_bits = prg.bits(c.evaluator_inputs.size());
  }
  return rounds;
}

// The test proper: every mode, on the scheduled and the unscheduled
// netlist, over the same vectors, must reproduce the plain reference.
void check_all_modes(const Circuit& c, std::size_t n_rounds,
                     std::uint64_t seed) {
  const Circuit s = circuit::schedule_for_locality(c);
  ASSERT_EQ(s.gates.size(), c.gates.size());
  const auto rounds = random_rounds(c, n_rounds, seed);
  const auto expect = run_plain(c, rounds);
  ASSERT_EQ(run_plain(s, rounds), expect);  // schedule preserves semantics

  EXPECT_EQ(run_precomputed(c, rounds, seed), expect) << "precomputed/unsched";
  EXPECT_EQ(run_precomputed(s, rounds, seed), expect) << "precomputed/sched";
  EXPECT_EQ(run_streaming(c, rounds, seed), expect) << "stream/unsched";
  EXPECT_EQ(run_streaming(s, rounds, seed), expect) << "stream/sched";
  EXPECT_EQ(run_v3(c, rounds, seed), expect) << "v3/unsched";
  EXPECT_EQ(run_v3(s, rounds, seed), expect) << "v3/sched";
  EXPECT_EQ(run_reusable(c, rounds, seed), expect) << "reusable/unsched";
  EXPECT_EQ(run_reusable(s, rounds, seed), expect) << "reusable/sched";
}

TEST(ScheduleEquivalence, MacB8AllModes) {
  check_all_modes(circuit::make_mac_circuit(MacOptions{8, 8, true}), 12,
                  0xA11);
}

TEST(ScheduleEquivalence, MacB16UnsignedAllModes) {
  check_all_modes(circuit::make_mac_circuit(MacOptions{16, 16, false}), 6,
                  0xB22);
}

TEST(ScheduleEquivalence, DotProductAllModes) {
  check_all_modes(circuit::make_dot_product_circuit(3, MacOptions{8, 8, true}),
                  4, 0xC33);
}

TEST(ScheduleEquivalence, BristolImportAllModes) {
  // Foreign gate order: the multiplier round-tripped through Bristol
  // Fashion (INV lowering included), then scheduled.
  const Circuit imported = circuit::from_bristol(
      circuit::to_bristol(circuit::make_multiplier_circuit(MacOptions{8, 8, true})));
  check_all_modes(imported, 5, 0xD44);
}

TEST(ScheduleEquivalence, Fp16MacAllModes) {
  // The sequential FP16 MAC: 16-bit DFF accumulator, mul+add datapath
  // with barrel shifters — a very different gate mix from the integer
  // MACs above, pushed through all four session modes.
  check_all_modes(circuit::make_fp16_mac_circuit(), 8, 0xF16);
}

TEST(ScheduleEquivalence, MontgomeryAllModes) {
  // Montgomery REDC at 64 bits, and at 128 bits where every input,
  // output and accumulator bus is wider than a machine word.
  check_all_modes(
      circuit::make_montgomery_mul_circuit({64, {0xFFFFFFFFFFFFFFC5ull}}), 4,
      0x64ED);
  check_all_modes(circuit::make_montgomery_mul_circuit({128, {~0ull, ~0ull}}),
                  2, 0x128D);
}

TEST(ScheduleEquivalence, OptimizePassPreservesNewFamilies) {
  // optimize({.schedule = true}) on the new netlists: DCE+CSE+schedule
  // must preserve semantics through every session mode AND never make
  // the peak live-wire working set worse (the pass's contract).
  struct Case {
    const char* tag;
    Circuit c;
    std::size_t rounds;
    std::uint64_t seed;
  };
  Case cases[] = {
      {"fp16_mac", circuit::make_fp16_mac_circuit(), 6, 0x0F7},
      {"mont128",
       circuit::make_montgomery_mul_circuit({128, {0x10001ull, 0}}), 2,
       0x0D8},
  };
  for (auto& tc : cases) {
    SCOPED_TRACE(tc.tag);
    circuit::OptimizeStats os;
    circuit::ScheduleStats ss;
    const Circuit opt = circuit::optimize(tc.c, {.schedule = true}, &os, &ss);
    EXPECT_LE(ss.peak_live_after, ss.peak_live_before) << "never-worse guard";
    EXPECT_LE(os.ands_after, os.ands_before);
    const auto rounds = random_rounds(tc.c, tc.rounds, tc.seed);
    ASSERT_EQ(run_plain(opt, rounds), run_plain(tc.c, rounds));
    check_all_modes(opt, tc.rounds, tc.seed);
  }
}

TEST(ScheduleEquivalence, PeakLiveWiresEqualsEvaluationPlanSlots) {
  // circuit::peak_live_wires mirrors the evaluator's slot allocator —
  // the bench's peak-live metric IS the working-set size, scheduled or
  // not. The garbler plan additionally pins the protocol wires, so its
  // slot count dominates the evaluator's.
  for (const std::size_t bits : {8u, 16u, 32u}) {
    for (const bool scheduled : {false, true}) {
      Circuit c = circuit::make_mac_circuit(MacOptions{bits, bits, true});
      if (scheduled) c = circuit::schedule_for_locality(c);
      EXPECT_EQ(circuit::peak_live_wires(c), gc::plan_evaluation(c).num_slots)
          << "bits=" << bits << " scheduled=" << scheduled;
      EXPECT_GE(gc::plan_garbling(c).num_slots, gc::plan_evaluation(c).num_slots)
          << "bits=" << bits << " scheduled=" << scheduled;
    }
  }
}

TEST(ScheduleEquivalence, PlannedLayoutIsByteIdenticalToDense) {
  // The planned CircuitGarbler layout draws RNG labels in the same
  // order and hashes the same values as the dense layout — the round
  // material must match byte for byte, scheduled or not.
  for (const bool scheduled : {false, true}) {
    Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
    if (scheduled) c = circuit::schedule_for_locality(c);
    SystemRandom rng_dense(Block{0xE55, 1});
    SystemRandom rng_planned(Block{0xE55, 1});
    gc::CircuitGarbler dense(c, gc::Scheme::kHalfGates, rng_dense,
                             gc::LabelLayout::kDense);
    gc::CircuitGarbler planned(c, gc::Scheme::kHalfGates, rng_planned,
                               gc::LabelLayout::kPlanned);
    EXPECT_EQ(dense.delta(), planned.delta());
    EXPECT_LT(planned.label_buffer_bytes(), dense.label_buffer_bytes());
    for (int round = 0; round < 4; ++round) {
      const gc::RoundMaterial a = dense.garble_round_material();
      const gc::RoundMaterial b = planned.garble_round_material();
      EXPECT_EQ(a.tables.tables, b.tables.tables) << "round " << round;
      EXPECT_EQ(a.garbler_labels0, b.garbler_labels0);
      EXPECT_EQ(a.evaluator_pairs, b.evaluator_pairs);
      EXPECT_EQ(a.fixed_labels, b.fixed_labels);
      EXPECT_EQ(a.output_map, b.output_map);
    }
    EXPECT_EQ(dense.initial_state_labels(), planned.initial_state_labels());
  }
}

}  // namespace
}  // namespace maxel
