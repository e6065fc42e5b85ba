#include "gc/garble.hpp"

#include <algorithm>
#include <stdexcept>

namespace maxel::gc {

using circuit::Circuit;
using circuit::GateType;
using circuit::kConstOne;
using circuit::kConstZero;
using circuit::Wire;

namespace {

// Orders the gates by wave — wave[idx] is gate idx's wave, free gates
// before the wave's ANDs, netlist order within each part — and maps every
// operand through `slot` (identity when null).
WavePlan build_plan(const Circuit& c, const std::vector<std::uint32_t>& wave,
                    std::uint32_t num_waves,
                    const std::vector<std::uint32_t>* slot) {
  std::vector<std::uint32_t> free_count(num_waves, 0), and_count(num_waves, 0);
  for (std::size_t idx = 0; idx < c.gates.size(); ++idx)
    ++(circuit::is_free(c.gates[idx].type) ? free_count : and_count)[wave[idx]];

  WavePlan plan;
  plan.waves.resize(num_waves);
  std::vector<std::uint32_t> free_next(num_waves), and_next(num_waves);
  std::uint32_t free_total = 0, and_total = 0;
  for (std::uint32_t k = 0; k < num_waves; ++k) {
    free_next[k] = free_total;
    and_next[k] = and_total;
    free_total += free_count[k];
    and_total += and_count[k];
    plan.waves[k] = {free_total, and_total};
  }
  plan.free_gates.resize(free_total);
  plan.and_gates.resize(and_total);
  const auto at = [slot](Wire w) { return slot ? (*slot)[w] : w; };
  std::uint32_t table = 0;
  for (std::size_t idx = 0; idx < c.gates.size(); ++idx) {
    const auto& g = c.gates[idx];
    if (circuit::is_free(g.type)) {
      plan.free_gates[free_next[wave[idx]]++] = {
          at(g.a), at(g.b), at(g.out), g.type == GateType::kXnor};
    } else {
      plan.and_gates[and_next[wave[idx]]++] = {
          at(g.a), at(g.b), at(g.out), static_cast<std::uint32_t>(idx),
          table++, circuit::and_form(g.type)};
    }
  }
  return plan;
}

}  // namespace

WavePlan plan_waves(const Circuit& c) {
  // AND-depth of every wire: ANDs add one, free gates pass the max on.
  // A free gate of depth k runs in wave k, an AND of depth k + 1 in
  // wave k's window.
  std::vector<std::uint32_t> depth(c.num_wires, 0);
  std::vector<std::uint32_t> wave(c.gates.size());
  std::uint32_t num_waves = 1;
  for (std::size_t idx = 0; idx < c.gates.size(); ++idx) {
    const auto& g = c.gates[idx];
    const bool free = circuit::is_free(g.type);
    const std::uint32_t d = std::max(depth[g.a], depth[g.b]) + (free ? 0 : 1);
    depth[g.out] = d;
    wave[idx] = free ? d : d - 1;
    num_waves = std::max(num_waves, wave[idx] + 1);
  }
  return build_plan(c, wave, num_waves, nullptr);
}

WavePlan plan_netlist_order(const Circuit& c,
                            const std::vector<std::uint32_t>& slot_of_wire) {
  // Each AND closes its wave: a window of one, in netlist order.
  std::vector<std::uint32_t> wave(c.gates.size());
  std::uint32_t k = 0;
  for (std::size_t idx = 0; idx < c.gates.size(); ++idx) {
    wave[idx] = k;
    if (!circuit::is_free(c.gates[idx].type)) ++k;
  }
  return build_plan(c, wave, k + 1, &slot_of_wire);
}

void garble_plan(const WavePlan& plan, const GateGarbler& gg,
                 std::uint64_t round, Block* l, RoundTables& tables) {
  constexpr std::size_t kW = GateGarbler::kWindow;
  const Block& delta = gg.delta();
  tables.tables.resize(plan.and_gates.size());
  circuit::AndForm f[kW];
  Block a0[kW], b0[kW], tw[kW], out0[kW];
  GarbledTable tabs[kW];
  std::size_t fi = 0, ai = 0;
  for (const auto& wave : plan.waves) {
    for (; fi < wave.free_end; ++fi) {
      const auto& g = plan.free_gates[fi];
      l[g.out] = g.xnor ? l[g.a] ^ l[g.b] ^ delta : l[g.a] ^ l[g.b];
    }
    if (ai + 1 == wave.and_end) {
      // A window of one (every window of a netlist-order plan) skips the
      // staging: on dependent gate chains its latency is the cost.
      const auto& g = plan.and_gates[ai++];
      l[g.out] = gg.garble(g.form, l[g.a], l[g.b], gate_tweak(g.gate, round),
                           tables.tables[g.table]);
    }
    while (ai < wave.and_end) {
      const std::size_t n = std::min<std::size_t>(kW, wave.and_end - ai);
      const WavePlan::AndGate* ands = &plan.and_gates[ai];
      for (std::size_t i = 0; i < n; ++i) {
        f[i] = ands[i].form;
        a0[i] = l[ands[i].a];
        b0[i] = l[ands[i].b];
        tw[i] = gate_tweak(ands[i].gate, round);
      }
      gg.garble_n(f, a0, b0, tw, tabs, out0, n);
      for (std::size_t i = 0; i < n; ++i) {
        l[ands[i].out] = out0[i];
        tables.tables[ands[i].table] = tabs[i];
      }
      ai += n;
    }
  }
}

void eval_plan(const WavePlan& plan, const GateGarbler& gg,
               const RoundTables& tables, std::uint64_t round, Block* l) {
  if (tables.tables.size() < plan.and_gates.size())
    throw std::runtime_error("eval_round: table stream underrun");
  if (tables.tables.size() != plan.and_gates.size())
    throw std::runtime_error("eval_round: unconsumed garbled tables");
  constexpr std::size_t kW = GateGarbler::kWindow;
  Block a[kW], b[kW], tw[kW], c[kW];
  GarbledTable tabs[kW];
  std::size_t fi = 0, ai = 0;
  for (const auto& wave : plan.waves) {
    for (; fi < wave.free_end; ++fi) {
      const auto& g = plan.free_gates[fi];
      l[g.out] = l[g.a] ^ l[g.b];
    }
    if (ai + 1 == wave.and_end) {
      const auto& g = plan.and_gates[ai++];
      l[g.out] = gg.evaluate(l[g.a], l[g.b], tables.tables[g.table],
                             gate_tweak(g.gate, round));
    }
    while (ai < wave.and_end) {
      const std::size_t n = std::min<std::size_t>(kW, wave.and_end - ai);
      const WavePlan::AndGate* ands = &plan.and_gates[ai];
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = l[ands[i].a];
        b[i] = l[ands[i].b];
        tabs[i] = tables.tables[ands[i].table];
        tw[i] = gate_tweak(ands[i].gate, round);
      }
      gg.eval_n(a, b, tabs, tw, c, n);
      for (std::size_t i = 0; i < n; ++i) l[ands[i].out] = c[i];
      ai += n;
    }
  }
}

namespace {

// Slot plan of a label buffer: the identity when dense, else
// circuit::plan_slots under the side's pins.
circuit::SlotPlan layout_slots(const Circuit& c, LabelLayout layout,
                               circuit::SlotPins pins) {
  if (layout == LabelLayout::kPlanned) return circuit::plan_slots(c, pins);
  circuit::SlotPlan dense;
  dense.num_slots = dense.num_wires = c.num_wires;
  return dense;
}

// Gate program over a slot plan: AND-depth waves for a dense buffer,
// netlist order over the slots for a planned one (see WavePlan).
WavePlan layout_program(const Circuit& c, const circuit::SlotPlan& slots) {
  return slots.slot_of_wire.empty() ? plan_waves(c)
                                    : plan_netlist_order(c, slots.slot_of_wire);
}

}  // namespace

CircuitGarbler::CircuitGarbler(const Circuit& c, Scheme scheme,
                               crypto::RandomSource& rng, LabelLayout layout)
    : circ_(c),
      scheme_(scheme),
      rng_(rng),
      delta_(crypto::random_delta(rng)),
      gg_(scheme, delta_),
      slots_(layout_slots(c, layout, circuit::SlotPins::kProtocol)),
      program_(layout_program(c, slots_)),
      labels0_(slots_.num_slots, Block::zero()),
      next_state0_(c.dffs.size(), Block::zero()),
      initial_state_active_(c.dffs.size(), Block::zero()) {}

const std::vector<Block>& CircuitGarbler::wire_labels0() const {
  if (!slots_.slot_of_wire.empty())
    throw std::logic_error(
        "wire_labels0: planned label buffers are slot-indexed; query "
        "label0(wire) instead");
  return labels0_;
}

RoundTables CircuitGarbler::garble_round() {
  // Fresh labels for constants and inputs every round (sequential GC).
  // The RNG draw order is part of the cross-layout equivalence contract
  // (see LabelLayout): it must not depend on the storage plan.
  l0(kConstZero) = rng_.next_block();
  l0(kConstOne) = rng_.next_block();
  for (const auto w : circ_.garbler_inputs) l0(w) = rng_.next_block();
  for (const auto w : circ_.evaluator_inputs) l0(w) = rng_.next_block();

  for (std::size_t i = 0; i < circ_.dffs.size(); ++i) {
    const auto& dff = circ_.dffs[i];
    if (round_ == 0) {
      l0(dff.q) = rng_.next_block();
      initial_state_active_[i] =
          dff.init ? l0(dff.q) ^ delta_ : l0(dff.q);
    } else {
      l0(dff.q) = next_state0_[i];
    }
  }

  RoundTables out;
  garble_plan(program_, gg_, round_, labels0_.data(), out);

  for (std::size_t i = 0; i < circ_.dffs.size(); ++i)
    next_state0_[i] = l0(circ_.dffs[i].d);
  ++round_;
  return out;
}

RoundMaterial CircuitGarbler::garble_round_material() {
  RoundMaterial m;
  m.tables = garble_round();
  m.garbler_labels0.reserve(circ_.garbler_inputs.size());
  for (std::size_t i = 0; i < circ_.garbler_inputs.size(); ++i)
    m.garbler_labels0.push_back(garbler_input_label(i, false));
  m.evaluator_pairs.reserve(circ_.evaluator_inputs.size());
  for (std::size_t i = 0; i < circ_.evaluator_inputs.size(); ++i)
    m.evaluator_pairs.push_back(evaluator_input_labels(i));
  m.fixed_labels = fixed_wire_labels();
  m.output_map = output_map();
  return m;
}

Block CircuitGarbler::garbler_input_label(std::size_t i, bool v) const {
  const Block label = l0(circ_.garbler_inputs.at(i));
  return v ? label ^ delta_ : label;
}

std::pair<Block, Block> CircuitGarbler::evaluator_input_labels(
    std::size_t i) const {
  const Block label = l0(circ_.evaluator_inputs.at(i));
  return {label, label ^ delta_};
}

std::vector<Block> CircuitGarbler::fixed_wire_labels() const {
  return {l0(kConstZero), l0(kConstOne) ^ delta_};
}

std::vector<Block> CircuitGarbler::initial_state_labels() const {
  if (round_ == 0 && !circ_.dffs.empty())
    throw std::logic_error(
        "initial_state_labels: garble round 0 first (labels are assigned "
        "during garbling)");
  return initial_state_active_;
}

std::vector<bool> CircuitGarbler::output_map() const {
  std::vector<bool> map(circ_.outputs.size());
  for (std::size_t i = 0; i < map.size(); ++i)
    map[i] = l0(circ_.outputs[i]).lsb();
  return map;
}

bool CircuitGarbler::decode_output(std::size_t i, const Block& active) const {
  const Block label = l0(circ_.outputs.at(i));
  if (active == label) return false;
  if (active == (label ^ delta_)) return true;
  throw std::runtime_error("decode_output: label matches neither value");
}

CircuitEvaluator::CircuitEvaluator(const Circuit& c, Scheme scheme,
                                   LabelLayout layout)
    : circ_(c),
      gg_(scheme, Block::zero()),
      slots_(layout_slots(c, layout, circuit::SlotPins::kNone)),
      plan_(std::make_shared<const WavePlan>(layout_program(c, slots_))),
      state_(c.dffs.size()) {}

CircuitEvaluator::CircuitEvaluator(const Circuit& c, Scheme scheme,
                                   std::shared_ptr<const WavePlan> plan)
    : circ_(c),
      gg_(scheme, Block::zero()),
      slots_(layout_slots(c, LabelLayout::kDense, circuit::SlotPins::kNone)),
      plan_(std::move(plan)),
      state_(c.dffs.size()) {}

void CircuitEvaluator::set_initial_state_labels(std::vector<Block> labels) {
  if (labels.size() != circ_.dffs.size())
    throw std::invalid_argument("set_initial_state_labels: arity mismatch");
  state_ = std::move(labels);
}

std::vector<Block> CircuitEvaluator::eval_round(
    const RoundTables& tables, const std::vector<Block>& garbler_labels,
    const std::vector<Block>& evaluator_labels,
    const std::vector<Block>& fixed_labels) {
  if (garbler_labels.size() != circ_.garbler_inputs.size() ||
      evaluator_labels.size() != circ_.evaluator_inputs.size() ||
      fixed_labels.size() != 2) {
    throw std::invalid_argument("eval_round: label arity mismatch");
  }

  // Reuse the label buffer across rounds (sequential GC evaluates the
  // same netlist every round; reallocating it per round dominated the
  // evaluator's time for small MAC netlists). Every slot is written
  // before it is read — inputs/constants/state here, gate outputs in
  // plan order below — so stale values never leak across rounds.
  active_.resize(slots_.num_slots);
  const auto at = [this](Wire w) -> Block& { return active_[slots_.slot(w)]; };
  at(kConstZero) = fixed_labels[0];
  at(kConstOne) = fixed_labels[1];
  for (std::size_t i = 0; i < garbler_labels.size(); ++i)
    at(circ_.garbler_inputs[i]) = garbler_labels[i];
  for (std::size_t i = 0; i < evaluator_labels.size(); ++i)
    at(circ_.evaluator_inputs[i]) = evaluator_labels[i];
  for (std::size_t i = 0; i < circ_.dffs.size(); ++i)
    at(circ_.dffs[i].q) = state_[i];

  eval_plan(*plan_, gg_, tables, round_, active_.data());

  for (std::size_t i = 0; i < circ_.dffs.size(); ++i)
    state_[i] = at(circ_.dffs[i].d);
  ++round_;

  std::vector<Block> out(circ_.outputs.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = at(circ_.outputs[i]);
  return out;
}

void tables_to_bytes(const RoundTables& t, Scheme s, std::uint8_t* out) {
  const std::size_t rows = rows_per_and(s);
  for (const auto& table : t.tables)
    for (std::size_t r = 0; r < rows; ++r, out += 16) table.ct[r].to_bytes(out);
}

RoundTables tables_from_bytes(const std::uint8_t* data, std::size_t n_tables,
                              Scheme s) {
  const std::size_t rows = rows_per_and(s);
  RoundTables t;
  t.tables.assign(n_tables, GarbledTable{});
  for (auto& table : t.tables)
    for (std::size_t r = 0; r < rows; ++r, data += 16)
      table.ct[r] = Block::from_bytes(data);
  return t;
}

std::vector<bool> decode_with_map(const std::vector<Block>& active,
                                  const std::vector<bool>& map) {
  if (active.size() != map.size())
    throw std::invalid_argument("decode_with_map: arity mismatch");
  std::vector<bool> out(active.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = active[i].lsb() != map[i];
  return out;
}

std::vector<bool> garble_and_evaluate(const Circuit& c, Scheme scheme,
                                      const std::vector<bool>& garbler_bits,
                                      const std::vector<bool>& evaluator_bits,
                                      crypto::RandomSource& rng) {
  CircuitGarbler garbler(c, scheme, rng);
  CircuitEvaluator evaluator(c, scheme);
  const RoundTables tables = garbler.garble_round();

  std::vector<Block> g_labels(garbler_bits.size());
  for (std::size_t i = 0; i < garbler_bits.size(); ++i)
    g_labels[i] = garbler.garbler_input_label(i, garbler_bits[i]);
  std::vector<Block> e_labels(evaluator_bits.size());
  for (std::size_t i = 0; i < evaluator_bits.size(); ++i) {
    const auto [l0, l1] = garbler.evaluator_input_labels(i);
    e_labels[i] = evaluator_bits[i] ? l1 : l0;  // in-process OT shortcut
  }
  evaluator.set_initial_state_labels(garbler.initial_state_labels());
  const auto out_labels = evaluator.eval_round(
      tables, g_labels, e_labels, garbler.fixed_wire_labels());
  return decode_with_map(out_labels, garbler.output_map());
}

}  // namespace maxel::gc
