#include "gc/streaming_evaluator.hpp"

#include <stdexcept>

namespace maxel::gc {

using circuit::Circuit;
using circuit::GateType;
using circuit::kConstOne;
using circuit::kConstZero;
using circuit::Wire;

EvaluationPlan plan_evaluation(const Circuit& c) {
  constexpr std::int64_t kNever = -1;
  std::vector<std::int64_t> last_use(c.num_wires, kNever);
  for (std::size_t idx = 0; idx < c.gates.size(); ++idx) {
    last_use[c.gates[idx].a] = static_cast<std::int64_t>(idx);
    last_use[c.gates[idx].b] = static_cast<std::int64_t>(idx);
  }
  std::vector<char> persist(c.num_wires, 0);
  for (const auto w : c.outputs) persist[w] = 1;
  for (const auto& d : c.dffs) persist[d.d] = 1;

  EvaluationPlan plan;
  plan.num_wires = c.num_wires;
  plan.slot_of_wire.assign(c.num_wires, UINT32_MAX);

  std::vector<std::uint32_t> free_slots;
  std::uint32_t next_slot = 0;
  const auto define = [&](Wire w) {
    std::uint32_t slot;
    if (!free_slots.empty()) {
      slot = free_slots.back();
      free_slots.pop_back();
    } else {
      slot = next_slot++;
    }
    plan.slot_of_wire[w] = slot;
  };
  const auto release = [&](Wire w) {
    free_slots.push_back(plan.slot_of_wire[w]);
  };

  // Round start: constants, inputs, state wires.
  std::vector<Wire> initial = {kConstZero, kConstOne};
  initial.insert(initial.end(), c.garbler_inputs.begin(),
                 c.garbler_inputs.end());
  initial.insert(initial.end(), c.evaluator_inputs.begin(),
                 c.evaluator_inputs.end());
  for (const auto& d : c.dffs) initial.push_back(d.q);
  for (const auto w : initial) define(w);
  for (const auto w : initial) {
    if (last_use[w] == kNever && !persist[w]) release(w);
  }

  for (std::size_t idx = 0; idx < c.gates.size(); ++idx) {
    const auto& g = c.gates[idx];
    // Operands die here unless persistent; a == b must free only once.
    if (last_use[g.a] == static_cast<std::int64_t>(idx) && !persist[g.a])
      release(g.a);
    if (g.b != g.a && last_use[g.b] == static_cast<std::int64_t>(idx) &&
        !persist[g.b])
      release(g.b);
    define(g.out);
    if (last_use[g.out] == kNever && !persist[g.out]) release(g.out);
  }

  plan.num_slots = next_slot;
  return plan;
}

StreamingEvaluator::StreamingEvaluator(const Circuit& c, Scheme scheme)
    : circ_(c),
      gg_(scheme, Block::zero()),
      plan_(plan_evaluation(c)),
      program_(plan_netlist_order(c, plan_.slot_of_wire)),
      slots_(plan_.num_slots, Block::zero()),
      state_(c.dffs.size(), Block::zero()) {}

void StreamingEvaluator::set_initial_state_labels(std::vector<Block> labels) {
  if (labels.size() != circ_.dffs.size())
    throw std::invalid_argument(
        "StreamingEvaluator: state label arity mismatch");
  state_ = std::move(labels);
}

std::vector<Block> StreamingEvaluator::eval_round(
    const RoundTables& tables, const std::vector<Block>& garbler_labels,
    const std::vector<Block>& evaluator_labels,
    const std::vector<Block>& fixed_labels) {
  if (garbler_labels.size() != circ_.garbler_inputs.size() ||
      evaluator_labels.size() != circ_.evaluator_inputs.size() ||
      fixed_labels.size() != 2) {
    throw std::invalid_argument("StreamingEvaluator: label arity mismatch");
  }
  const auto at = [&](Wire w) -> Block& {
    return slots_[plan_.slot_of_wire[w]];
  };

  at(kConstZero) = fixed_labels[0];
  at(kConstOne) = fixed_labels[1];
  for (std::size_t i = 0; i < garbler_labels.size(); ++i)
    at(circ_.garbler_inputs[i]) = garbler_labels[i];
  for (std::size_t i = 0; i < evaluator_labels.size(); ++i)
    at(circ_.evaluator_inputs[i]) = evaluator_labels[i];
  for (std::size_t i = 0; i < circ_.dffs.size(); ++i)
    at(circ_.dffs[i].q) = state_[i];

  eval_plan(program_, gg_, tables, round_, slots_.data());

  for (std::size_t i = 0; i < circ_.dffs.size(); ++i)
    state_[i] = at(circ_.dffs[i].d);
  ++round_;

  std::vector<Block> out(circ_.outputs.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = at(circ_.outputs[i]);
  return out;
}

}  // namespace maxel::gc
