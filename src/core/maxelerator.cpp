#include "core/maxelerator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace maxel::core {

using circuit::GateType;

void MaxeleratorStats::accumulate(const MaxeleratorStats& run) {
  if (bit_width == 0) {
    *this = run;
    return;
  }
  const double cycles = static_cast<double>(total_cycles);
  const double more = static_cast<double>(run.total_cycles);
  if (cycles + more > 0)
    rng_gated_fraction =
        (rng_gated_fraction * cycles + run.rng_gated_fraction * more) /
        (cycles + more);
  rounds += run.rounds;
  total_stages += run.total_stages;
  total_cycles += run.total_cycles;
  prologue_stages += run.prologue_stages;
  tables += run.tables;
  table_bytes += run.table_bytes;
  busy_slots += run.busy_slots;
  idle_slots += run.idle_slots;
  labels_generated += run.labels_generated;
  rng_bits += run.rng_bits;
  rng_underflows += run.rng_underflows;
  memory_overflow_stalls += run.memory_overflow_stalls;
  pcie_bytes += run.pcie_bytes;
  pcie_seconds += run.pcie_seconds;
  rng_peak_bits_per_cycle =
      std::max(rng_peak_bits_per_cycle, run.rng_peak_bits_per_cycle);
  memory_peak_fill = std::max(memory_peak_fill, run.memory_peak_fill);
  max_ops_per_stage = std::max(max_ops_per_stage, run.max_ops_per_stage);
}

MaxeleratorSim::MaxeleratorSim(const MaxeleratorConfig& cfg,
                               crypto::RandomSource& rng)
    : MaxeleratorSim(cfg,
                     std::make_shared<const HwMacNetlist>(
                         build_hw_mac_netlist(cfg.bit_width)),
                     rng) {}

MaxeleratorSim::MaxeleratorSim(const MaxeleratorConfig& cfg,
                               std::shared_ptr<const HwMacNetlist> hw,
                               crypto::RandomSource& rng)
    : cfg_(cfg),
      hw_(std::move(hw)),
      delta_(crypto::random_delta(rng)),
      engine_(gc::Scheme::kHalfGates, delta_),
      bank_(128 * (cfg.bit_width / 2), rng),
      memory_(hw_->cores(), cfg.memory_tables_per_block),
      pcie_(cfg.pcie) {
  if (hw_->bit_width != cfg.bit_width)
    throw std::invalid_argument("MaxeleratorSim: netlist bit width differs "
                                "from the configured one");
  const auto& c = hw_->circuit;
  producer_.assign(c.num_wires, -1);
  for (std::size_t i = 0; i < c.gates.size(); ++i)
    producer_[c.gates[i].out] = static_cast<std::int32_t>(i);
  is_state_wire_.assign(c.num_wires, 0);
  state_index_.assign(c.num_wires, 0);
  for (std::size_t i = 0; i < c.dffs.size(); ++i) {
    is_state_wire_[c.dffs[i].q] = 1;
    state_index_[c.dffs[i].q] = static_cast<std::uint32_t>(i);
  }
  initial_state_active_.assign(c.dffs.size(), Block::zero());

  // A round is open from its first op (the x-pair runs one round early)
  // until its last AND retires, a pipeline latency after its window:
  // 2b + latency stages, so this many rounds overlap at most.
  const std::size_t b = cfg.bit_width;
  ring_.resize(std::bit_ceil((2 * b + hw_->pipeline_latency_stages()) / b + 2));

  const std::size_t cores = hw_->cores();
  cycle_ops_.resize(cores);
  cycle_forms_.resize(cores);
  cycle_a0_.resize(cores);
  cycle_b0_.resize(cores);
  cycle_tweaks_.resize(cores);
  cycle_out0_.resize(cores);
  cycle_tables_.resize(cores);

  stats_.bit_width = cfg.bit_width;
  stats_.seg1_cores = hw_->seg1_cores();
  stats_.seg2_cores = hw_->seg2_cores();
  stats_.cores = cores;
  stats_.pipeline_latency_stages = hw_->pipeline_latency_stages();
  stats_.clock_mhz = cfg.clock_mhz;
}

MaxeleratorSim::RoundState& MaxeleratorSim::open_round(RoundState& st,
                                                       std::uint64_t r) {
  if (st.live)
    throw std::logic_error("MaxeleratorSim: more rounds in flight than the "
                           "pipeline allows");
  const auto& c = hw_->circuit;
  if (st.labels0.empty()) {
    st.labels0.assign(c.num_wires, Block::zero());
    st.has_label.assign(c.num_wires, 0);
    st.tables.assign(hw_->ands_per_round(), gc::GarbledTable{});
  } else {
    std::fill(st.has_label.begin(), st.has_label.end(), 0);
  }
  st.round = r;
  st.live = true;
  st.ands_done = 0;
  return st;
}

Block MaxeleratorSim::resolve_label(RoundState& st, circuit::Wire w,
                                    int depth) {
  if (depth > 1 << 20)
    throw std::logic_error("MaxeleratorSim: label resolution runaway");
  if (st.has_label[w]) return st.labels0[w];

  Block label;
  const std::int32_t prod = producer_[w];
  if (prod < 0) {
    if (is_state_wire_[w]) {
      const std::uint32_t idx = state_index_[w];
      if (st.round == 0) {
        label = bank_.next_label();
        ++stats_.labels_generated;
        initial_state_active_[idx] =
            hw_->circuit.dffs[idx].init ? label ^ delta_ : label;
      } else {
        // Seeded at finalize of round r-1 normally; resolve directly if
        // the previous round is still in flight.
        label = resolve_label(round_state(st.round - 1),
                              hw_->circuit.dffs[idx].d, depth + 1);
      }
    } else {
      // Input or constant wire: a fresh label from the generator bank.
      label = bank_.next_label();
      ++stats_.labels_generated;
    }
  } else {
    const auto& g = hw_->circuit.gates[static_cast<std::size_t>(prod)];
    switch (g.type) {
      case GateType::kXor:
        label = resolve_label(st, g.a, depth + 1) ^
                resolve_label(st, g.b, depth + 1);
        break;
      case GateType::kXnor:
        label = resolve_label(st, g.a, depth + 1) ^
                resolve_label(st, g.b, depth + 1) ^ delta_;
        break;
      default:
        throw std::logic_error(
            "MaxeleratorSim: AND output consumed before it was garbled "
            "(FSM schedule dependency violation)");
    }
  }
  st.labels0[w] = label;
  st.has_label[w] = 1;
  return label;
}

// One clock cycle: every busy core's op resolves its input labels and
// writes its table slot in core order (so label-bank draws and memory
// writes keep the per-op order), then the cycle's independent ANDs are
// garbled as one hash batch. An op reading another op of the same cycle
// is a schedule violation and throws in resolve_label.
void MaxeleratorSim::garble_cycle(const StageOps& ops, std::size_t cyc) {
  const auto& gates = hw_->circuit.gates;
  std::size_t n = 0;
  for (std::size_t core = 0; core < ops.size(); ++core) {
    const auto& slot = ops[core][cyc];
    if (!slot.has_value()) {
      ++stats_.idle_slots;
      continue;
    }
    const auto& g = gates[slot->gate_index];
    RoundState& st = round_state(slot->round);
    cycle_ops_[n] = {&st, slot->gate_index};
    cycle_forms_[n] = circuit::and_form(g.type);
    cycle_a0_[n] = label(st, g.a);
    cycle_b0_[n] = label(st, g.b);
    cycle_tweaks_[n] = gc::gate_tweak(slot->gate_index, slot->round);
    memory_.write(core, current_cycle_);
    ++stats_.busy_slots;
    ++n;
  }
  engine_.garble_n(cycle_forms_.data(), cycle_a0_.data(), cycle_b0_.data(),
                   cycle_tweaks_.data(), cycle_tables_.data(),
                   cycle_out0_.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    RoundState& st = *cycle_ops_[i].st;
    const circuit::Wire out = gates[cycle_ops_[i].gate].out;
    st.labels0[out] = cycle_out0_[i];
    st.has_label[out] = 1;
    st.tables[hw_->table_position[cycle_ops_[i].gate]] = cycle_tables_[i];
    ++st.ands_done;
  }
  stats_.tables += n;
}

void MaxeleratorSim::finalize_round(RoundState& st, const RoundCallback& cb) {
  const std::uint64_t r = st.round;
  // Resolve everything the host snapshot needs (inputs may be untouched
  // when a unit never fed them to an AND directly; outputs are XORs).
  RoundOutput out;
  out.round = r;
  const auto& c = hw_->circuit;
  out.garbler_labels0.reserve(c.garbler_inputs.size());
  for (const auto w : c.garbler_inputs)
    out.garbler_labels0.push_back(resolve_label(st, w));
  out.evaluator_labels0.reserve(c.evaluator_inputs.size());
  for (const auto w : c.evaluator_inputs)
    out.evaluator_labels0.push_back(resolve_label(st, w));
  out.fixed_labels0 = {resolve_label(st, circuit::kConstZero),
                       resolve_label(st, circuit::kConstOne)};
  out.output_labels0.reserve(c.outputs.size());
  for (const auto w : c.outputs)
    out.output_labels0.push_back(resolve_label(st, w));
  if (r == 0) out.initial_state_active = initial_state_active_;
  out.tables.tables = st.tables;
  if (cfg_.capture_wire_labels) {
    out.wire_labels0.assign(c.num_wires, Block::zero());
    for (std::size_t w = 0; w < c.num_wires; ++w)
      if (st.has_label[w]) out.wire_labels0[w] = st.labels0[w];
  }

  pcie_.record_transfer(out.tables.tables.size() *
                        gc::bytes_per_and(gc::Scheme::kHalfGates));

  // Hand the state labels to round r+1, then retire this round.
  if (r + 1 < stats_.rounds) {
    RoundState& next = round_state(r + 1);
    for (const auto& dff : c.dffs) {
      if (!st.has_label[dff.d])
        throw std::logic_error("finalize_round: next state not resolved");
      next.labels0[dff.q] = st.labels0[dff.d];
      next.has_label[dff.q] = 1;
    }
  }
  if (cb) cb(std::move(out));
  st.live = false;
}

void MaxeleratorSim::run(std::uint64_t rounds, const RoundCallback& cb) {
  if (rounds == 0) return;
  if (stats_.rounds != 0)
    throw std::logic_error("MaxeleratorSim::run: single-shot; construct a "
                           "fresh simulator per garbling session");
  const FsmSchedule schedule(*hw_, rounds);
  stats_.rounds = rounds;
  stats_.prologue_stages = schedule.prologue_stages();
  stats_.total_stages = schedule.total_stages();
  stats_.total_cycles = schedule.total_cycles();
  stats_.steady_idle_per_stage = schedule.steady_idle_slots_per_stage();
  stats_.cycles_per_mac = 3.0 * static_cast<double>(cfg_.bit_width);

  StageOps ops;
  const std::uint64_t per_round_ands = hw_->ands_per_round();

  for (std::uint64_t stage = 0; stage < schedule.total_stages(); ++stage) {
    schedule.ops_at_stage(stage, ops);
    const std::uint64_t busy_before = stats_.busy_slots;
    for (std::size_t cyc = 0; cyc < 3; ++cyc) {
      current_cycle_ = 3 * stage + cyc;
      garble_cycle(ops, cyc);
      (void)memory_.drain_one(current_cycle_);
      bank_.end_cycle();
    }
    stats_.max_ops_per_stage =
        std::max<std::size_t>(stats_.max_ops_per_stage,
                              stats_.busy_slots - busy_before);

    while (true) {
      RoundState& st = ring_[next_to_finalize_ & (ring_.size() - 1)];
      if (!st.live || st.round != next_to_finalize_ ||
          st.ands_done != per_round_ands)
        break;
      finalize_round(st, cb);
      ++next_to_finalize_;
    }
  }
  if (next_to_finalize_ != rounds)
    throw std::logic_error("MaxeleratorSim: rounds left unfinished");

  // Drain the remaining tables through the memory's single output port.
  while (memory_.total_fill() > 0) (void)memory_.drain_one(++current_cycle_);

  stats_.table_bytes =
      stats_.tables * gc::bytes_per_and(gc::Scheme::kHalfGates);
  stats_.rng_bits = bank_.total_bits();
  stats_.rng_gated_fraction = bank_.gated_fraction();
  stats_.rng_peak_bits_per_cycle = bank_.peak_bits_per_cycle();
  stats_.rng_underflows = bank_.underflow_stalls();
  stats_.memory_peak_fill = memory_.peak_fill();
  stats_.memory_overflow_stalls = memory_.overflow_stalls();
  stats_.pcie_bytes = pcie_.bytes_moved();
  stats_.pcie_seconds = pcie_.seconds_busy();
}

}  // namespace maxel::core
