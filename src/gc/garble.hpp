// Whole-circuit garbling and evaluation, including the sequential
// (multi-round, TinyGarble-style) execution model that MAXelerator
// accelerates: the same netlist is garbled every round with fresh input
// labels while DFF state wires carry their labels across rounds.
//
// Tweak convention (must match between any two implementations that are
// expected to produce identical tables — the software garbler here and
// the MAXelerator hardware simulator both use it):
//   tweak.lo = 2 * gate_index_in_netlist   (low bit reserved: half gates)
//   tweak.hi = round index
// The paper builds its unique identifier T from (i, j, core id, stage,
// gate id); any injective encoding is equivalent — we pick one that both
// the FSM schedule and the netlist order can compute.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/optimize.hpp"
#include "crypto/rng.hpp"
#include "gc/scheme.hpp"

namespace maxel::gc {

[[nodiscard]] constexpr Block gate_tweak(std::uint32_t gate_index,
                                         std::uint64_t round) {
  return Block{2ull * gate_index, round};
}

// Garbled tables of one round, in netlist (topological) order of the
// non-free gates.
struct RoundTables {
  std::vector<GarbledTable> tables;

  [[nodiscard]] std::size_t byte_size(Scheme s) const {
    return tables.size() * bytes_per_and(s);
  }
};

// Contiguous wire encoding of a round's tables: rows_per_and(s) x 16
// bytes per table, netlist order — the dominant payload of every round,
// moved as one bulk copy (and, over a socket, one syscall) instead of
// one transfer per block. `out` must hold t.byte_size(s) bytes.
void tables_to_bytes(const RoundTables& t, Scheme s, std::uint8_t* out);
RoundTables tables_from_bytes(const std::uint8_t* data, std::size_t n_tables,
                              Scheme s);

// Everything one garbled round hands the serving host: tables plus the
// label material needed to select garbler inputs (0-labels + delta),
// run the evaluator-input OT (pairs), seed the constant wires, and
// decode outputs. proto::PrecomputedSession stores rounds of exactly
// this; proto::garble_chunk turns them into stream-mode wire chunks.
struct RoundMaterial {
  RoundTables tables;
  std::vector<Block> garbler_labels0;  // choose with input bits (+delta)
  std::vector<std::pair<Block, Block>> evaluator_pairs;  // OT (m0, m1)
  std::vector<Block> fixed_labels;     // active const labels
  std::vector<bool> output_map;        // point-and-permute decode colors
};

// A circuit's gates as a program of waves, built once per circuit and
// walked by every label-level gate loop of this library: wave k runs its
// free gates, then one window of independent ANDs through
// GateGarbler::garble_n/eval_n as a single wide hash batch. Operands are
// label-buffer slots (equal to wires for a dense buffer). Tables keep
// netlist order: each AND carries its index in the round's table stream.
// Two orders:
//
//  * plan_waves — AND-depth waves, for dense buffers (CircuitEvaluator
//    and the dense CircuitGarbler). Wave k holds the free gates whose
//    output has AND-depth k, in netlist order, then every AND of depth
//    k + 1, which reads only wires of depth <= k.
//  * plan_netlist_order — netlist order with one AND per window, for
//    slot-planned buffers (the planned CircuitGarbler and
//    CircuitEvaluator). Their slot plans recycle a slot at the wire's
//    last use in netlist order, and wave order would keep more wires
//    live (peak 111 -> 129 on the b=16 MAC, 253 -> 339 on the
//    locality-scheduled b=32 MAC). Windows of consecutive independent
//    ANDs would keep the slots but favour circuit::Builder's emission
//    order (1.75 ANDs per run on the optimized b=16 MAC) over the
//    locality schedule (1.32): fig_schedule_locality's
//    scheduled/unscheduled MAC/s ratio fell to about 0.8 with them.
struct WavePlan {
  struct FreeGate {
    std::uint32_t a = 0, b = 0, out = 0;  // slots
    bool xnor = false;
  };
  struct AndGate {
    std::uint32_t a = 0, b = 0, out = 0;  // slots
    std::uint32_t gate = 0;   // netlist index: the tweak
    std::uint32_t table = 0;  // position in the round's table stream
    circuit::AndForm form;
  };
  // Wave k is free_gates[free_end(k-1), free_end(k)) followed by
  // and_gates[and_end(k-1), and_end(k)).
  struct Wave {
    std::uint32_t free_end = 0;
    std::uint32_t and_end = 0;
  };
  std::vector<FreeGate> free_gates;
  std::vector<AndGate> and_gates;
  std::vector<Wave> waves;
};

WavePlan plan_waves(const circuit::Circuit& c);
WavePlan plan_netlist_order(const circuit::Circuit& c,
                            const std::vector<std::uint32_t>& slot_of_wire);

// One round of `plan` over a slot-indexed label buffer whose constant,
// input and state slots are already set. garble_plan writes every gate's
// output 0-label and `tables` (one per AND); eval_plan writes the active
// labels and throws std::runtime_error unless `tables` holds exactly one
// table per AND.
void garble_plan(const WavePlan& plan, const GateGarbler& gg,
                 std::uint64_t round, Block* labels0, RoundTables& tables);
void eval_plan(const WavePlan& plan, const GateGarbler& gg,
               const RoundTables& tables, std::uint64_t round, Block* labels);

// Label storage layout of a CircuitGarbler or CircuitEvaluator.
//
//  * kDense   — one slot per wire (index == wire id), the historical
//    layout; the garbler's wire_labels0() exposes the whole buffer.
//  * kPlanned — slots come from circuit::plan_slots, so the buffer holds
//    the circuit's live width, not its wire count. The garbler pins the
//    protocol-visible wires (SlotPins::kProtocol), because it answers
//    label queries (garbler_input_label, evaluator_input_labels,
//    output_map, ...) after the round is garbled; the evaluator pins
//    none, so its buffer is circuit::peak_live_wires slots — the
//    memory-bounded client of Sec. 3 ("the evaluator may not have enough
//    memory to store all the labels together"). On a locality-scheduled
//    netlist (circuit::schedule_for_locality) the buffers shrink further
//    and gate operands cluster in a recently-touched window.
//
// The two layouts are bit-for-bit equivalent: they draw RNG labels in
// the same order and hash the same values, so tables, input labels,
// output maps and evaluated labels are identical (asserted by tests).
enum class LabelLayout { kDense, kPlanned };

class CircuitGarbler {
 public:
  CircuitGarbler(const circuit::Circuit& c, Scheme scheme,
                 crypto::RandomSource& rng,
                 LabelLayout layout = LabelLayout::kDense);

  // Garbles the next round and returns its tables. All per-round label
  // queries below refer to the most recently garbled round.
  RoundTables garble_round();

  // Garbles the next round and gathers its complete material in one
  // step — the shared body of proto::garble_session and
  // proto::garble_chunk, so both producers emit byte-identical rounds.
  RoundMaterial garble_round_material();

  [[nodiscard]] std::uint64_t rounds_garbled() const { return round_; }
  [[nodiscard]] Scheme scheme() const { return scheme_; }

  // Active label for garbler input i holding value v.
  [[nodiscard]] Block garbler_input_label(std::size_t i, bool v) const;
  // Both labels for evaluator input i (to be fed into OT as (m0, m1)).
  [[nodiscard]] std::pair<Block, Block> evaluator_input_labels(
      std::size_t i) const;
  // Active labels of the two constant wires [const0, const1].
  [[nodiscard]] std::vector<Block> fixed_wire_labels() const;
  // Active labels of the DFF state wires at round 0 (public init values).
  [[nodiscard]] std::vector<Block> initial_state_labels() const;
  // Point-and-permute output decode map: lsb of each output's 0-label.
  [[nodiscard]] std::vector<bool> output_map() const;
  // Garbler-side decode of an active output label.
  [[nodiscard]] bool decode_output(std::size_t i, const Block& active) const;

  [[nodiscard]] const Block& delta() const { return delta_; }
  // 0-labels of every wire in the last garbled round (tests/equivalence).
  // Dense layout only: planned buffers are slot-indexed, not
  // wire-indexed, so this throws std::logic_error under kPlanned —
  // query label0(w) instead.
  [[nodiscard]] const std::vector<Block>& wire_labels0() const;
  // 0-label of one wire in the last garbled round, any layout.
  [[nodiscard]] const Block& label0(circuit::Wire w) const {
    return labels0_[slots_.slot(w)];
  }

  // Size of the per-round label buffer — num_wires slots when dense,
  // the pinned slot plan's width when planned. x16 for bytes.
  [[nodiscard]] std::size_t label_slots() const { return labels0_.size(); }
  [[nodiscard]] std::size_t label_buffer_bytes() const {
    return labels0_.size() * sizeof(Block);
  }

 private:
  [[nodiscard]] Block& l0(circuit::Wire w) { return labels0_[slots_.slot(w)]; }
  [[nodiscard]] const Block& l0(circuit::Wire w) const {
    return labels0_[slots_.slot(w)];
  }

  const circuit::Circuit& circ_;
  Scheme scheme_;
  crypto::RandomSource& rng_;
  Block delta_;
  GateGarbler gg_;
  circuit::SlotPlan slots_;          // identity if dense
  WavePlan program_;                 // wave order if dense, else netlist
  std::vector<Block> labels0_;       // current round, 0-labels per slot
  std::vector<Block> next_state0_;   // d-wire 0-labels carried to next round
  std::vector<Block> initial_state_active_;
  std::uint64_t round_ = 0;
};

class CircuitEvaluator {
 public:
  CircuitEvaluator(const circuit::Circuit& c, Scheme scheme,
                   LabelLayout layout = LabelLayout::kDense);
  // Dense layout sharing a prebuilt plan_waves(c) read-only, so
  // evaluators of one circuit (one per matmul cell, one per pool core)
  // skip rebuilding it.
  CircuitEvaluator(const circuit::Circuit& c, Scheme scheme,
                   std::shared_ptr<const WavePlan> plan);

  // Must be called before round 0 when the circuit has DFFs.
  void set_initial_state_labels(std::vector<Block> labels);

  // Evaluates one round; returns the active labels of the outputs.
  std::vector<Block> eval_round(const RoundTables& tables,
                                const std::vector<Block>& garbler_labels,
                                const std::vector<Block>& evaluator_labels,
                                const std::vector<Block>& fixed_labels);

  [[nodiscard]] std::uint64_t rounds_evaluated() const { return round_; }
  // Size of the per-round label buffer (the client's working set):
  // num_wires slots when dense, circuit::peak_live_wires when planned.
  [[nodiscard]] std::size_t label_buffer_bytes() const {
    return slots_.num_slots * sizeof(Block);
  }

 private:
  const circuit::Circuit& circ_;
  GateGarbler gg_;  // evaluation does not use delta; zero is fine
  circuit::SlotPlan slots_;  // identity if dense
  std::shared_ptr<const WavePlan> plan_;
  std::vector<Block> state_;
  std::vector<Block> active_;  // per-round label buffer, reused across rounds
  std::uint64_t round_ = 0;
};

// Decodes active output labels with the garbler-published color map.
std::vector<bool> decode_with_map(const std::vector<Block>& active,
                                  const std::vector<bool>& map);

// Convenience: single-round garble+evaluate of a combinational circuit
// with plaintext inputs; returns decoded outputs. Used heavily in tests.
std::vector<bool> garble_and_evaluate(const circuit::Circuit& c, Scheme scheme,
                                      const std::vector<bool>& garbler_bits,
                                      const std::vector<bool>& evaluator_bits,
                                      crypto::RandomSource& rng);

}  // namespace maxel::gc
