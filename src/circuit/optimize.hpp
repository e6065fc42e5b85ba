// Netlist optimization passes.
//
// The builder already constant-folds during construction; these passes
// clean up circuits that arrive from elsewhere (Bristol imports, the
// deliberately-unfolded hardware netlists) or that accumulated dead
// logic through composition:
//
//  * dead_code_eliminate — drops gates whose outputs reach no circuit
//    output and no DFF next-state input, renumbering wires densely;
//  * duplicate_gate_eliminate — merges structurally identical gates
//    (same type and operands), a cheap CSE;
//  * schedule_for_locality — HAAC-style locality reorder: emits each
//    wire's producer just before its consumers so the live-wire
//    working set stays small. Greedy topological list scheduling under
//    a live-set objective — each step issues the ready gate that
//    retires the most last-use operands net of its one new output —
//    cuts both the peak number of simultaneously live wires and the
//    sum of wire live ranges, which is what sizes the
//    garbler/evaluator label buffers and the hwsim live-wire memory.
//
// All passes preserve input/output ordering and plaintext semantics
// exactly (asserted by tests over random vectors).
#pragma once

#include <cstdint>

#include "circuit/netlist.hpp"

namespace maxel::circuit {

struct OptimizeStats {
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  std::size_t ands_before = 0;
  std::size_t ands_after = 0;

  [[nodiscard]] std::size_t gates_removed() const {
    return gates_before - gates_after;
  }
};

Circuit dead_code_eliminate(const Circuit& c, OptimizeStats* stats = nullptr);

Circuit duplicate_gate_eliminate(const Circuit& c,
                                 OptimizeStats* stats = nullptr);

// --- Wire liveness and label slots -----------------------------------------
//
// A wire is live from its definition (round start for constants, inputs
// and DFF state wires; its producing gate otherwise) until its last use.
// Outputs and DFF next-state wires stay live to the end of the round.
//
// plan_slots is the one liveness slot allocator: every planned label
// buffer (gc::LabelLayout::kPlanned, garbler and evaluator) and
// peak_live_wires come from it. Each wire takes a 16-byte slot at its
// definition and returns it at its last use, before the gate's output
// takes one (release-before-define), so the slot count of an unpinned
// plan is the peak number of simultaneously live wires.

// Which wires keep their own slot for the whole round.
enum class SlotPins : std::uint8_t {
  kNone,      // every slot recycles after its wire's last use (evaluator)
  kProtocol,  // the constants, both input vectors, DFF q/d wires and the
              // outputs take the first slots, in wire order, and keep
              // them: the garbler answers label queries about them after
              // the round is garbled
};

struct SlotPlan {
  // Slot per wire. Empty is the identity plan: one slot per wire, a
  // dense label buffer.
  std::vector<std::uint32_t> slot_of_wire;
  std::size_t num_slots = 0;
  std::size_t num_wires = 0;

  [[nodiscard]] std::uint32_t slot(Wire w) const {
    return slot_of_wire.empty() ? w : slot_of_wire[w];
  }
  // Working-set compression against one slot per wire.
  [[nodiscard]] double compression() const {
    return num_slots == 0 ? 0.0
                          : static_cast<double>(num_wires) /
                                static_cast<double>(num_slots);
  }
};

SlotPlan plan_slots(const Circuit& c, SlotPins pins);

// Maximum number of simultaneously live wires across the round: the
// slot count of plan_slots(c, SlotPins::kNone), so peak_live_wires(c) *
// 16 bytes is the evaluator's working set for one round.
std::size_t peak_live_wires(const Circuit& c);

// Sum over wires of (last use - definition), in gate positions; the
// schedule pass's secondary objective. Unused non-persistent wires
// contribute zero.
std::uint64_t sum_live_ranges(const Circuit& c);

struct ScheduleStats {
  std::size_t gates = 0;
  std::size_t peak_live_before = 0;
  std::size_t peak_live_after = 0;
  std::uint64_t sum_live_before = 0;
  std::uint64_t sum_live_after = 0;

  // < 1 when the schedule shrank the live-wire working set.
  [[nodiscard]] double peak_live_ratio() const {
    return peak_live_before == 0
               ? 1.0
               : static_cast<double>(peak_live_after) /
                     static_cast<double>(peak_live_before);
  }
};

// Reorders gates topologically for wire-buffer locality and renumbers
// wires densely in emission order (inputs first, then gate outputs, the
// dead_code_eliminate convention). Dead gates are kept — removal is
// DCE's job — appended after the live program in their original
// relative order. Deterministic: depends only on the dataflow graph and
// the output list, so scheduling an already-scheduled circuit is a
// fixpoint. Throws std::invalid_argument on a combinational cycle.
Circuit schedule_for_locality(const Circuit& c, ScheduleStats* stats = nullptr);

// DCE + CSE to a fixed point.
Circuit optimize(const Circuit& c, OptimizeStats* stats = nullptr);

// DCE + CSE to a fixed point, then (behind the flag) the locality
// schedule. Consumers that garble or evaluate in netlist order — the
// plain CircuitGarbler/CircuitEvaluator, the streaming pipeline, v3 and
// the reusable construction — accept the scheduled circuit unchanged.
struct OptimizeOptions {
  bool schedule = false;  // run schedule_for_locality after DCE+CSE
};

Circuit optimize(const Circuit& c, const OptimizeOptions& opt,
                 OptimizeStats* stats = nullptr,
                 ScheduleStats* schedule_stats = nullptr);

}  // namespace maxel::circuit
