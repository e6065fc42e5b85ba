// Memory-bounded streaming evaluation.
//
// Sec. 3 motivates sequential GC with memory-constrained clients: "the
// evaluator may not have enough memory to store all the labels
// together". The standard CircuitEvaluator keeps one label per wire
// (16 bytes x num_wires). This evaluator computes each wire's last use,
// allocates labels into a small slot pool, and frees slots eagerly, so
// the client's working set is the circuit's *live width*, not its wire
// count — typically an order of magnitude smaller for MAC netlists.
//
// Semantics are identical to CircuitEvaluator (asserted by tests); only
// the storage strategy differs. The gate walk is the shared eval_plan,
// over a netlist-order plan (plan_netlist_order) so slots recycle
// exactly where plan_evaluation freed them.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"
#include "gc/garble.hpp"
#include "gc/scheme.hpp"

namespace maxel::gc {

// Static storage plan for one circuit: wire -> slot with slot reuse.
struct EvaluationPlan {
  std::vector<std::uint32_t> slot_of_wire;  // per wire
  std::size_t num_slots = 0;                // peak live labels
  std::size_t num_wires = 0;

  // Working-set compression vs the dense evaluator.
  [[nodiscard]] double compression() const {
    return num_slots == 0 ? 0.0
                          : static_cast<double>(num_wires) /
                                static_cast<double>(num_slots);
  }
};

// Builds the plan: liveness runs from each wire's definition to its last
// use (outputs and DFF next-state wires live to the end of the round).
EvaluationPlan plan_evaluation(const circuit::Circuit& c);

class StreamingEvaluator {
 public:
  StreamingEvaluator(const circuit::Circuit& c, Scheme scheme);

  void set_initial_state_labels(std::vector<Block> labels);

  std::vector<Block> eval_round(const RoundTables& tables,
                                const std::vector<Block>& garbler_labels,
                                const std::vector<Block>& evaluator_labels,
                                const std::vector<Block>& fixed_labels);

  [[nodiscard]] const EvaluationPlan& plan() const { return plan_; }
  // Peak label memory in bytes (the client's working set).
  [[nodiscard]] std::size_t working_set_bytes() const {
    return plan_.num_slots * 16;
  }

 private:
  const circuit::Circuit& circ_;
  GateGarbler gg_;
  EvaluationPlan plan_;
  WavePlan program_;  // netlist order over plan_'s slots
  std::vector<Block> slots_;
  std::vector<Block> state_;
  std::uint64_t round_ = 0;
};

}  // namespace maxel::gc
