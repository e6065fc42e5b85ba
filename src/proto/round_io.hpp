// The v2 round record: one round of garbled material as the per-round
// flow moves it. GarblerParty is its one writer; EvaluatorParty and
// net::Client read it through the one reader, recv_round.
//
// The record carries only what the evaluator may see: the garbled
// tables, the *active* garbler input labels (already selected with the
// garbler's inputs), the active constant-wire labels, the round-0 DFF
// state labels and the output color map. The evaluator input label
// pairs stay with the garbler and travel only through OT. A stream-mode
// chunk (chunk_io.hpp) carries the same WireRound for several rounds in
// one frame.
//
// Format (little-endian), one record per round:
//   n_tables u64 | tables (rows(scheme) x 16 B each, netlist order)
//   garbler_labels (u64 count, 16 B each)
//   fixed_labels   (u64 count, 16 B each)
//   state_labels   (u64 count, 16 B each; round 0 only)
//   output_map     (u64 count, bit-packed)
//
// recv_round checks every count against the circuit before it
// allocates — tables == and_count(), garbler labels == garbler inputs,
// 2 fixed labels, state labels == DFFs, map bits == outputs — and throws
// CountMismatchError on any other, so a flipped bit in a count never
// sizes a buffer.
#pragma once

#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/block.hpp"
#include "gc/garble.hpp"
#include "gc/scheme.hpp"
#include "proto/channel.hpp"

namespace maxel::proto {

// One round as the evaluator sees it.
struct WireRound {
  gc::RoundTables tables;
  std::vector<crypto::Block> garbler_labels;  // active, pre-selected
  std::vector<crypto::Block> fixed_labels;    // active const labels
  std::vector<bool> output_map;
};

// The evaluator's view of garbled round material: selects the active
// garbler labels with `garbler_bits` and moves the tables, fixed labels
// and decode map out of `m`. The evaluator label pairs stay in `m` for
// the OT.
WireRound select_round(gc::RoundMaterial& m, const crypto::Block& delta,
                       const std::vector<bool>& garbler_bits);

// Writes one round record; `state_labels` is non-null on round 0 only.
void send_round(Channel& ch, gc::Scheme scheme, const WireRound& r,
                const std::vector<crypto::Block>* state_labels);

// Reads one round record of circuit `c`; on round 0 pass `state_labels`
// to receive the DFF state labels.
WireRound recv_round(Channel& ch, const circuit::Circuit& c,
                     gc::Scheme scheme,
                     std::vector<crypto::Block>* state_labels);

}  // namespace maxel::proto
