// Protocol-v3 garbling: known-operand gate shrinking + PRG-seeded
// active labels (the wire-format half of the "slim the wire" work).
//
// v2 ships two half-gate rows for every non-XOR gate plus a full
// 16-byte active label per garbler-input wire per round. But in the
// sequential MAC circuit large cones are *party-known*: every wire
// whose value the garbler can compute at garble time (constants, its
// own input bits, and any gate fed only by such wires) does not need
// the generic construction. Classifying each non-XOR gate by operand
// knowledge (analyze_v3):
//
//   kKnownOut  both operands garbler-known: the output value is known,
//              so the output label is pinned directly — zero rows.
//   kGenHalf   one operand garbler-known: a single generator-half-gate
//              row suffices (Zahur-Rosulek-Evans, half of kHalfGates).
//   kEvalHalf  an operand evaluator-known: one evaluator-half-gate row;
//              the evaluator picks the branch from its own plaintext.
//   kFull      neither side knows an operand: the standard 2-row
//              half-gates table.
//
// Active labels of garbler-known wires are derived by both parties from
// a per-session 16-byte label_seed: P = H(seed, {2*wire, round|2^62}).
// The garbler sets the wire's 0-label to P ^ value*delta, so the label
// the evaluator needs is always exactly P — nothing about `value` (or
// delta) leaks, and the per-round garbler-label transfer disappears.
// The same trick covers the constant wires and the round-0 DFF state
// (public init values), so v3 sessions ship no fixed/initial labels.
//
// Late-bound garbler inputs: a caller that cannot fix some garbler
// input bits at garble time lists them in V3Analysis::late mask; those
// wires (and their cones) fall back to ordinary random labels, and the
// serve path ships their active labels as per-wire "corrections"
// (wire, active-label) — the correction is an active label, never a
// label difference, so it reveals exactly what a v2 label transfer
// reveals. The demo protocol binds all inputs at garble time and ships
// an empty correction list.
//
// Security note (why a seed-derived active label is safe to publish):
// an active label is public to the evaluator by definition; only the
// *other* label (active ^ delta) must stay secret, and delta never
// enters the derivation. The tweak space {2*wire, round | 2^62} is
// disjoint from gate tweaks {2*gate, round} (bit 62 of the high half)
// and from the IKNP tweak domain.
//
// v3 requires Scheme::kHalfGates (kFull gates are vanilla half-gates
// tables, so a v3 session interoperates gate-for-gate with the v2
// garbler on the full gates).
//
// Both sides walk the circuit's AND-depth wave program (plan_waves,
// built once per analysis): wave k runs its free gates, then stages
// every hash of its non-free gates — 4/2/2/1 per kFull/kGenHalf/
// kEvalHalf/kKnownOut gate garbled, 2/1/1/1 evaluated — as one
// GcHash::hash_masked_batch, and each gate writes or reads its rows at
// its precomputed offset in the netlist-order row stream. The seed
// labels of the constants, bound garbler inputs and round-0 state are
// one batch of their own ahead of the first wave.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "gc/scheme.hpp"

namespace maxel::gc {

enum class GateClass : std::uint8_t {
  kFree,      // XOR/XNOR: 0 rows
  kFull,      // 2 rows (half gates)
  kGenHalf,   // 1 row, garbler knows an operand
  kEvalHalf,  // 1 row, evaluator knows an operand
  kKnownOut,  // 0 rows, garbler knows both operands
};

// High-half bit of the label-derivation tweak domain.
inline constexpr std::uint64_t kV3LabelDomain = 1ull << 62;

[[nodiscard]] constexpr Block v3_label_tweak(circuit::Wire w,
                                             std::uint64_t round) {
  return Block{2ull * w, round | kV3LabelDomain};
}

// Deterministic classification shared by garbler and evaluator. Both
// sides must compute it from the same circuit (it depends only on the
// public structure), or evaluation desyncs on the row stream.
struct V3Analysis {
  std::vector<GateClass> cls;        // per gate, netlist order
  std::vector<std::uint8_t> known;   // per wire: bit0 garbler, bit1 evaluator
  std::vector<bool> late;            // garbler inputs bound after garbling
  // plan_waves of the circuit, shared by every copy of the analysis.
  std::shared_ptr<const WavePlan> waves;
  // First row of waves->and_gates[i] in the round's row stream (unused
  // for kKnownOut gates, which ship none).
  std::vector<std::uint32_t> row_offset;
  std::size_t rows_per_round = 0;    // total ciphertext blocks per round
  std::size_t n_full = 0;
  std::size_t n_gen_half = 0;
  std::size_t n_eval_half = 0;
  std::size_t n_known_out = 0;

  [[nodiscard]] std::size_t row_bytes() const { return rows_per_round * 16; }
};

// `late_garbler_inputs` (optional, indexed like c.garbler_inputs) marks
// inputs whose bits are not available at garble time; empty = all bound.
V3Analysis analyze_v3(const circuit::Circuit& c,
                      const std::vector<bool>& late_garbler_inputs = {});

// One garbled round in v3 form. `rows` is the flat ciphertext stream in
// netlist order (2/1/0 blocks per gate as classified); both sides derive
// the per-gate row offsets from the shared V3Analysis, so the stream
// carries no per-gate headers.
struct V3RoundMaterial {
  std::vector<Block> rows;
  std::vector<std::pair<Block, Block>> evaluator_pairs;  // OT (m0, m1)
  std::vector<bool> output_map;  // point-and-permute decode colors
  // 0-labels of late-bound garbler inputs (same order as the late mask's
  // set bits); the serve path turns these into (wire, active) corrections
  // once the values are known. Empty when nothing is late-bound.
  std::vector<Block> late_labels0;
};

class V3Garbler {
 public:
  // delta must have lsb 1 (point-and-permute). In the pooled-OT protocol
  // it equals the server's IKNP sender secret, so evaluator-input labels
  // transfer as one block each (see ot/pool.hpp). The garbler keeps
  // references to `c` and `an`, which must outlive it.
  V3Garbler(const circuit::Circuit& c, const V3Analysis& an,
            const Block& delta, const Block& label_seed,
            crypto::RandomSource& rng);
  V3Garbler(const circuit::Circuit&, V3Analysis&&, const Block&,
            const Block&, crypto::RandomSource&) = delete;

  // Garbles the next round. garbler_bits are this round's values of the
  // non-late garbler inputs (full input count; late positions ignored).
  V3RoundMaterial garble_round(const std::vector<bool>& garbler_bits);

  [[nodiscard]] std::uint64_t rounds_garbled() const { return round_; }
  [[nodiscard]] const Block& delta() const { return delta_; }
  [[nodiscard]] const Block& label_seed() const { return label_seed_; }
  // Garbler-side decode of an active output label (last garbled round).
  [[nodiscard]] bool decode_output(std::size_t i, const Block& active) const;
  // Active label of late-bound garbler input i for value v (last round).
  [[nodiscard]] Block late_input_label(std::size_t i, bool v) const;

 private:
  const circuit::Circuit& circ_;
  const V3Analysis& an_;
  Block delta_;
  Block delta2_;  // 2 * delta: 2(x ^ delta) == 2x ^ delta2_
  Block label_seed_;
  Block seed2_;   // 2 * label_seed: the seed labels' hash input
  crypto::RandomSource& rng_;
  crypto::GcHash hash_;
  std::vector<Block> m_, h_;        // one batch of hash inputs / outputs
  std::vector<Block> labels0_;      // current round, 0-labels per wire
  std::vector<Block> next_state0_;  // DFF d-wire 0-labels for next round
  std::vector<std::uint8_t> gval_;  // garbler-known plaintext values
  std::uint64_t round_ = 0;
};

class V3Evaluator {
 public:
  // Keeps references to `c` and `an`, which must outlive it.
  V3Evaluator(const circuit::Circuit& c, const V3Analysis& an,
              const Block& label_seed);
  V3Evaluator(const circuit::Circuit&, V3Analysis&&, const Block&) = delete;

  // Evaluates one round; returns active output labels. evaluator_bits
  // are this round's evaluator input values (drives the kEvalHalf branch
  // choice), evaluator_labels the matching active labels from OT.
  // `corrections` overrides the seed-derived active label of the listed
  // wires (late-bound garbler inputs).
  std::vector<Block> eval_round(
      const std::vector<Block>& rows,
      const std::vector<bool>& evaluator_bits,
      const std::vector<Block>& evaluator_labels,
      const std::vector<std::pair<std::uint32_t, Block>>& corrections = {});

  [[nodiscard]] std::uint64_t rounds_evaluated() const { return round_; }

 private:
  const circuit::Circuit& circ_;
  const V3Analysis& an_;
  Block seed2_;  // 2 * label_seed
  crypto::GcHash hash_;
  std::vector<Block> m_, h_;       // one batch of hash inputs / outputs
  // Late-bound garbler inputs: wire -> index in the late mask's set bits
  // (kNotLate otherwise; empty when nothing is late-bound), and the
  // eval_round call that last corrected each one.
  std::vector<std::uint32_t> late_of_wire_;
  std::vector<std::uint64_t> corrected_in_;
  std::uint64_t calls_ = 0;
  std::vector<Block> state_;       // DFF active labels carried across rounds
  std::vector<Block> active_;      // per-round wire buffer
  std::vector<std::uint8_t> eval_;  // evaluator-known plaintext values
  std::uint64_t round_ = 0;
};

}  // namespace maxel::gc
