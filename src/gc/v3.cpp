#include "gc/v3.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace maxel::gc {

namespace {

constexpr std::uint8_t kGarblerKnown = 1;
constexpr std::uint8_t kEvaluatorKnown = 2;
constexpr std::uint32_t kNotLate = UINT32_MAX;

[[noreturn]] void desync(const std::string& what) {
  throw std::runtime_error("v3: " + what);
}

// The evaluator half of a half-gates table hashes under tweak ^ 1.
constexpr Block odd_half(Block t) {
  t.lo ^= 1u;
  return t;
}

constexpr bool and_value(const circuit::AndForm& f, std::uint8_t a,
                         std::uint8_t b) {
  return ((a != 0) != f.alpha && (b != 0) != f.beta) != f.gamma;
}

// Hash inputs of a round's seed labels H(seed, v3_label_tweak(w, round)),
// in the order both sides read them back: the constants, the bound
// garbler inputs, then (round 0 only) the DFF state wires.
std::size_t stage_seed_labels(const circuit::Circuit& c, const V3Analysis& an,
                              const Block& seed2, std::uint64_t round,
                              Block* m) {
  std::size_t n = 0;
  m[n++] = seed2 ^ v3_label_tweak(circuit::kConstZero, round);
  m[n++] = seed2 ^ v3_label_tweak(circuit::kConstOne, round);
  for (std::size_t i = 0; i < c.garbler_inputs.size(); ++i)
    if (an.late.empty() || !an.late[i])
      m[n++] = seed2 ^ v3_label_tweak(c.garbler_inputs[i], round);
  if (round == 0)
    for (const circuit::Dff& d : c.dffs)
      m[n++] = seed2 ^ v3_label_tweak(d.q, 0);
  return n;
}

// Room for the seed batch or the widest wave's hashes (at most 4 per AND).
std::size_t batch_capacity(const circuit::Circuit& c, const V3Analysis& an) {
  std::size_t n = 2 + c.garbler_inputs.size() + c.dffs.size();
  std::uint32_t prev = 0;
  for (const WavePlan::Wave& w : an.waves->waves) {
    n = std::max<std::size_t>(n, 4 * (w.and_end - prev));
    prev = w.and_end;
  }
  return n;
}

}  // namespace

V3Analysis analyze_v3(const circuit::Circuit& c,
                      const std::vector<bool>& late_garbler_inputs) {
  if (!late_garbler_inputs.empty() &&
      late_garbler_inputs.size() != c.garbler_inputs.size())
    throw std::invalid_argument("analyze_v3: late mask size mismatch");

  V3Analysis an;
  an.late = late_garbler_inputs;
  an.known.assign(c.num_wires, 0);
  an.known[circuit::kConstZero] = kGarblerKnown | kEvaluatorKnown;
  an.known[circuit::kConstOne] = kGarblerKnown | kEvaluatorKnown;
  for (std::size_t i = 0; i < c.garbler_inputs.size(); ++i)
    if (late_garbler_inputs.empty() || !late_garbler_inputs[i])
      an.known[c.garbler_inputs[i]] = kGarblerKnown;
  for (const circuit::Wire w : c.evaluator_inputs)
    an.known[w] = kEvaluatorKnown;
  // DFF q wires stay unknown to both sides: their labels are carried
  // across rounds and their values depend on both parties' inputs.

  an.cls.resize(c.gates.size());
  std::vector<std::uint32_t> first_row(c.gates.size(), 0);
  for (std::size_t i = 0; i < c.gates.size(); ++i) {
    const circuit::Gate& g = c.gates[i];
    const std::uint8_t ka = an.known[g.a];
    const std::uint8_t kb = an.known[g.b];
    an.known[g.out] = ka & kb;
    if (circuit::is_free(g.type)) {
      an.cls[i] = GateClass::kFree;
      continue;
    }
    first_row[i] = static_cast<std::uint32_t>(an.rows_per_round);
    if ((ka & kGarblerKnown) && (kb & kGarblerKnown)) {
      an.cls[i] = GateClass::kKnownOut;
      ++an.n_known_out;
    } else if ((ka & kGarblerKnown) || (kb & kGarblerKnown)) {
      an.cls[i] = GateClass::kGenHalf;
      ++an.n_gen_half;
      an.rows_per_round += 1;
    } else if ((ka & kEvaluatorKnown) || (kb & kEvaluatorKnown)) {
      an.cls[i] = GateClass::kEvalHalf;
      ++an.n_eval_half;
      an.rows_per_round += 1;
    } else {
      an.cls[i] = GateClass::kFull;
      ++an.n_full;
      an.rows_per_round += 2;
    }
  }

  an.waves = std::make_shared<const WavePlan>(plan_waves(c));
  an.row_offset.reserve(an.waves->and_gates.size());
  for (const WavePlan::AndGate& g : an.waves->and_gates)
    an.row_offset.push_back(first_row[g.gate]);
  return an;
}

// ---------------------------------------------------------------------------
// Garbler

V3Garbler::V3Garbler(const circuit::Circuit& c, const V3Analysis& an,
                     const Block& delta, const Block& label_seed,
                     crypto::RandomSource& rng)
    : circ_(c),
      an_(an),
      delta_(delta),
      delta2_(delta.gf_double()),
      label_seed_(label_seed),
      seed2_(label_seed.gf_double()),
      rng_(rng) {
  if (!delta_.lsb())
    throw std::invalid_argument("V3Garbler: delta must have lsb 1");
  if (an_.cls.size() != c.gates.size() || !an_.waves)
    throw std::invalid_argument("V3Garbler: analysis/circuit mismatch");
  m_.resize(batch_capacity(c, an_));
  h_.resize(m_.size());
  labels0_.resize(c.num_wires);
  gval_.assign(c.num_wires, 0);
  next_state0_.resize(c.dffs.size());
}

V3RoundMaterial V3Garbler::garble_round(const std::vector<bool>& garbler_bits) {
  if (garbler_bits.size() != circ_.garbler_inputs.size())
    throw std::invalid_argument("V3Garbler: garbler bit count mismatch");

  V3RoundMaterial out;
  out.rows.resize(an_.rows_per_round);
  Block* const l = labels0_.data();
  std::uint8_t* const v = gval_.data();
  Block* const m = m_.data();
  const Block* const h = h_.data();

  // Plaintext simulation of the garbler-known cone.
  v[circuit::kConstZero] = 0;
  v[circuit::kConstOne] = 1;
  for (std::size_t i = 0; i < circ_.garbler_inputs.size(); ++i)
    v[circ_.garbler_inputs[i]] = garbler_bits[i] ? 1 : 0;

  // Input/constant/state label assignment. RNG draws: late-bound
  // garbler inputs, then evaluator inputs.
  hash_.hash_masked_batch(
      m, h_.data(), stage_seed_labels(circ_, an_, seed2_, round_, m));
  std::size_t n = 0;
  l[circuit::kConstZero] = h[n++];
  l[circuit::kConstOne] = h[n++] ^ delta_;
  for (std::size_t i = 0; i < circ_.garbler_inputs.size(); ++i) {
    const circuit::Wire w = circ_.garbler_inputs[i];
    if (!an_.late.empty() && an_.late[i]) {
      l[w] = rng_.next_block();
      out.late_labels0.push_back(l[w]);
    } else {
      l[w] = garbler_bits[i] ? h[n++] ^ delta_ : h[n++];
    }
  }
  out.evaluator_pairs.reserve(circ_.evaluator_inputs.size());
  for (const circuit::Wire w : circ_.evaluator_inputs) {
    l[w] = rng_.next_block();
    out.evaluator_pairs.emplace_back(l[w], l[w] ^ delta_);
  }
  for (std::size_t k = 0; k < circ_.dffs.size(); ++k) {
    const circuit::Dff& d = circ_.dffs[k];
    if (round_ == 0)
      l[d.q] = d.init ? h[n++] ^ delta_ : h[n++];
    else
      l[d.q] = next_state0_[k];
  }

  const WavePlan& plan = *an_.waves;
  std::size_t fi = 0, ai = 0;
  for (const WavePlan::Wave& wave : plan.waves) {
    for (; fi < wave.free_end; ++fi) {
      const WavePlan::FreeGate& g = plan.free_gates[fi];
      l[g.out] = g.xnor ? l[g.a] ^ l[g.b] ^ delta_ : l[g.a] ^ l[g.b];
      v[g.out] = v[g.a] ^ v[g.b] ^ (g.xnor ? 1 : 0);
    }

    // Stage every hash input of the wave's non-free gates.
    n = 0;
    for (std::size_t i = ai; i < wave.and_end; ++i) {
      const WavePlan::AndGate& g = plan.and_gates[i];
      const Block t = gate_tweak(g.gate, round_);
      switch (an_.cls[g.gate]) {
        case GateClass::kFull: {
          // GateGarbler's half-gates table on a' = a ^ alpha,
          // b' = b ^ beta: H(a'), H(a' ^ delta) under t, H(b'),
          // H(b' ^ delta) under t ^ 1.
          const Block a = g.form.alpha ? l[g.a] ^ delta_ : l[g.a];
          const Block b = g.form.beta ? l[g.b] ^ delta_ : l[g.b];
          m[n] = a.gf_double() ^ t;
          m[n + 1] = m[n] ^ delta2_;
          m[n + 2] = b.gf_double() ^ odd_half(t);
          m[n + 3] = m[n + 2] ^ delta2_;
          n += 4;
          break;
        }
        case GateClass::kGenHalf: {
          // H(u0), H(u0 ^ delta) of the operand the garbler does not know.
          const bool a_known = (an_.known[g.a] & kGarblerKnown) != 0;
          m[n] = l[a_known ? g.b : g.a].gf_double() ^ t;
          m[n + 1] = m[n] ^ delta2_;
          n += 2;
          break;
        }
        case GateClass::kEvalHalf: {
          // H(k_vb0), H(k_vb0 ^ delta): vb0 is the evaluator-known
          // operand's value that zeroes the AND factor.
          const bool a_known = (an_.known[g.a] & kEvaluatorKnown) != 0;
          const Block k = l[a_known ? g.a : g.b];
          const bool vb0 = a_known ? g.form.alpha : g.form.beta;
          m[n] = (vb0 ? k ^ delta_ : k).gf_double() ^ t;
          m[n + 1] = m[n] ^ delta2_;
          n += 2;
          break;
        }
        case GateClass::kKnownOut:
          v[g.out] = and_value(g.form, v[g.a], v[g.b]) ? 1 : 0;
          m[n++] = seed2_ ^ v3_label_tweak(g.out, round_);
          break;
        case GateClass::kFree:
          break;
      }
    }
    hash_.hash_masked_batch(m, h_.data(), n);

    // Finish each gate from its hashes; rows go to the gate's offset.
    n = 0;
    for (; ai < wave.and_end; ++ai) {
      const WavePlan::AndGate& g = plan.and_gates[ai];
      Block* const row = out.rows.data() + an_.row_offset[ai];
      switch (an_.cls[g.gate]) {
        case GateClass::kFull: {
          const Block a = g.form.alpha ? l[g.a] ^ delta_ : l[g.a];
          const bool pb = l[g.b].lsb() != g.form.beta;
          const Block &ha0 = h[n], &ha1 = h[n + 1];
          const Block &hb0 = h[n + 2], &hb1 = h[n + 3];
          n += 4;
          // Generator half.
          Block tg = ha0 ^ ha1;
          if (pb) tg ^= delta_;
          Block wg = ha0;
          if (a.lsb()) wg ^= tg;
          // Evaluator half.
          const Block te = hb0 ^ hb1 ^ a;
          Block we = hb0;
          if (pb) we ^= te ^ a;
          row[0] = tg;
          row[1] = te;
          l[g.out] = g.form.gamma ? wg ^ we ^ delta_ : wg ^ we;
          break;
        }
        case GateClass::kGenHalf: {
          const bool a_known = (an_.known[g.a] & kGarblerKnown) != 0;
          const bool off_k = a_known ? g.form.alpha : g.form.beta;
          const bool off_u = a_known ? g.form.beta : g.form.alpha;
          const bool vk = v[a_known ? g.a : g.b] != 0;
          // The gate as a function of the unknown operand's value y:
          // f(y) = ((vk^off_k) & (y^off_u)) ^ gamma.
          const bool f0 = ((vk != off_k) && off_u) != g.form.gamma;
          const bool f1 = ((vk != off_k) && !off_u) != g.form.gamma;
          const Block& h0 = h[n];
          Block r = h0 ^ h[n + 1];
          n += 2;
          if (f0 != f1) r ^= delta_;
          Block out0 = h0;
          if (f0) out0 ^= delta_;
          if (l[a_known ? g.b : g.a].lsb()) out0 ^= r;
          row[0] = r;
          l[g.out] = out0;
          break;
        }
        case GateClass::kEvalHalf: {
          // On the vb0 branch the output is the constant gamma.
          const bool a_known = (an_.known[g.a] & kEvaluatorKnown) != 0;
          const bool off_u = a_known ? g.form.beta : g.form.alpha;
          Block out0 = h[n];
          if (g.form.gamma) out0 ^= delta_;
          Block r = h[n + 1] ^ l[a_known ? g.b : g.a] ^ out0;
          n += 2;
          if (off_u != g.form.gamma) r ^= delta_;
          row[0] = r;
          l[g.out] = out0;
          break;
        }
        case GateClass::kKnownOut:
          l[g.out] = v[g.out] != 0 ? h[n++] ^ delta_ : h[n++];
          break;
        case GateClass::kFree:
          break;
      }
    }
  }

  out.output_map.reserve(circ_.outputs.size());
  for (const circuit::Wire w : circ_.outputs)
    out.output_map.push_back(l[w].lsb());
  for (std::size_t k = 0; k < circ_.dffs.size(); ++k)
    next_state0_[k] = l[circ_.dffs[k].d];
  ++round_;
  return out;
}

bool V3Garbler::decode_output(std::size_t i, const Block& active) const {
  const Block l0 = labels0_[circ_.outputs.at(i)];
  if (active == l0) return false;
  if (active == (l0 ^ delta_)) return true;
  throw std::runtime_error("V3Garbler: active output label decodes to "
                           "neither 0- nor 1-label");
}

Block V3Garbler::late_input_label(std::size_t i, bool v) const {
  if (an_.late.empty() || i >= an_.late.size() || !an_.late[i])
    throw std::invalid_argument("V3Garbler: input not late-bound");
  const Block l0 = labels0_[circ_.garbler_inputs[i]];
  return v ? l0 ^ delta_ : l0;
}

// ---------------------------------------------------------------------------
// Evaluator

V3Evaluator::V3Evaluator(const circuit::Circuit& c, const V3Analysis& an,
                         const Block& label_seed)
    : circ_(c), an_(an), seed2_(label_seed.gf_double()) {
  if (an_.cls.size() != c.gates.size() || !an_.waves)
    throw std::invalid_argument("V3Evaluator: analysis/circuit mismatch");
  m_.resize(batch_capacity(c, an_));
  h_.resize(m_.size());
  for (std::size_t i = 0; i < an_.late.size(); ++i) {
    if (!an_.late[i]) continue;
    if (late_of_wire_.empty()) late_of_wire_.assign(c.num_wires, kNotLate);
    late_of_wire_[c.garbler_inputs[i]] =
        static_cast<std::uint32_t>(corrected_in_.size());
    corrected_in_.push_back(0);
  }
  active_.resize(c.num_wires);
  eval_.assign(c.num_wires, 0);
  state_.resize(c.dffs.size());
}

std::vector<Block> V3Evaluator::eval_round(
    const std::vector<Block>& rows, const std::vector<bool>& evaluator_bits,
    const std::vector<Block>& evaluator_labels,
    const std::vector<std::pair<std::uint32_t, Block>>& corrections) {
  if (evaluator_bits.size() != circ_.evaluator_inputs.size() ||
      evaluator_labels.size() != circ_.evaluator_inputs.size())
    desync("evaluator input count mismatch");
  if (rows.size() != an_.rows_per_round) desync("row count mismatch");
  Block* const l = active_.data();
  std::uint8_t* const v = eval_.data();
  Block* const m = m_.data();
  const Block* const h = h_.data();

  // Plaintext simulation of the evaluator-known cone.
  v[circuit::kConstZero] = 0;
  v[circuit::kConstOne] = 1;
  for (std::size_t i = 0; i < circ_.evaluator_inputs.size(); ++i)
    v[circ_.evaluator_inputs[i]] = evaluator_bits[i] ? 1 : 0;

  hash_.hash_masked_batch(
      m, h_.data(), stage_seed_labels(circ_, an_, seed2_, round_, m));
  std::size_t n = 0;
  l[circuit::kConstZero] = h[n++];
  l[circuit::kConstOne] = h[n++];
  for (std::size_t i = 0; i < circ_.garbler_inputs.size(); ++i)
    if (an_.late.empty() || !an_.late[i]) l[circ_.garbler_inputs[i]] = h[n++];
  for (std::size_t i = 0; i < circ_.evaluator_inputs.size(); ++i)
    l[circ_.evaluator_inputs[i]] = evaluator_labels[i];
  for (std::size_t k = 0; k < circ_.dffs.size(); ++k)
    l[circ_.dffs[k].q] = round_ == 0 ? h[n++] : state_[k];
  // Late-bound garbler inputs arrive as explicit (wire, active) pairs.
  ++calls_;
  std::size_t corrected = 0;
  for (const auto& [w, label] : corrections) {
    if (w >= circ_.num_wires) desync("correction wire out of range");
    l[w] = label;
    if (late_of_wire_.empty() || late_of_wire_[w] == kNotLate) continue;
    std::uint64_t& seen = corrected_in_[late_of_wire_[w]];
    if (seen != calls_) ++corrected;
    seen = calls_;
  }
  if (corrected != corrected_in_.size())
    desync("missing late-input correction");

  const WavePlan& plan = *an_.waves;
  std::size_t fi = 0, ai = 0;
  for (const WavePlan::Wave& wave : plan.waves) {
    for (; fi < wave.free_end; ++fi) {
      const WavePlan::FreeGate& g = plan.free_gates[fi];
      l[g.out] = l[g.a] ^ l[g.b];
      v[g.out] = v[g.a] ^ v[g.b] ^ (g.xnor ? 1 : 0);
    }

    // Stage every hash input of the wave's non-free gates.
    n = 0;
    for (std::size_t i = ai; i < wave.and_end; ++i) {
      const WavePlan::AndGate& g = plan.and_gates[i];
      const Block t = gate_tweak(g.gate, round_);
      v[g.out] = and_value(g.form, v[g.a], v[g.b]) ? 1 : 0;
      switch (an_.cls[g.gate]) {
        case GateClass::kFull:
          m[n++] = l[g.a].gf_double() ^ t;
          m[n++] = l[g.b].gf_double() ^ odd_half(t);
          break;
        case GateClass::kGenHalf: {
          // H(u) of the operand the garbler does not know.
          const bool a_known = (an_.known[g.a] & kGarblerKnown) != 0;
          m[n++] = l[a_known ? g.b : g.a].gf_double() ^ t;
          break;
        }
        case GateClass::kEvalHalf: {
          // H(k) of the operand the evaluator knows.
          const bool a_known = (an_.known[g.a] & kEvaluatorKnown) != 0;
          m[n++] = l[a_known ? g.a : g.b].gf_double() ^ t;
          break;
        }
        case GateClass::kKnownOut:
          m[n++] = seed2_ ^ v3_label_tweak(g.out, round_);
          break;
        case GateClass::kFree:
          break;
      }
    }
    hash_.hash_masked_batch(m, h_.data(), n);

    // Finish each gate from its hashes and its rows.
    n = 0;
    for (; ai < wave.and_end; ++ai) {
      const WavePlan::AndGate& g = plan.and_gates[ai];
      const Block* const row = rows.data() + an_.row_offset[ai];
      switch (an_.cls[g.gate]) {
        case GateClass::kFull: {
          Block wg = h[n];
          if (l[g.a].lsb()) wg ^= row[0];
          Block we = h[n + 1];
          if (l[g.b].lsb()) we ^= row[1] ^ l[g.a];
          n += 2;
          l[g.out] = wg ^ we;
          break;
        }
        case GateClass::kGenHalf: {
          const bool a_known = (an_.known[g.a] & kGarblerKnown) != 0;
          Block c = h[n++];
          if (l[a_known ? g.b : g.a].lsb()) c ^= row[0];
          l[g.out] = c;
          break;
        }
        case GateClass::kEvalHalf: {
          const bool a_known = (an_.known[g.a] & kEvaluatorKnown) != 0;
          const bool vb0 = a_known ? g.form.alpha : g.form.beta;
          const bool vk = v[a_known ? g.a : g.b] != 0;
          Block c = h[n++];
          if (vk != vb0) c ^= row[0] ^ l[a_known ? g.b : g.a];
          l[g.out] = c;
          break;
        }
        case GateClass::kKnownOut:
          l[g.out] = h[n++];
          break;
        case GateClass::kFree:
          break;
      }
    }
  }

  for (std::size_t k = 0; k < circ_.dffs.size(); ++k)
    state_[k] = l[circ_.dffs[k].d];
  std::vector<Block> outs;
  outs.reserve(circ_.outputs.size());
  for (const circuit::Wire w : circ_.outputs) outs.push_back(l[w]);
  ++round_;
  return outs;
}

}  // namespace maxel::gc
