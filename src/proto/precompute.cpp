#include "proto/precompute.hpp"

#include <stdexcept>

namespace maxel::proto {

using crypto::Block;

PrecomputedSession garble_session(const circuit::Circuit& c, gc::Scheme scheme,
                                  std::size_t rounds,
                                  crypto::RandomSource& rng) {
  gc::CircuitGarbler garbler(c, scheme, rng);
  PrecomputedSession session;
  session.scheme = scheme;
  session.delta = garbler.delta();
  session.rounds.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    session.rounds.push_back(garbler.garble_round_material());
    if (r == 0) session.initial_state_labels = garbler.initial_state_labels();
  }
  return session;
}

PrecomputedGarblerParty::PrecomputedGarblerParty(PrecomputedSession session,
                                                 Channel& ch,
                                                 crypto::RandomSource& rng)
    : PrecomputedGarblerParty(std::move(session), ch, rng,
                              PrecomputedOtMode::kBase) {}

PrecomputedGarblerParty::PrecomputedGarblerParty(PrecomputedSession session,
                                                 Channel& ch,
                                                 crypto::RandomSource& rng,
                                                 PrecomputedOtMode ot)
    : session_(std::move(session)), ch_(ch) {
  if (ot == PrecomputedOtMode::kIknp) {
    iknp_ = std::make_unique<ot::IknpSender>(ch, rng);
    ot_ = iknp_.get();
  } else {
    owned_ot_ = std::make_unique<ot::BaseOtSender>(ch, rng);
    ot_ = owned_ot_.get();
  }
}

PrecomputedGarblerParty::PrecomputedGarblerParty(PrecomputedSession session,
                                                 Channel& ch,
                                                 ot::OtSender& external_ot)
    : session_(std::move(session)), ch_(ch), ot_(&external_ot) {}

void PrecomputedGarblerParty::setup_step2() {
  if (iknp_) iknp_->setup_step2();
}
void PrecomputedGarblerParty::setup_step4() {
  if (iknp_) iknp_->setup_step4();
}

void PrecomputedGarblerParty::garble_and_send(
    const std::vector<bool>& garbler_bits) {
  if (sent_rounds_ >= session_.rounds.size())
    throw std::runtime_error("PrecomputedGarblerParty: session exhausted");
  const auto& r = session_.rounds[sent_rounds_];
  if (garbler_bits.size() != r.garbler_labels0.size())
    throw std::invalid_argument(
        "PrecomputedGarblerParty: input arity mismatch");

  // Same wire format as GarblerParty::garble_and_send, so the ordinary
  // EvaluatorParty is oblivious to precomputation.
  ch_.send_u64(r.tables.tables.size());
  std::vector<std::uint8_t> buf(r.tables.byte_size(session_.scheme));
  gc::tables_to_bytes(r.tables, session_.scheme, buf.data());
  ch_.send_bytes(buf.data(), buf.size());

  std::vector<Block> g_labels(garbler_bits.size());
  for (std::size_t i = 0; i < garbler_bits.size(); ++i)
    g_labels[i] = garbler_bits[i] ? r.garbler_labels0[i] ^ session_.delta
                                  : r.garbler_labels0[i];
  ch_.send_blocks(g_labels);
  ch_.send_blocks(r.fixed_labels);
  if (sent_rounds_ == 0) ch_.send_blocks(session_.initial_state_labels);
  ch_.send_bits(r.output_map);

  ot_->send_phase1(r.evaluator_pairs.size());
  ++sent_rounds_;
}

void PrecomputedGarblerParty::finish_ot() {
  if (ot_rounds_ >= sent_rounds_)
    throw std::logic_error("PrecomputedGarblerParty: finish_ot before send");
  ot_->send_phase2(session_.rounds[ot_rounds_].evaluator_pairs);
  ++ot_rounds_;
}

}  // namespace maxel::proto
