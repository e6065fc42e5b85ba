#include "proto/protocol.hpp"

#include <stdexcept>
#include <utility>

namespace maxel::proto {

using crypto::Block;

RoundSource::RoundSource(PrecomputedSession stored)
    : session_(std::move(stored)) {}

RoundSource::RoundSource(const circuit::Circuit& c, gc::Scheme scheme,
                         crypto::RandomSource& rng)
    : live_(std::make_unique<gc::CircuitGarbler>(c, scheme, rng)) {
  session_.scheme = scheme;
  session_.delta = live_->delta();
  session_.rounds.resize(1);
}

gc::RoundMaterial& RoundSource::next() {
  if (live_) {
    session_.rounds.front() = live_->garble_round_material();
    if (served_++ == 0)
      session_.initial_state_labels = live_->initial_state_labels();
    return session_.rounds.front();
  }
  if (served_ >= session_.rounds.size())
    throw std::runtime_error("RoundSource: session exhausted");
  return session_.rounds[served_++];
}

GarblerParty::GarblerParty(RoundSource rounds, Channel& ch,
                           crypto::RandomSource& rng, OtMode ot)
    : rounds_(std::move(rounds)), ch_(ch) {
  if (ot == OtMode::kIknp) {
    iknp_ = std::make_unique<ot::IknpSender>(ch, rng);
    ot_ = iknp_.get();
  } else {
    base_ot_ = std::make_unique<ot::BaseOtSender>(ch, rng);
    ot_ = base_ot_.get();
  }
}

GarblerParty::GarblerParty(RoundSource rounds, Channel& ch,
                           ot::OtSender& external_ot)
    : rounds_(std::move(rounds)), ch_(ch), ot_(&external_ot) {}

void GarblerParty::setup_step2() {
  if (iknp_) iknp_->setup_step2();
}
void GarblerParty::setup_step4() {
  if (iknp_) iknp_->setup_step4();
}

void GarblerParty::garble_and_send(const std::vector<bool>& garbler_bits) {
  const bool first_round = rounds_.served() == 0;
  gc::RoundMaterial& m = rounds_.next();
  send_round(ch_, rounds_.scheme(),
             select_round(m, rounds_.delta(), garbler_bits),
             first_round ? &rounds_.initial_state_labels() : nullptr);
  ot_->send_phase1(m.evaluator_pairs.size());
  ot_round_ = &m;
}

void GarblerParty::finish_ot() {
  if (ot_round_ == nullptr)
    throw std::logic_error("GarblerParty: finish_ot before garble_and_send");
  ot_->send_phase2(ot_round_->evaluator_pairs);
  ot_round_ = nullptr;
}

EvaluatorParty::EvaluatorParty(const circuit::Circuit& c,
                               const ProtocolOptions& opt, Channel& ch,
                               crypto::RandomSource& rng)
    : circ_(c), opt_(opt), ch_(ch), evaluator_(c, opt.scheme) {
  if (opt.ot == OtMode::kIknp) {
    iknp_ = std::make_unique<ot::IknpReceiver>(ch, rng);
    ot_ = iknp_.get();
  } else {
    base_ot_ = std::make_unique<ot::BaseOtReceiver>(ch, rng);
    ot_ = base_ot_.get();
  }
}

EvaluatorParty::EvaluatorParty(const circuit::Circuit& c, gc::Scheme scheme,
                               Channel& ch, ot::OtReceiver& external_ot)
    : circ_(c), opt_{scheme, OtMode::kBase}, ch_(ch),
      evaluator_(c, scheme), ot_(&external_ot) {}

void EvaluatorParty::setup_step1() {
  if (iknp_) iknp_->setup_step1();
}
void EvaluatorParty::setup_step3() {
  if (iknp_) iknp_->setup_step3();
}

void EvaluatorParty::receive_and_choose(
    const std::vector<bool>& evaluator_bits) {
  if (evaluator_bits.size() != circ_.evaluator_inputs.size())
    throw std::invalid_argument("receive_and_choose: input arity mismatch");

  std::vector<Block> state;
  round_ = recv_round(ch_, circ_, opt_.scheme,
                      state_initialized_ ? nullptr : &state);
  if (!state_initialized_) {
    evaluator_.set_initial_state_labels(std::move(state));
    state_initialized_ = true;
  }

  ot_->recv_phase1(evaluator_bits);
}

std::vector<bool> EvaluatorParty::evaluate_round() {
  const std::vector<Block> e_labels = ot_->recv_phase2();
  const auto out_labels = evaluator_.eval_round(
      round_.tables, round_.garbler_labels, e_labels, round_.fixed_labels);
  return gc::decode_with_map(out_labels, round_.output_map);
}

TwoPartyProtocol::TwoPartyProtocol(const circuit::Circuit& c,
                                   const ProtocolOptions& opt)
    : circ_(c), opt_(opt) {}

ProtocolResult TwoPartyProtocol::run(
    const std::vector<circuit::RoundInputs>& rounds) {
  auto [g_ch, e_ch] = MemoryChannel::create_pair();
  crypto::SystemRandom g_rng;
  crypto::SystemRandom e_rng;
  GarblerParty garbler(RoundSource(circ_, opt_.scheme, g_rng), *g_ch, g_rng,
                       opt_.ot);
  EvaluatorParty evaluator(circ_, opt_, *e_ch, e_rng);

  evaluator.setup_step1();
  garbler.setup_step2();
  evaluator.setup_step3();
  garbler.setup_step4();

  ProtocolResult res;
  for (const auto& r : rounds) {
    garbler.garble_and_send(r.garbler_bits);
    evaluator.receive_and_choose(r.evaluator_bits);
    garbler.finish_ot();
    res.outputs = evaluator.evaluate_round();
  }
  res.rounds = rounds.size();
  res.garbler_bytes_sent = g_ch->bytes_sent();
  res.evaluator_bytes_sent = e_ch->bytes_sent();
  res.ands_garbled = circ_.and_count() * rounds.size();
  res.table_bytes = res.ands_garbled * gc::bytes_per_and(opt_.scheme);
  return res;
}

}  // namespace maxel::proto
