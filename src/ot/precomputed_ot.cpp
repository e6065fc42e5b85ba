#include "ot/precomputed_ot.hpp"

#include <stdexcept>

namespace maxel::ot {

OtPool precompute_ot_pool(OtSender& sender, OtReceiver& receiver,
                          std::size_t n, crypto::RandomSource& sender_rng,
                          crypto::RandomSource& receiver_rng) {
  OtPool pool;
  pool.sender_pairs.resize(n);
  for (auto& [r0, r1] : pool.sender_pairs) {
    r0 = sender_rng.next_block();
    r1 = sender_rng.next_block();
  }
  pool.choices.resize(n);
  for (std::size_t i = 0; i < n; ++i) pool.choices[i] = receiver_rng.next_bit();

  sender.send_phase1(n);
  receiver.recv_phase1(pool.choices);
  sender.send_phase2(pool.sender_pairs);
  pool.received = receiver.recv_phase2();
  return pool;
}

void PrecomputedOtSender::send_phase1(std::size_t n) {
  if (used_ + n > pairs_.size())
    throw std::runtime_error("PrecomputedOtSender: pool exhausted");
  n_ = n;
}

void PrecomputedOtSender::send_phase2(
    const std::vector<std::pair<Block, Block>>& msgs) {
  if (msgs.size() != n_)
    throw std::invalid_argument("PrecomputedOtSender: count mismatch");
  const std::vector<bool> d = ch_.recv_bits(n_, "derandomization bit");
  for (std::size_t i = 0; i < n_; ++i) {
    const auto& [r0, r1] = pairs_[used_ + i];
    const Block& rd = d[i] ? r1 : r0;
    const Block& rd1 = d[i] ? r0 : r1;
    ch_.send_block(msgs[i].first ^ rd);
    ch_.send_block(msgs[i].second ^ rd1);
  }
  used_ += n_;
}

void PrecomputedOtReceiver::recv_phase1(
    const std::vector<bool>& online_choices) {
  if (used_ + online_choices.size() > choices_.size())
    throw std::runtime_error("PrecomputedOtReceiver: pool exhausted");
  online_ = online_choices;
  batch_start_ = used_;
  std::vector<bool> d(online_choices.size());
  for (std::size_t i = 0; i < d.size(); ++i)
    d[i] = online_choices[i] != choices_[used_ + i];
  ch_.send_bits(d);
  used_ += online_choices.size();
}

std::vector<Block> PrecomputedOtReceiver::recv_phase2() {
  std::vector<Block> out(online_.size());
  for (std::size_t i = 0; i < online_.size(); ++i) {
    const Block f0 = ch_.recv_block();
    const Block f1 = ch_.recv_block();
    out[i] = (online_[i] ? f1 : f0) ^ received_[batch_start_ + i];
  }
  return out;
}

}  // namespace maxel::ot
