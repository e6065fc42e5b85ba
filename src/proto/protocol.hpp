// End-to-end two-party secure computation (Fig. 1's host-side protocol):
// the cloud server garbles (here: software garbler or the MAXelerator
// simulator upstream), ships tables + its input labels, serves the
// client's input labels through OT, and the client evaluates.
//
// Parties expose explicit phase methods so a driver (in-process here, a
// network loop in deployment) controls interleaving; TwoPartyProtocol is
// the batteries-included in-process driver used by examples and benches.
// Each round crosses the channel as one v2 round record (round_io.hpp),
// followed by the OT of the evaluator's input labels.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "ot/base_ot.hpp"
#include "ot/iknp.hpp"
#include "proto/channel.hpp"
#include "proto/precompute.hpp"
#include "proto/round_io.hpp"

namespace maxel::proto {

// The online OT of the evaluator's input labels. The values are the
// ClientHello `ot` byte on the wire.
enum class OtMode : std::uint8_t { kBase = 0, kIknp = 1 };

struct ProtocolOptions {
  gc::Scheme scheme = gc::Scheme::kHalfGates;
  OtMode ot = OtMode::kIknp;
};

// The rounds a GarblerParty serves: a stored PrecomputedSession
// (precomputed garbling, Sec. 3) or a live CircuitGarbler that garbles
// each round when it is served and keeps only that round in memory.
// Both hand out gc::RoundMaterial from garble_round_material(), so a
// stored garble_session and a live garbler fed the same RNG serve the
// same bytes.
class RoundSource {
 public:
  explicit RoundSource(PrecomputedSession stored);
  RoundSource(const circuit::Circuit& c, gc::Scheme scheme,
              crypto::RandomSource& rng);

  // Material of the next round, valid until the following call. Throws
  // std::runtime_error once a stored session is exhausted.
  gc::RoundMaterial& next();

  [[nodiscard]] std::size_t served() const { return served_; }
  [[nodiscard]] gc::Scheme scheme() const { return session_.scheme; }
  [[nodiscard]] const crypto::Block& delta() const { return session_.delta; }
  // Active round-0 DFF state labels; set once round 0 is served.
  [[nodiscard]] const std::vector<crypto::Block>& initial_state_labels()
      const {
    return session_.initial_state_labels;
  }

 private:
  std::unique_ptr<gc::CircuitGarbler> live_;  // null: a stored session
  PrecomputedSession session_;  // stored: every round; live: the current one
  std::size_t served_ = 0;
};

class GarblerParty {
 public:
  // Runs its own OT sender: base OT per round, or IKNP extension (the
  // latter needs the setup steps below run against the peer's receiver).
  GarblerParty(RoundSource rounds, Channel& ch, crypto::RandomSource& rng,
               OtMode ot);
  // An external OT sender serves the labels — e.g. a
  // ot::PrecomputedOtSender over a Beaver pool, which leaves a stored
  // session's online phase transfer + XOR only.
  GarblerParty(RoundSource rounds, Channel& ch, ot::OtSender& external_ot);

  // IKNP setup steps owned by this side (no-ops otherwise).
  void setup_step2();
  void setup_step4();

  // Round phase 1: send the next round's record (tables, active garbler
  // labels, fixed labels, round-0 state labels, decode map) and
  // announce the OT batch.
  void garble_and_send(const std::vector<bool>& garbler_bits);
  // Round phase 3: complete the OT with the evaluator-input label pairs.
  void finish_ot();

  [[nodiscard]] std::uint64_t rounds() const { return rounds_.served(); }

 private:
  RoundSource rounds_;
  Channel& ch_;
  std::unique_ptr<ot::BaseOtSender> base_ot_;
  std::unique_ptr<ot::IknpSender> iknp_;
  ot::OtSender* ot_ = nullptr;
  const gc::RoundMaterial* ot_round_ = nullptr;  // sent, OT not finished
};

class EvaluatorParty {
 public:
  EvaluatorParty(const circuit::Circuit& c, const ProtocolOptions& opt,
                 Channel& ch, crypto::RandomSource& rng);
  // Variant with an externally managed OT receiver (e.g. a
  // ot::PrecomputedOtReceiver over a Beaver pool).
  EvaluatorParty(const circuit::Circuit& c, gc::Scheme scheme, Channel& ch,
                 ot::OtReceiver& external_ot);

  void setup_step1();
  void setup_step3();

  // Round phase 2: receive round material, start OT with choice bits.
  void receive_and_choose(const std::vector<bool>& evaluator_bits);
  // Round phase 4: obtain labels, evaluate; returns decoded outputs.
  std::vector<bool> evaluate_round();

  [[nodiscard]] std::uint64_t rounds() const {
    return evaluator_.rounds_evaluated();
  }

 private:
  const circuit::Circuit& circ_;
  ProtocolOptions opt_;
  Channel& ch_;
  gc::CircuitEvaluator evaluator_;
  std::unique_ptr<ot::BaseOtReceiver> base_ot_;
  std::unique_ptr<ot::IknpReceiver> iknp_;
  ot::OtReceiver* ot_ = nullptr;

  WireRound round_;  // the received round, evaluated in phase 4
  bool state_initialized_ = false;
};

struct ProtocolResult {
  std::vector<bool> outputs;          // decoded outputs of the final round
  std::uint64_t rounds = 0;
  std::uint64_t garbler_bytes_sent = 0;    // tables, labels, OT messages
  std::uint64_t evaluator_bytes_sent = 0;  // OT responses
  std::uint64_t table_bytes = 0;           // garbled tables alone
  std::uint64_t ands_garbled = 0;
};

// In-process driver: runs setup plus one protocol round per entry of
// `rounds` and returns the decoded final outputs with traffic accounting.
class TwoPartyProtocol {
 public:
  explicit TwoPartyProtocol(const circuit::Circuit& c,
                            const ProtocolOptions& opt = {});

  ProtocolResult run(const std::vector<circuit::RoundInputs>& rounds);

 private:
  const circuit::Circuit& circ_;
  ProtocolOptions opt_;
};

}  // namespace maxel::proto
