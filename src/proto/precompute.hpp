// Precomputed garbling (Sec. 3): "the garbling operation does not
// require any input from any party... MAXelerator keeps generating the
// garbled tables independently and sends them to the host CPU along with
// the generated labels. The host ... when requested by the client simply
// performs the [evaluation] with one of the stored garbled circuits."
//
// svc::SessionSpool is that host-side store: sessions of pre-garbled
// rounds (tables, input label pairs, decode maps) produced offline;
// serving a client consumes one session and only performs label
// selection + OT + transfer online. Each session uses fresh labels —
// reuse would break security, so a served session is destroyed.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include <memory>

#include "ot/base_ot.hpp"
#include "ot/iknp.hpp"
#include "proto/channel.hpp"

namespace maxel::proto {

// One pre-garbled protocol session: everything the host needs to serve
// `rounds` sequential evaluations of the circuit. A round is exactly
// the gc::RoundMaterial the garbler emits — the same record the
// streaming pipeline moves one chunk at a time instead of all at once.
struct PrecomputedSession {
  using Round = gc::RoundMaterial;
  std::vector<Round> rounds;
  std::vector<crypto::Block> initial_state_labels;
  crypto::Block delta;
  gc::Scheme scheme = gc::Scheme::kHalfGates;
};

// Garbles one complete session. Callers with their own parallelism —
// e.g. one GC core per session on a core::GcCorePool — produce sessions
// off-thread and deposit them in the spool.
PrecomputedSession garble_session(const circuit::Circuit& c, gc::Scheme scheme,
                                  std::size_t rounds,
                                  crypto::RandomSource& rng);

// Serves one stored session to an evaluator over a channel, performing
// only online work: table/label transfer and OT. The counterpart is the
// ordinary EvaluatorParty (the client cannot tell precomputed garbling
// from on-demand garbling — same message flow).
enum class PrecomputedOtMode { kBase, kIknp };

class PrecomputedGarblerParty {
 public:
  // Default: fresh base OT online.
  PrecomputedGarblerParty(PrecomputedSession session, Channel& ch,
                          crypto::RandomSource& rng);
  // Explicit online OT choice: base OT or IKNP extension (the latter
  // needs the setup steps below run against the peer's receiver).
  PrecomputedGarblerParty(PrecomputedSession session, Channel& ch,
                          crypto::RandomSource& rng, PrecomputedOtMode ot);
  // Fully-offline variant: an external OT sender (e.g. a
  // ot::PrecomputedOtSender over a Beaver pool) serves the labels, so the
  // online phase is transfer + XOR only.
  PrecomputedGarblerParty(PrecomputedSession session, Channel& ch,
                          ot::OtSender& external_ot);

  // IKNP setup steps owned by this side; no-ops under base/external OT.
  void setup_step2();
  void setup_step4();

  void garble_and_send(const std::vector<bool>& garbler_bits);
  void finish_ot();

 private:
  PrecomputedSession session_;
  Channel& ch_;
  std::unique_ptr<ot::BaseOtSender> owned_ot_;
  std::unique_ptr<ot::IknpSender> iknp_;
  ot::OtSender* ot_ = nullptr;
  std::size_t sent_rounds_ = 0;
  std::size_t ot_rounds_ = 0;
};

}  // namespace maxel::proto
