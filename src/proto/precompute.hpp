// Precomputed garbling (Sec. 3): "the garbling operation does not
// require any input from any party... MAXelerator keeps generating the
// garbled tables independently and sends them to the host CPU along with
// the generated labels. The host ... when requested by the client simply
// performs the [evaluation] with one of the stored garbled circuits."
//
// svc::SessionSpool is that host-side store: sessions of pre-garbled
// rounds (tables, input label pairs, decode maps) produced offline;
// serving a client consumes one session and only performs label
// selection + OT + transfer online — proto::GarblerParty serves it
// through a stored RoundSource, with the same message flow as a live
// garbler, so the client cannot tell the two apart. Each session uses
// fresh labels — reuse would break security, so a served session is
// destroyed.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"

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

}  // namespace maxel::proto
