#include "proto/precompute.hpp"

namespace maxel::proto {

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

}  // namespace maxel::proto
