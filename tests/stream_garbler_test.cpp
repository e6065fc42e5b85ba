// The stream-mode producer (proto::garble_chunk, what the session core
// garbles each chunk with): chunk order and coverage, end-to-end
// correctness of a chunked session against the plaintext MAC fold, and
// determinism across identically-seeded garblers. Delivery over a real
// wire — chunk framing, per-round OT, byte-at-a-time readiness — is
// covered by NetService.StreamSession* and
// EvSessionShuttleTest.StreamByteAtATime.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/circuits.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "gc/garble.hpp"
#include "proto/chunk_io.hpp"

namespace maxel::gc {
namespace {

using circuit::MacOptions;
using crypto::Block;
using Pairs = std::vector<std::vector<std::pair<Block, Block>>>;

// Garbles `rounds` rounds in chunks of `chunk_rounds`, garbler inputs
// all zero, and returns the chunks with their kept-back label pairs.
std::vector<std::pair<proto::WireChunk, Pairs>> garble_chunks(
    CircuitGarbler& g, std::size_t n_garbler_inputs, std::size_t rounds,
    std::size_t chunk_rounds) {
  std::vector<std::pair<proto::WireChunk, Pairs>> out;
  for (std::size_t first = 0; first < rounds; first += chunk_rounds) {
    const std::vector<std::vector<bool>> a_bits(
        std::min(chunk_rounds, rounds - first),
        std::vector<bool>(n_garbler_inputs, false));
    Pairs pairs;
    proto::WireChunk wc = proto::garble_chunk(g, a_bits, pairs);
    out.emplace_back(std::move(wc), std::move(pairs));
  }
  return out;
}

TEST(StreamGarbler, ChunksArriveInOrderAndCoverEveryRound) {
  const circuit::Circuit c = circuit::make_mac_circuit(MacOptions{8, 8, true});
  const std::size_t rounds = 10;  // 4 + 4 + 2: exercises the short tail
  crypto::SystemRandom rng(Block{1, 2});
  CircuitGarbler g(c, Scheme::kHalfGates, rng, LabelLayout::kPlanned);

  std::size_t next_round = 0;
  const auto chunks = garble_chunks(g, c.garbler_inputs.size(), rounds, 4);
  for (const auto& [wc, pairs] : chunks) {
    EXPECT_EQ(wc.first_round, next_round);
    EXPECT_EQ(wc.scheme, Scheme::kHalfGates);
    EXPECT_LE(wc.rounds.size(), 4u);
    EXPECT_EQ(pairs.size(), wc.rounds.size());
    // Round-0 DFF state labels ride on chunk 0 and only chunk 0.
    EXPECT_EQ(wc.initial_state_labels.empty(), next_round != 0);
    next_round += wc.rounds.size();
  }
  EXPECT_EQ(next_round, rounds);
  EXPECT_EQ(chunks.size(), 3u);
  EXPECT_EQ(g.rounds_garbled(), rounds);
}

// Full-session correctness: every chunked round evaluates and decodes to
// the plaintext MAC fold, with DFF state labels carried across chunk
// boundaries exactly as they are across round boundaries.
TEST(StreamGarbler, ChunkedSessionEvaluatesToReferenceMac) {
  const MacOptions mac{8, 8, true};
  const circuit::Circuit c = circuit::make_mac_circuit(mac);
  const std::size_t rounds = 11, chunk_rounds = 3;
  crypto::SystemRandom rng(Block{7, 9});
  CircuitGarbler g(c, Scheme::kHalfGates, rng, LabelLayout::kPlanned);
  CircuitEvaluator ev(c, Scheme::kHalfGates);

  crypto::Prg prg(Block{5, 5});
  std::uint64_t expect = 0, decoded = 0;
  std::size_t done = 0;
  for (std::size_t first = 0; first < rounds; first += chunk_rounds) {
    std::vector<std::vector<bool>> a_bits, x_bits;
    for (std::size_t r = first; r < std::min(first + chunk_rounds, rounds);
         ++r) {
      const std::uint64_t a = prg.next_u64() & 0xFF;
      const std::uint64_t x = prg.next_u64() & 0xFF;
      expect = circuit::mac_reference(expect, a, x, mac);
      a_bits.push_back(circuit::to_bits(a, 8));
      x_bits.push_back(circuit::to_bits(x, 8));
    }
    Pairs pairs;
    const proto::WireChunk wc = proto::garble_chunk(g, a_bits, pairs);
    if (wc.first_round == 0)
      ev.set_initial_state_labels(wc.initial_state_labels);
    for (std::size_t i = 0; i < wc.rounds.size(); ++i) {
      // Evaluator side: what OT would deliver for choice bits x.
      std::vector<Block> e_labels;
      for (std::size_t j = 0; j < pairs[i].size(); ++j)
        e_labels.push_back(x_bits[i][j] ? pairs[i][j].second
                                        : pairs[i][j].first);
      const auto out = ev.eval_round(wc.rounds[i].tables,
                                     wc.rounds[i].garbler_labels, e_labels,
                                     wc.rounds[i].fixed_labels);
      decoded =
          circuit::from_bits(decode_with_map(out, wc.rounds[i].output_map));
      ++done;
    }
  }
  EXPECT_EQ(done, rounds);
  EXPECT_EQ(decoded, expect);
}

// Two identically-seeded garblers emit bit-identical chunks — the
// reason a resumed or retried stream session cannot silently diverge
// from what the seed determines.
TEST(StreamGarbler, IdenticalSeedsProduceIdenticalChunks) {
  const circuit::Circuit c = circuit::make_millionaires_circuit(8);
  const std::size_t rounds = 6;
  crypto::SystemRandom rng_a(Block{42, 43}), rng_b(Block{42, 43});
  CircuitGarbler a(c, Scheme::kGrr3, rng_a, LabelLayout::kPlanned);
  CircuitGarbler b(c, Scheme::kGrr3, rng_b, LabelLayout::kPlanned);
  EXPECT_EQ(a.delta(), b.delta());

  const auto ca = garble_chunks(a, c.garbler_inputs.size(), rounds, 2);
  const auto cb = garble_chunks(b, c.garbler_inputs.size(), rounds, 2);
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t k = 0; k < ca.size(); ++k) {
    EXPECT_EQ(proto::serialize_chunk(ca[k].first),
              proto::serialize_chunk(cb[k].first));
    EXPECT_EQ(ca[k].second, cb[k].second);
  }
}

}  // namespace
}  // namespace maxel::gc
