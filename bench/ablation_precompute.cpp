// Ablation A4: precomputed garbling (Sec. 3's deployment model) vs
// on-demand garbling — the online-phase latency a client observes when
// the host serves stored MAXelerator output instead of garbling live.
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "circuit/circuits.hpp"
#include "crypto/prg.hpp"
#include "crypto/rng.hpp"
#include "ot/precomputed_ot.hpp"
#include "proto/precompute.hpp"
#include "proto/protocol.hpp"
#include "proto/session_io.hpp"

int main() {
  using namespace maxel;
  using namespace maxel::bench;
  using Clock = std::chrono::steady_clock;
  using crypto::Block;

  const circuit::MacOptions mac{32, 32, true};
  const circuit::Circuit c = circuit::make_mac_circuit(mac);
  const std::size_t rounds = 16;
  const std::size_t trials = 8;

  crypto::Prg prg(Block{77, 1});
  std::vector<std::vector<bool>> a_bits(rounds), x_bits(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    a_bits[r] = circuit::to_bits(prg.next_u64(), 32);
    x_bits[r] = circuit::to_bits(prg.next_u64(), 32);
  }

  header("Ablation: precomputed vs on-demand garbling (32-bit MAC, 16 rounds)");

  // --- On-demand: the garbler garbles during the client session. -------
  double on_demand_s = 0.0;
  std::uint64_t result_od = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    auto [g_ch, e_ch] = proto::MemoryChannel::create_pair();
    crypto::SystemRandom g_rng;
    crypto::SystemRandom e_rng;
    proto::ProtocolOptions opt;
    opt.ot = proto::OtMode::kBase;
    proto::GarblerParty garbler(proto::RoundSource(c, opt.scheme, g_rng),
                                *g_ch, g_rng, opt.ot);
    proto::EvaluatorParty evaluator(c, opt, *e_ch, e_rng);
    const auto t0 = Clock::now();
    std::vector<bool> out;
    for (std::size_t r = 0; r < rounds; ++r) {
      garbler.garble_and_send(a_bits[r]);
      evaluator.receive_and_choose(x_bits[r]);
      garbler.finish_ot();
      out = evaluator.evaluate_round();
    }
    on_demand_s += std::chrono::duration<double>(Clock::now() - t0).count();
    result_od = circuit::from_bits(out);
  }

  // --- Precomputed: sessions garbled offline, only serving is timed. ----
  // The store holds 2 x trials sessions: one set per precomputed run.
  crypto::SystemRandom store_rng;
  std::vector<proto::PrecomputedSession> store;
  const auto off0 = Clock::now();
  for (std::size_t t = 0; t < trials; ++t)
    store.push_back(
        proto::garble_session(c, gc::Scheme::kHalfGates, rounds, store_rng));
  const double offline_s =
      std::chrono::duration<double>(Clock::now() - off0).count();
  const double stored_kb =
      static_cast<double>(proto::serialize_session(store.front()).size()) /
      1024.0;
  for (std::size_t t = 0; t < trials; ++t)
    store.push_back(
        proto::garble_session(c, gc::Scheme::kHalfGates, rounds, store_rng));

  double online_s = 0.0;
  std::uint64_t result_pc = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    auto [g_ch, e_ch] = proto::MemoryChannel::create_pair();
    crypto::SystemRandom g_rng;
    crypto::SystemRandom e_rng;
    proto::GarblerParty garbler(proto::RoundSource(std::move(store[t])),
                                *g_ch, g_rng, proto::OtMode::kBase);
    proto::ProtocolOptions opt;
    opt.ot = proto::OtMode::kBase;
    proto::EvaluatorParty evaluator(c, opt, *e_ch, e_rng);
    const auto t0 = Clock::now();
    std::vector<bool> out;
    for (std::size_t r = 0; r < rounds; ++r) {
      garbler.garble_and_send(a_bits[r]);
      evaluator.receive_and_choose(x_bits[r]);
      garbler.finish_ot();
      out = evaluator.evaluate_round();
    }
    online_s += std::chrono::duration<double>(Clock::now() - t0).count();
    result_pc = circuit::from_bits(out);
  }

  // --- Fully offline: precomputed tables + precomputed (Beaver) OT. -----
  double online2_s = 0.0;
  std::uint64_t result_full = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    // Offline: OT pool via base OT (would run alongside table precompute).
    auto [po_s, po_r] = proto::MemoryChannel::create_pair();
    crypto::SystemRandom s_rng;
    crypto::SystemRandom e_rng;
    ot::BaseOtSender pool_s(*po_s, s_rng);
    ot::BaseOtReceiver pool_r(*po_r, e_rng);
    const ot::OtPool pool = ot::precompute_ot_pool(
        pool_s, pool_r, rounds * 32, s_rng, e_rng);

    auto [g_ch, e_ch] = proto::MemoryChannel::create_pair();
    ot::PrecomputedOtSender ot_s(*g_ch, pool.sender_pairs);
    ot::PrecomputedOtReceiver ot_r(*e_ch, pool.choices, pool.received);
    proto::GarblerParty garbler(
        proto::RoundSource(std::move(store[trials + t])), *g_ch, ot_s);
    proto::EvaluatorParty evaluator(c, gc::Scheme::kHalfGates, *e_ch, ot_r);
    const auto t0 = Clock::now();
    std::vector<bool> out;
    for (std::size_t r = 0; r < rounds; ++r) {
      garbler.garble_and_send(a_bits[r]);
      evaluator.receive_and_choose(x_bits[r]);
      garbler.finish_ot();
      out = evaluator.evaluate_round();
    }
    online2_s += std::chrono::duration<double>(Clock::now() - t0).count();
    result_full = circuit::from_bits(out);
  }

  std::printf("results agree: %s (0x%08llx)\n",
              result_od == result_pc && result_pc == result_full ? "yes"
                                                                 : "NO",
              static_cast<unsigned long long>(result_pc));
  std::printf("%-48s %12s\n", "", "ms/session");
  rule(64);
  std::printf("%-48s %12.3f\n", "on-demand (garble + base OT online)",
              1e3 * on_demand_s / static_cast<double>(trials));
  std::printf("%-48s %12.3f\n", "precomputed tables (base OT online)",
              1e3 * online_s / static_cast<double>(trials));
  std::printf("%-48s %12.3f\n", "precomputed tables + Beaver OT (all offline)",
              1e3 * online2_s / static_cast<double>(trials));
  std::printf("%-48s %12.3f\n", "table precompute cost (offline, amortized)",
              1e3 * offline_s / static_cast<double>(trials));
  std::printf("\nonline speedups: %.2fx (tables only), %.2fx (tables + OT); "
              "stored session %.1f KB (spool file size)\n",
              on_demand_s / online_s, on_demand_s / online2_s, stored_kb);
  std::printf(
      "This is the paper's Fig. 1 pipeline: MAXelerator fills the store "
      "offline; the host serves clients at transfer+OT cost only.\n");
  return result_od == result_pc ? 0 : 1;
}
