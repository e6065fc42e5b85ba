// case_conv_layer — a real private conv layer end to end, two ways:
//
//   phase 1 (pool)    the layer as im2col + batched K-round MACs on the
//                     GcCorePool (ml::conv_layer_on_pool), decoded and
//                     differentially verified against a DIRECT
//                     nested-loop convolution that never forms the
//                     im2col matrix;
//   phase 2 (broker)  the same layer shape served as reusable-mode
//                     sessions through a live EvBroker over loopback
//                     TCP — one session per output element, patch()
//                     MAC rounds per session, driven by the evloop
//                     loadgen. This is the serving-path cost of the
//                     layer: handshake + artifact + OT + rounds.
//
// A warm small batch on the pool yields the per-MAC extrapolation the
// CI gate (tools/bench_compare.py) holds the broker path against: the
// broker's MACs/s must stay within tolerance of the extrapolated
// garbling rate — serving overhead may tax the layer, but not collapse
// it. Privacy split: server/garbler holds the filter weights (the
// model), client/evaluator holds the activations (the query); see
// docs/SECURITY_MODELS.md.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "crypto/prg.hpp"
#include "evloop/ev_broker.hpp"
#include "evloop/loadgen.hpp"
#include "ml/conv_layer.hpp"

namespace {

using namespace maxel;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBits = 16;
// The served layer: RGB-shaped 12x12 input, eight 3x3 filters.
constexpr ml::ConvLayerShape kLayer{3, 12, 12, 8, 3, 3, 1};
// Warm-up / extrapolation batch: small, same kernel shape.
constexpr ml::ConvLayerShape kWarm{3, 6, 6, 2, 3, 3, 1};

ml::Tensor random_tensor(crypto::Prg& prg, std::size_t n) {
  ml::Tensor t(n);
  for (auto& v : t) v = prg.next_u64() & 0xFFFFu;
  return t;
}

struct PoolRun {
  ml::ConvLayerResult res;
  double wall_seconds = 0.0;
  [[nodiscard]] double macs_per_sec(const ml::ConvLayerShape& s) const {
    return static_cast<double>(s.total_macs()) / wall_seconds;
  }
};

PoolRun run_pool(const ml::ConvLayerShape& s, core::GcCorePool& pool,
                 crypto::Prg& prg) {
  std::vector<ml::Tensor> w(s.out_c);
  for (auto& f : w) f = random_tensor(prg, s.patch());
  const ml::Tensor in = random_tensor(prg, s.in_c * s.in_h * s.in_w);
  PoolRun out;
  const auto t0 = Clock::now();
  out.res = ml::conv_layer_on_pool(s, w, in, kBits, pool);
  out.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

struct BrokerRun {
  evloop::LoadgenResult res;
  std::uint64_t served = 0;
  bool claims_clean = false;
};

// The layer shape as serving load: one reusable session per output
// element, patch() MAC rounds per session.
BrokerRun run_broker(const ml::ConvLayerShape& s) {
  const fs::path spool_dir =
      fs::temp_directory_path() / "maxel_bench_conv_spool";
  fs::remove_all(spool_dir);
  evloop::EvBrokerConfig cfg;
  cfg.bind_addr = "127.0.0.1";
  cfg.port = 0;
  cfg.bits = kBits;
  cfg.rounds_per_session = s.patch();
  cfg.spool_dir = spool_dir.string();
  cfg.shards = 2;
  cfg.spool_low_watermark = 0;  // reusable sessions never touch the
  cfg.spool_high_watermark = 0;  // precomputed spool
  cfg.ram_cache_sessions = 0;
  cfg.verbose = false;
  evloop::EvBroker broker(cfg);
  std::thread run([&] { broker.run(); });

  evloop::LoadgenConfig lcfg;
  lcfg.port = broker.port();
  lcfg.total_sessions = s.out_c * s.positions();  // one per output element
  lcfg.window = 64;
  lcfg.clients = 8;

  BrokerRun out;
  evloop::ReusableLoadgen lg(broker.v3_registry(), *broker.reusable_context(),
                             broker.expectation());
  out.res = lg.run(lcfg);
  broker.request_stop();
  run.join();
  out.served = broker.stats().server.reusable_sessions_served;
  out.claims_clean = broker.v3_outstanding_claims() == 0;
  fs::remove_all(spool_dir);
  return out;
}

}  // namespace

int main() {
  using namespace maxel::bench;

  header("Case study: private conv layer (im2col -> batched GC MACs)");
  std::printf(
      "layer: %zux%zux%zu input, %zu filters %zux%zu stride %zu -> "
      "%zux%zux%zu out; K=%zu rounds/element, %zu elements, %zu MACs, "
      "b=%zu\n\n",
      kLayer.in_c, kLayer.in_h, kLayer.in_w, kLayer.out_c, kLayer.k_h,
      kLayer.k_w, kLayer.stride, kLayer.out_c, kLayer.out_h(), kLayer.out_w(),
      kLayer.patch(), kLayer.out_c * kLayer.positions(), kLayer.total_macs(),
      kBits);

  JsonReporter rep("case_conv_layer");
  crypto::Prg prg(crypto::Block{0xC0, 0x17});
  core::GcCorePool pool(4, crypto::Block{0xC0, 0x18});

  // Warm small batch -> the per-MAC extrapolation baseline.
  const PoolRun warm = run_pool(kWarm, pool, prg);
  const double extrapolated = warm.macs_per_sec(kWarm);
  std::printf("warm batch: %zu MACs in %.3f s -> %.0f MACs/s extrapolated, "
              "%s\n",
              kWarm.total_macs(), warm.wall_seconds, extrapolated,
              warm.res.verified ? "verified" : "FAILED");
  rep.row()
      .str("point", "per_mac_extrapolation")
      .num("warm_macs", static_cast<std::uint64_t>(kWarm.total_macs()))
      .num("macs_per_sec", extrapolated)
      .boolean("verified", warm.res.verified);

  // Phase 1: the full layer on the pool, verified against direct conv.
  const PoolRun layer = run_pool(kLayer, pool, prg);
  std::printf("pool layer: %.3f s, %.0f MACs/s on %zu cores, %llu tables, "
              "%s\n",
              layer.wall_seconds, layer.macs_per_sec(kLayer), layer.res.cores,
              static_cast<unsigned long long>(layer.res.tables),
              layer.res.verified ? "verified vs direct convolution"
                                 : "MISMATCH vs direct convolution");
  rep.row()
      .str("point", "layer_pool")
      .num("total_macs", static_cast<std::uint64_t>(kLayer.total_macs()))
      .num("rounds_per_element", static_cast<std::uint64_t>(kLayer.patch()))
      .num("elements",
           static_cast<std::uint64_t>(kLayer.out_c * kLayer.positions()))
      .num("bits", static_cast<std::uint64_t>(kBits))
      .num("cores", static_cast<std::uint64_t>(layer.res.cores))
      .num("tables", layer.res.tables)
      .num("wall_seconds", layer.wall_seconds)
      .num("macs_per_sec", layer.macs_per_sec(kLayer))
      .boolean("verified", layer.res.verified);

  // Phase 2: the layer shape through the broker serving path.
  const BrokerRun srv = run_broker(kLayer);
  const std::size_t elements = kLayer.out_c * kLayer.positions();
  const bool srv_ok = srv.res.ok == elements && srv.res.failed == 0 &&
                      srv.served == elements && srv.claims_clean;
  const double srv_macs_per_sec =
      srv.res.sessions_per_sec() * static_cast<double>(kLayer.patch());
  std::printf("broker layer: %zu sessions x %zu rounds in %.3f s -> "
              "%.1f sessions/s, %.0f MACs/s, p99 %.2f ms, %s\n",
              elements, kLayer.patch(), srv.res.wall_seconds,
              srv.res.sessions_per_sec(), srv_macs_per_sec, srv.res.p99_ms,
              srv_ok ? "zero failures" : "FAILED");
  rep.row()
      .str("point", "layer_broker")
      .num("sessions", static_cast<std::uint64_t>(elements))
      .num("rounds_per_session", static_cast<std::uint64_t>(kLayer.patch()))
      .num("bits", static_cast<std::uint64_t>(kBits))
      .num("wall_seconds", srv.res.wall_seconds)
      .num("sessions_per_sec", srv.res.sessions_per_sec())
      .num("macs_per_sec", srv_macs_per_sec)
      .num("p50_ms", srv.res.p50_ms)
      .num("p99_ms", srv.res.p99_ms)
      .num("failed", static_cast<std::uint64_t>(srv.res.failed))
      .boolean("verified", srv_ok);

  std::printf("\nCI gate: broker MACs/s must stay within tolerance of the "
              "per-MAC extrapolation\n(ratio %.2f measured here); both pool "
              "phases must verify against direct convolution.\n",
              srv_macs_per_sec / extrapolated);
  std::printf("wrote %s\n", rep.write().c_str());
  return (warm.res.verified && layer.res.verified && srv_ok) ? 0 : 1;
}
