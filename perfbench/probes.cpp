// Per-layer probes: each row times one public call of one layer, on the
// shape the workloads use (the b=16 MAC of conv_pool, v3_pool and the
// serve probe; the 32-round v3 session), over several repetitions. A row
// reports its median, its spread (IQR over median) and its ratio to the
// layer beneath, which shows how much of that layer's capacity becomes
// useful work.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/builder.hpp"
#include "circuit/circuits.hpp"
#include "core/maxelerator.hpp"
#include "crypto/aes.hpp"
#include "crypto/gc_hash.hpp"
#include "crypto/prg.hpp"
#include "gc/garble.hpp"
#include "gc/v3.hpp"
#include "net/demo_inputs.hpp"
#include "net/tcp_channel.hpp"
#include "ot/iknp.hpp"
#include "proto/channel.hpp"
#include "proto/v3_session.hpp"
#include "svc/session_spool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace maxel;
using crypto::Block;
namespace fs = std::filesystem;

constexpr std::size_t kBits = 16;
constexpr std::size_t kSessionRounds = 32;  // v3_pool's session length
constexpr int kReps = 7;
constexpr double kRepSeconds = 0.05;

// Keeps a computed value alive so the timed work is not optimized away.
volatile std::uint64_t g_sink = 0;
void keep(const Block& b) { g_sink = g_sink + b.lo; }
void keep(std::uint64_t v) { g_sink = g_sink + v; }

// ns per call of work(n) / n over kReps repetitions, n sized so one
// repetition takes about kRepSeconds.
template <typename F>
std::vector<double> sample_ns(F&& work) {
  std::size_t n = 1;
  for (;;) {
    const auto t0 = Clock::now();
    work(n);
    const double t = seconds_since(t0);
    if (t >= 0.01) {
      const double scaled_n = static_cast<double>(n) * kRepSeconds / t;
      n = std::max<std::size_t>(1, static_cast<std::size_t>(scaled_n));
      break;
    }
    n *= 4;
  }
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    work(n);
    v.push_back(seconds_since(t0) * 1e9 / static_cast<double>(n));
  }
  return v;
}

std::vector<double> scaled(std::vector<double> v, double k) {
  for (double& x : v) x *= k;
  return v;
}

class Rows {
 public:
  explicit Rows(RunOutput& out) : out_(out) {}
  // Records a row's median as the metric and a note line with its
  // spread and ratio (ratio <= 0 prints no ratio).
  double add(const char* name, const std::vector<double>& samples,
             const char* unit, double ratio = 0, const char* base = "") {
    const double m = median(samples);
    out_.per_layer.set(name, m);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%-28s %12.4f %-6s spread %5.1f%%", name,
                  m, unit, iqr_frac(samples) * 100);
    std::string line = buf;
    if (ratio > 0) {
      std::snprintf(buf, sizeof(buf), "  %.2fx %s", ratio, base);
      line += buf;
    }
    out_.notes.push_back(line);
    return m;
  }

 private:
  RunOutput& out_;
};

circuit::Circuit served_mac() {
  // The circuit the brokers serve (evloop::EvBroker's construction).
  return circuit::make_mac_circuit(circuit::MacOptions{kBits, kBits, true});
}

}  // namespace

void run_probes(const Args& args, Tracer& tracer, RunOutput& out) {
  Rows rows(out);
  const ScopedSpan root(tracer, "probes");
  auto span = [&](const char* name) {
    return std::make_unique<ScopedSpan>(tracer, name, root.id());
  };

  // crypto: the AES-NI kernel at 8 blocks in flight, then the fixed-key
  // hash at one half-gates table's width (4) and a cross-gate width (16).
  const crypto::Aes128 aes;
  double aes_ns = 0;
  {
    auto s = span("probe.crypto.aes");
    Block buf[8];
    for (std::size_t i = 0; i < 8; ++i) buf[i] = Block{i, args.seed};
    const auto v = sample_ns([&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) aes.encrypt_batch(buf, buf, 8);
      keep(buf[0]);
    });
    aes_ns = rows.add("crypto.aes_ns_per_block", scaled(v, 1.0 / 8), "ns");
  }
  for (const std::size_t w : {std::size_t{4}, std::size_t{16}}) {
    auto s = span(w == 4 ? "probe.crypto.hash_w4" : "probe.crypto.hash_w16");
    const crypto::GcHash h;
    Block x[16], t[16];
    for (std::size_t i = 0; i < w; ++i) {
      x[i] = Block{args.seed, i};
      t[i] = Block{2 * i, 0};
    }
    const auto v = sample_ns([&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) h.hash_batch(x, t, x, w);
      keep(x[0]);
    });
    const auto per = scaled(v, 1.0 / static_cast<double>(w));
    rows.add(w == 4 ? "crypto.hash_ns.w4" : "crypto.hash_ns.w16", per, "ns",
             median(per) / aes_ns, "of one AES block");
  }

  // gc: one half-gates round of the b=16 MAC, garbled and evaluated.
  const circuit::Circuit circ = served_mac();
  const auto ands = static_cast<double>(circ.and_count());
  crypto::SystemRandom rng(Block{args.seed, 0x9C});
  double garble_ns = 0;
  {
    auto s = span("probe.gc.garble_round");
    gc::CircuitGarbler g(circ, gc::Scheme::kHalfGates, rng);
    const auto v = sample_ns([&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) keep(g.garble_round().tables.size());
    });
    const auto per = scaled(v, 1.0 / ands);
    garble_ns = rows.add("gc.garble_ns_per_and", per, "ns");
    rows.add("gc.garble_aes_floor_ratio", scaled(per, 1.0 / (4 * aes_ns)),
             "x");
  }
  {
    auto s = span("probe.gc.eval_round");
    // 64 sequential rounds garbled up front on the demo input streams;
    // one unit of work evaluates all of them from the initial state.
    constexpr std::size_t kRounds = 64;
    gc::CircuitGarbler g(circ, gc::Scheme::kHalfGates, rng);
    net::DemoInputStream a(args.seed, net::kGarblerStream, kBits);
    net::DemoInputStream x(args.seed, net::kEvaluatorStream, kBits);
    std::vector<gc::RoundMaterial> mat(kRounds);
    std::vector<std::vector<Block>> g_lab(kRounds), e_lab(kRounds);
    std::uint64_t want = 0;
    const circuit::MacOptions mac{kBits, kBits, true};
    for (std::size_t r = 0; r < kRounds; ++r) {
      mat[r] = g.garble_round_material();
      const std::uint64_t av = a.next_value(), xv = x.next_value();
      want = circuit::mac_reference(want, av, xv, mac);
      const auto ab = circuit::to_bits(av, kBits);
      const auto xb = circuit::to_bits(xv, kBits);
      for (std::size_t i = 0; i < kBits; ++i) {
        g_lab[r].push_back(ab[i] ? mat[r].garbler_labels0[i] ^ g.delta()
                                 : mat[r].garbler_labels0[i]);
        e_lab[r].push_back(xb[i] ? mat[r].evaluator_pairs[i].second
                                 : mat[r].evaluator_pairs[i].first);
      }
    }
    const auto init = g.initial_state_labels();
    std::uint64_t got = 0;
    auto pass = [&] {
      gc::CircuitEvaluator ev(circ, gc::Scheme::kHalfGates);
      ev.set_initial_state_labels(init);
      std::vector<Block> outl;
      for (std::size_t r = 0; r < kRounds; ++r)
        outl = ev.eval_round(mat[r].tables, g_lab[r], e_lab[r],
                             mat[r].fixed_labels);
      got = circuit::from_bits(
          gc::decode_with_map(outl, mat[kRounds - 1].output_map));
    };
    pass();
    if (got != want) out.invariants_ok = false;
    const auto v = sample_ns([&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) pass();
    });
    const auto per = scaled(v, 1.0 / (ands * kRounds));
    rows.add("gc.eval_ns_per_and", per, "ns");
    rows.add("gc.eval_aes_floor_ratio", scaled(per, 1.0 / (2 * aes_ns)), "x");
  }

  // gc (v3 path): proto::garble_session_v3 on v3_pool's session shape.
  const gc::V3Analysis an = gc::analyze_v3(circ);
  std::vector<std::vector<bool>> g_bits(kSessionRounds);
  {
    net::DemoInputStream a(args.seed, net::kGarblerStream, kBits);
    for (auto& row : g_bits) row = a.next_bits();
  }
  const Block delta = crypto::random_delta(rng);
  proto::PrecomputedSessionV3 session;
  {
    auto s = span("probe.gc.v3_garble_session");
    const auto v = sample_ns([&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i)
        session = proto::garble_session_v3(circ, an, g_bits, delta,
                                           rng.next_block(), rng);
    });
    const auto per = scaled(v, 1e-3 / kSessionRounds);
    rows.add("gc.v3_garble_round_us", per, "us",
             median(per) * 1e3 / (garble_ns * ands), "of a gc garble round");
  }

  // core/hwsim: the cycle-level accelerator simulator on the same MAC.
  {
    auto s = span("probe.core.sim_round");
    // The simulator is single-shot: each repetition builds its sims
    // untimed (as micro_primitives does), then times their runs.
    core::MaxeleratorConfig cfg;
    cfg.bit_width = kBits;
    constexpr std::size_t kSims = 8;
    std::vector<double> per;
    double tables_per_mac = 0;
    for (int r = 0; r < kReps; ++r) {
      std::vector<std::unique_ptr<core::MaxeleratorSim>> sims;
      for (std::size_t i = 0; i < kSims; ++i)
        sims.push_back(std::make_unique<core::MaxeleratorSim>(cfg, rng));
      const auto t0 = Clock::now();
      for (auto& sim : sims) sim->run(kSessionRounds);
      per.push_back(seconds_since(t0) * 1e6 / (kSims * kSessionRounds));
      for (auto& sim : sims) {
        const double t = static_cast<double>(sim->stats().tables) /
                         static_cast<double>(sim->stats().rounds);
        if (tables_per_mac != 0 && t != tables_per_mac)
          out.invariants_ok = false;  // an exact count must not vary
        tables_per_mac = t;
      }
    }
    rows.add("core.sim_round_us", per, "us");
    rows.add("core.sim_vs_gc_garble",
             scaled(per, 1e3 / (garble_ns * ands)), "x");
    out.per_layer.set("hwsim.tables_per_mac", tables_per_mac);
  }
  out.per_layer.set("core.pool_speedup",
                    measure_pool_speedup(args, tracer, out));

  // ot: IKNP extension at the OT pool's batch size (as micro_primitives).
  {
    auto s = span("probe.ot.iknp");
    constexpr std::size_t kBatch = ot::kPoolExtendBatch;
    crypto::SystemRandom s_rng(Block{args.seed, 0x0A});
    crypto::SystemRandom r_rng(Block{args.seed, 0x0B});
    auto [s_ch, r_ch] = proto::MemoryChannel::create_pair();
    ot::IknpSender sender(*s_ch, s_rng);
    ot::IknpReceiver receiver(*r_ch, r_rng);
    ot::iknp_setup(sender, receiver);
    std::vector<std::pair<Block, Block>> msgs(kBatch);
    for (auto& [m0, m1] : msgs) {
      m0 = s_rng.next_block();
      m1 = s_rng.next_block();
    }
    crypto::Prg prg(Block{args.seed, 0x0C});
    const auto v = sample_ns([&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto out_blocks = ot::run_ot(sender, receiver, msgs,
                                           prg.bits(kBatch));
        keep(out_blocks[0]);
      }
    });
    const auto per = scaled(v, 1.0 / kBatch);
    rows.add("ot.iknp_ns_per_ot", per, "ns", median(per) / aes_ns,
             "of one AES block");
  }

  // proto: the v3 session codec, on the session garbled above.
  const auto bytes = proto::serialize_session_v3(session);
  const double mb = static_cast<double>(bytes.size()) / 1e6;
  {
    auto s = span("probe.proto.v3_codec");
    const auto ser = sample_ns([&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i)
        keep(proto::serialize_session_v3(session).size());
    });
    const auto par = sample_ns([&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i)
        keep(proto::parse_session_v3(bytes.data(), bytes.size())
                 .round_count());
    });
    auto to_mb_s = [&](std::vector<double> v) {
      for (double& x : v) x = mb / (x * 1e-9);
      return v;
    };
    rows.add("proto.v3_serialize_mb_s", to_mb_s(ser), "MB/s");
    rows.add("proto.v3_parse_mb_s", to_mb_s(par), "MB/s");
  }

  // svc: the spool's v3 lane on a scratch directory, put then take.
  {
    auto s = span("probe.svc.spool");
    const fs::path dir = fs::path(args.out_dir) / "spool-probe";
    fs::remove_all(dir);
    std::vector<double> put_ms, take_ms;
    {
      svc::SessionSpool spool(svc::SpoolConfig{dir.string(), 4, true});
      constexpr int kOps = 8;
      for (int r = 0; r < kReps; ++r) {
        auto t0 = Clock::now();
        for (int i = 0; i < kOps; ++i) spool.put_v3(session);
        put_ms.push_back(seconds_since(t0) * 1e3 / kOps);
        t0 = Clock::now();
        for (int i = 0; i < kOps; ++i) {
          const auto got = spool.take_v3(session.pool_lineage);
          if (!got || got->round_count() != kSessionRounds)
            out.invariants_ok = false;
        }
        take_ms.push_back(seconds_since(t0) * 1e3 / kOps);
      }
    }
    fs::remove_all(dir);
    rows.add("svc.spool_put_ms", put_ms, "ms");
    rows.add("svc.spool_take_ms", take_ms, "ms");
  }

  // net: TcpChannel over loopback — bulk stream bandwidth and the
  // round-trip time of one small framed message.
  {
    auto s = span("probe.net.tcp");
    constexpr std::size_t kChunk = 1u << 20;
    constexpr std::size_t kChunks = 32;
    constexpr int kPings = 2000;
    net::TcpListener lst(0, "127.0.0.1");
    std::vector<double> stream, rtt;
    std::atomic<bool> server_ok{false};
    std::thread server([&] {
      try {
        auto ch = lst.accept(10'000);
        if (!ch) return;
        std::vector<std::uint8_t> buf(kChunk);
        for (int r = 0; r < kReps; ++r) {
          for (std::size_t c = 0; c < kChunks; ++c)
            ch->recv_bytes(buf.data(), kChunk);
          ch->send_u64(r);
          ch->flush();
        }
        for (int r = 0; r < kReps; ++r) {
          for (int i = 0; i < kPings; ++i) {
            ch->send_u64(ch->recv_u64());
            ch->flush();
          }
        }
        server_ok = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "tcp probe server: %s\n", e.what());
      }
    });
    try {
      auto ch = net::TcpChannel::connect("127.0.0.1", lst.port());
      std::vector<std::uint8_t> buf(kChunk, 0x5A);
      for (int r = 0; r < kReps; ++r) {
        const auto t0 = Clock::now();
        for (std::size_t c = 0; c < kChunks; ++c)
          ch->send_bytes(buf.data(), kChunk);
        ch->flush();
        if (ch->recv_u64() != static_cast<std::uint64_t>(r))
          out.invariants_ok = false;
        stream.push_back(static_cast<double>(kChunk * kChunks) / 1e6 /
                         seconds_since(t0));
      }
      for (int r = 0; r < kReps; ++r) {
        const auto t0 = Clock::now();
        for (int i = 0; i < kPings; ++i) {
          ch->send_u64(static_cast<std::uint64_t>(i));
          ch->flush();
          if (ch->recv_u64() != static_cast<std::uint64_t>(i))
            out.invariants_ok = false;
        }
        rtt.push_back(seconds_since(t0) * 1e6 / kPings);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tcp probe client: %s\n", e.what());
      lst.close();  // unblocks a server still waiting in accept
    }
    server.join();
    if (!server_ok || rtt.size() != kReps) {
      out.invariants_ok = false;
      return;
    }
    rows.add("net.tcp_stream_mb_s", stream, "MB/s");
    rows.add("net.rtt_us", rtt, "us");
  }
}

}  // namespace perfbench
