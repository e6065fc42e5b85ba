#include "workloads.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuit/builder.hpp"
#include "core/maxelerator.hpp"
#include "crypto/prg.hpp"
#include "evloop/ev_broker.hpp"
#include "gc/v3.hpp"
#include "ml/conv_layer.hpp"
#include "net/client.hpp"
#include "net/demo_inputs.hpp"
#include "proto/v3_session.hpp"

namespace perfbench {
namespace {

using namespace maxel;
namespace fs = std::filesystem;

constexpr std::size_t kSetupRepeats = 5;  // setup_s is their median

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::string fmt(const char* f, double a, double b = 0, double c = 0,
                double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, a, b, c, d);
  return buf;
}

// Traced runs alternate tracing off and on across repetitions (conv
// layers, v3 batches) in the order off,on,on,off,..., so
// slow drift over the run weighs on both sides alike; the rate difference
// is the tracing overhead.
bool window_traced(std::size_t i) { return i % 4 == 1 || i % 4 == 2; }

// Simulated accelerator cycles per MAC for one `rounds`-round session of
// a b-bit MAC: an exact count of the simulator's schedule, independent of
// the rng seed. v3_pool reports it as the reference count of the circuit
// it serves; v3_pool itself does not run the simulator.
double sim_cycles_per_mac(std::size_t bits, std::size_t rounds,
                          std::uint64_t seed) {
  core::MaxeleratorConfig cfg;
  cfg.bit_width = bits;
  crypto::SystemRandom rng(crypto::Block{seed, 0x51});
  core::MaxeleratorSim sim(cfg, rng);
  sim.run(rounds);
  return static_cast<double>(sim.stats().total_cycles) /
         static_cast<double>(rounds);
}

// --- conv_pool --------------------------------------------------------------

// The case_conv_layer layer: RGB-shaped 12x12 input, eight 3x3 filters,
// b=16 — 800 output elements x 27 MAC rounds = 21,600 MACs.
constexpr ml::ConvLayerShape kLayer{3, 12, 12, 8, 3, 3, 1};
// Warm-up layer run during set-up: same kernel, 128 elements.
constexpr ml::ConvLayerShape kWarm{3, 6, 6, 8, 3, 3, 1};
// Mid-sized layer for core.pool_speedup: 144 elements, enough to load
// every core evenly without making the 1-core side slow.
constexpr ml::ConvLayerShape kSpeedup{3, 8, 8, 4, 3, 3, 1};
constexpr std::size_t kConvBits = 16;

struct ConvInputs {
  std::vector<ml::Tensor> weights;
  ml::Tensor input;
  std::vector<std::vector<std::uint64_t>> reference;
};

ConvInputs make_conv_inputs(const ml::ConvLayerShape& s, crypto::Prg& prg) {
  const std::uint64_t mask = (1ull << kConvBits) - 1;
  ConvInputs in;
  in.weights.resize(s.out_c);
  for (auto& f : in.weights) {
    f.resize(s.patch());
    for (auto& v : f) v = prg.next_u64() & mask;
  }
  in.input.resize(s.in_c * s.in_h * s.in_w);
  for (auto& v : in.input) v = prg.next_u64() & mask;
  in.reference = ml::conv_reference(s, in.weights, in.input, kConvBits);
  return in;
}

struct ConvCall {
  ml::ConvLayerResult res;
  double wall_s = 0;
  double cpu_s = 0;
  bool ok = false;
};

ConvCall call_conv(const ml::ConvLayerShape& s, const ConvInputs& in,
                   core::GcCorePool& pool, Tracer& tracer,
                   std::uint64_t parent) {
  ScopedSpan span(tracer, "ml.conv_layer_on_pool", parent);
  ConvCall c;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  c.res = ml::conv_layer_on_pool(s, in.weights, in.input, kConvBits, pool);
  c.wall_s = seconds_since(t0);
  c.cpu_s = process_cpu_seconds() - cpu0;
  c.ok = c.res.verified && c.res.output == in.reference;
  span.attr("macs", static_cast<double>(s.total_macs()));
  span.attr("cores", static_cast<double>(c.res.cores));
  span.attr("tables", static_cast<double>(c.res.tables));
  span.attr("sim_cycles", static_cast<double>(c.res.cycles));
  span.attr("verified", c.ok ? 1 : 0);
  return c;
}

}  // namespace

RunOutput run_conv_pool(const Args& args, Tracer& tracer) {
  RunOutput out;
  crypto::Prg prg(crypto::Block{args.seed, 0xC0});
  const ScopedSpan root(tracer, "workload.conv_pool");

  // Set-up: pool spin-up plus one verified warm-up layer, repeated.
  std::unique_ptr<core::GcCorePool> pool;
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const ConvInputs warm = make_conv_inputs(kWarm, prg);
    pool.reset();
    const auto t0 = Clock::now();
    pool = std::make_unique<core::GcCorePool>(
        nproc(), crypto::Block{args.seed, 0xC1 + i});
    const ConvCall c = call_conv(kWarm, warm, *pool, tracer, root.id());
    setups.push_back(seconds_since(t0));
    if (!c.ok) out.invariants_ok = false;
  }

  // Timed phase: the layer back to back, each repetition on fresh
  // seeded tensors and checked against the direct convolution.
  std::vector<double> lat_ms, cpu_s;
  double wall[2] = {0, 0}, macs[2] = {0, 0};
  std::uint64_t cycles0 = 0, tables0 = 0;
  const auto start = Clock::now();
  for (std::size_t rep = 0;
       seconds_since(start) < args.seconds || (args.trace && rep < 4);
       ++rep) {
    const ConvInputs in = make_conv_inputs(kLayer, prg);
    const bool traced = args.trace && window_traced(rep);
    tracer.set_enabled(traced);
    const ConvCall c = call_conv(kLayer, in, *pool, tracer, root.id());
    tracer.set_enabled(args.trace);
    ++out.tally.attempted;
    if (rep == 0) {
      cycles0 = c.res.cycles;
      tables0 = c.res.tables;
    } else if (c.res.cycles != cycles0 || c.res.tables != tables0) {
      out.invariants_ok = false;  // simulated counts must not vary
    }
    if (!c.ok) {
      ++out.tally.wrong;
      continue;
    }
    ++out.tally.ok;
    lat_ms.push_back(c.wall_s * 1e3);
    wall[traced] += c.wall_s;
    macs[traced] += static_cast<double>(kLayer.total_macs());
    cpu_s.push_back(c.cpu_s);
  }
  if (out.tally.ok == 0) throw std::runtime_error("no layer verified");

  // Rates are interquartile means over repetitions, so one repetition
  // slowed by the host does not move them.
  const double n_mac = static_cast<double>(kLayer.total_macs());
  const double rep_s = iq_mean(lat_ms) * 1e-3;
  auto& e = out.end_to_end;
  e.set("macs_per_s", n_mac / rep_s);
  e.set("cpu_us_per_mac", iq_mean(cpu_s) * 1e6 / n_mac);
  e.set("sessions_per_s", 1 / rep_s);
  e.set("session_p50_ms", quantile(lat_ms, 0.5));
  e.set("bytes_per_mac", static_cast<double>(tables0) * 32.0 / n_mac);
  e.set("sim_cycles_per_mac", static_cast<double>(cycles0) / n_mac);
  e.set("setup_s", median(setups));
  e.set("peak_rss_mb", peak_rss_mb());

  auto& l = out.per_layer;
  l.set("fail_ratio",
        static_cast<double>(out.tally.failed()) /
            static_cast<double>(out.tally.attempted));
  l.set("session_p99_ms", quantile(lat_ms, 0.99));
  if (args.trace) {
    const double off = macs[0] / wall[0], on = macs[1] / wall[1];
    l.set("trace.overhead_frac", (off - on) / off);
  }

  out.notes.push_back(fmt(
      "conv_pool: %.0f repetitions x 21600 MACs, layer p50 %.1f ms; "
      "%.1f verified MACs/s; sim cycles/MAC %.4f",
      static_cast<double>(lat_ms.size()), quantile(lat_ms, 0.5),
      n_mac / rep_s, static_cast<double>(cycles0) / n_mac));
  return out;
}

double measure_pool_speedup(const Args& args, Tracer& tracer,
                            RunOutput& out) {
  crypto::Prg prg(crypto::Block{args.seed, 0xC2});
  const ConvInputs in = make_conv_inputs(kSpeedup, prg);
  core::GcCorePool one(1, crypto::Block{args.seed, 0xC3});
  core::GcCorePool all(nproc(), crypto::Block{args.seed, 0xC4});
  const ScopedSpan span(tracer, "probe.core.pool_speedup");
  std::vector<double> t1, tn;
  for (int i = 0; i < 3; ++i) {
    const ConvCall a = call_conv(kSpeedup, in, one, tracer, span.id());
    const ConvCall b = call_conv(kSpeedup, in, all, tracer, span.id());
    if (!a.ok || !b.ok) out.invariants_ok = false;
    t1.push_back(a.wall_s);
    tn.push_back(b.wall_s);
  }
  const double s = median(t1) / median(tn);
  out.notes.push_back(fmt("core.pool_speedup: %.3f s on 1 core, %.3f s on "
                          "%.0f cores -> %.2fx",
                          median(t1), median(tn),
                          static_cast<double>(nproc()), s));
  return s;
}

// --- v3_pool ----------------------------------------------------------------

namespace {

// The v3 session shape: the b=16 MAC the brokers serve, 32 rounds.
constexpr std::size_t kV3Bits = 16;
constexpr std::size_t kV3Rounds = 32;
// Sessions per batch, per core.
constexpr std::size_t kV3PerCore = 64;

struct V3Item {
  double garble_s = 0, codec_s = 0, eval_s = 0;
  std::size_t bytes = 0;
  bool ok = false;
};

// One v3 session through the producer and evaluator halves of the
// serving tower, in process: garble_session_v3, the spool/wire codec
// (serialize, parse), then evaluation of the parsed rounds with the
// evaluator's labels picked from the OT pairs, decoded and compared with
// the plaintext MAC of the session's demo inputs.
V3Item v3_session(const circuit::Circuit& c, const gc::V3Analysis& an,
                  std::uint64_t demo_seed, crypto::RandomSource& rng) {
  V3Item it;
  net::DemoInputStream a(demo_seed, net::kGarblerStream, kV3Bits);
  net::DemoInputStream x(demo_seed, net::kEvaluatorStream, kV3Bits);
  std::vector<std::vector<bool>> g_bits(kV3Rounds), e_bits(kV3Rounds);
  for (auto& r : g_bits) r = a.next_bits();
  for (auto& r : e_bits) r = x.next_bits();

  auto t0 = Clock::now();
  const proto::PrecomputedSessionV3 garbled = proto::garble_session_v3(
      c, an, g_bits, crypto::random_delta(rng), rng.next_block(), rng);
  it.garble_s = seconds_since(t0);

  t0 = Clock::now();
  const auto bytes = proto::serialize_session_v3(garbled);
  const proto::PrecomputedSessionV3 s =
      proto::parse_session_v3(bytes.data(), bytes.size());
  it.codec_s = seconds_since(t0);
  it.bytes = bytes.size();

  t0 = Clock::now();
  gc::V3Evaluator ev(c, an, s.label_seed);
  std::vector<bool> decoded;
  std::vector<crypto::Block> labels(c.evaluator_inputs.size());
  for (std::size_t r = 0; r < kV3Rounds; ++r) {
    const auto& m = s.rounds[r];
    for (std::size_t j = 0; j < labels.size(); ++j)
      labels[j] = e_bits[r][j] ? m.evaluator_pairs[j].second
                               : m.evaluator_pairs[j].first;
    decoded = gc::decode_with_map(ev.eval_round(m.rows, e_bits[r], labels),
                                  m.output_map);
  }
  it.eval_s = seconds_since(t0);
  it.ok = circuit::from_bits(decoded) ==
          net::demo_mac_reference(demo_seed, kV3Bits, kV3Rounds);
  return it;
}

struct V3Batch {
  std::vector<V3Item> items;
  double wall_s = 0;
  double cpu_s = 0;
};

V3Batch v3_batch(const circuit::Circuit& c, const gc::V3Analysis& an,
                 core::GcCorePool& pool, std::uint64_t first_seed,
                 Tracer& tracer, std::uint64_t parent) {
  V3Batch b;
  b.items.resize(pool.cores() * kV3PerCore);
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  // One task per core, each pulling sessions until the batch is done, so
  // a core the host stalls does fewer sessions instead of holding up a
  // fixed share of the batch.
  std::atomic<std::size_t> next{0};
  pool.parallel_for(pool.cores(), [&](std::size_t, std::size_t core) {
    for (std::size_t i; (i = next.fetch_add(1)) < b.items.size();) {
      ScopedSpan span(tracer, "proto.v3_session", parent);
      const V3Item& it = b.items[i] =
          v3_session(c, an, first_seed + i, pool.core_rng(core));
      span.attr("garble_s", it.garble_s);
      span.attr("codec_s", it.codec_s);
      span.attr("eval_s", it.eval_s);
      span.attr("bytes", static_cast<double>(it.bytes));
      span.attr("verified", it.ok ? 1 : 0);
    }
  });
  b.wall_s = seconds_since(t0);
  b.cpu_s = process_cpu_seconds() - cpu0;
  return b;
}

}  // namespace

RunOutput run_v3_pool(const Args& args, Tracer& tracer) {
  RunOutput out;
  const ScopedSpan root(tracer, "workload.v3_pool");
  // Per-session demo seeds: distinct across the run, fixed by --seed.
  std::uint64_t next_seed = args.seed << 32;

  // Set-up: circuit, v3 analysis, pool spin-up and one verified batch.
  std::unique_ptr<circuit::Circuit> circ;
  std::unique_ptr<gc::V3Analysis> an;
  std::unique_ptr<core::GcCorePool> pool;
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    pool.reset();
    const auto t0 = Clock::now();
    circ = std::make_unique<circuit::Circuit>(circuit::make_mac_circuit(
        circuit::MacOptions{kV3Bits, kV3Bits, true}));
    an = std::make_unique<gc::V3Analysis>(gc::analyze_v3(*circ));
    pool = std::make_unique<core::GcCorePool>(
        nproc(), crypto::Block{args.seed, 0x7A + i});
    const V3Batch b = v3_batch(*circ, *an, *pool, next_seed, tracer, root.id());
    next_seed += b.items.size();
    setups.push_back(seconds_since(t0));
    for (const auto& it : b.items)
      out.invariants_ok = out.invariants_ok && it.ok;
  }

  // Timed phase: batches back to back until the deadline.
  std::vector<double> lat_ms, batch_rate, batch_cpu, batch_p50;
  double wall[2] = {0, 0}, done[2] = {0, 0}, bytes = 0;
  const auto start = Clock::now();
  for (std::size_t k = 0;
       seconds_since(start) < args.seconds || (args.trace && k < 4); ++k) {
    const bool traced = args.trace && window_traced(k);
    tracer.set_enabled(traced);
    const V3Batch b = v3_batch(*circ, *an, *pool, next_seed, tracer, root.id());
    tracer.set_enabled(args.trace);
    next_seed += b.items.size();
    std::vector<double> batch_lat;
    for (const auto& it : b.items) {
      ++out.tally.attempted;
      if (!it.ok) {
        ++out.tally.wrong;
        continue;
      }
      ++out.tally.ok;
      batch_lat.push_back((it.garble_s + it.codec_s + it.eval_s) * 1e3);
      bytes += static_cast<double>(it.bytes);
    }
    const auto ok = static_cast<double>(batch_lat.size());
    done[traced] += ok;
    wall[traced] += b.wall_s;
    if (ok == 0) continue;
    batch_rate.push_back(ok / b.wall_s);
    batch_cpu.push_back(b.cpu_s * 1e6 / (ok * kV3Rounds));
    batch_p50.push_back(quantile(batch_lat, 0.5));
    lat_ms.insert(lat_ms.end(), batch_lat.begin(), batch_lat.end());
  }
  if (out.tally.ok == 0) throw std::runtime_error("no session verified");

  // Rates and the p50 are interquartile means over batches, so a batch
  // held up by a core the host preempted does not move them.
  const double sessions = done[0] + done[1];
  const double rounds = static_cast<double>(kV3Rounds);
  auto& e = out.end_to_end;
  e.set("macs_per_s", iq_mean(batch_rate) * rounds);
  e.set("cpu_us_per_mac", iq_mean(batch_cpu));
  e.set("sessions_per_s", iq_mean(batch_rate));
  e.set("session_p50_ms", iq_mean(batch_p50));
  e.set("bytes_per_mac", bytes / (sessions * rounds));
  e.set("sim_cycles_per_mac",
        sim_cycles_per_mac(kV3Bits, kV3Rounds, args.seed));
  e.set("setup_s", median(setups));
  e.set("peak_rss_mb", peak_rss_mb());

  auto& l = out.per_layer;
  l.set("fail_ratio", static_cast<double>(out.tally.failed()) /
                          static_cast<double>(out.tally.attempted));
  l.set("session_p99_ms", quantile(lat_ms, 0.99));
  if (args.trace) {
    const double off = done[0] / wall[0], on = done[1] / wall[1];
    l.set("trace.overhead_frac", (off - on) / off);
  }
  out.notes.push_back(
      fmt("v3_pool: %.0f sessions verified in %.0f batches on %.0f cores, ",
          sessions, static_cast<double>(batch_rate.size()),
          static_cast<double>(nproc())) +
      fmt("%.1f sessions/s; session p50 %.3f ms, p99 %.3f ms over "
          "%.0f samples",
          iq_mean(batch_rate), iq_mean(batch_p50), quantile(lat_ms, 0.99),
          static_cast<double>(lat_ms.size())));
  return out;
}

// --- serve probe -----------------------------------------------------------

namespace {

// The serve probe: 2 client threads, each with its own resumed
// V3ClientState, call net::run_client in v3 precomputed mode on the
// v3_pool session shape (b=16, 32 rounds, check=true) against an
// in-process EvBroker (1 shard, 1 producer core, the broker's default
// spool watermarks) over loopback, in one closed-loop phase.
constexpr std::size_t kServeClients = 2;
constexpr double kServeSeconds = 4;

// One client session as the closed loop saw it.
struct Op {
  bool ok = false;
  net::ClientStats cs;
};

// A broker on its own thread plus warmed client configurations.
class ServeRig {
 public:
  explicit ServeRig(const Args& args)
      : dir_(fs::path(args.out_dir) / "spool-serve-probe") {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    evloop::EvBrokerConfig cfg;
    cfg.bind_addr = "127.0.0.1";
    cfg.port = 0;
    cfg.bits = kV3Bits;
    cfg.rounds_per_session = kV3Rounds;
    cfg.demo_seed = args.seed;
    cfg.shards = 1;
    cfg.precompute_cores = 1;
    cfg.spool_dir = dir_.string();
    cfg.verbose = false;
    high_watermark_ = cfg.spool_high_watermark;
    broker_ = std::make_unique<evloop::EvBroker>(cfg);

    for (std::size_t i = 0; i < kServeClients; ++i) {
      net::ClientConfig c;
      c.host = "127.0.0.1";
      c.port = broker_->port();
      c.bits = kV3Bits;
      c.mode = net::SessionMode::kPrecomputed;
      c.protocol = net::kProtocolVersionV3;
      crypto::SystemRandom id_rng(crypto::Block{args.seed, 0x1D00 + i});
      c.v3_state = net::make_v3_client_state(id_rng);
      c.rounds_hint = static_cast<std::uint32_t>(kV3Rounds);
      c.demo_seed = args.seed;
      c.check = true;
      c.verbose = false;
      clients_.push_back(c);
    }
    thread_ = std::thread([b = broker_.get()] { b->run(); });
  }
  ~ServeRig() {
    stop();
    broker_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  // Waits for the producer's first fill of both spool lanes.
  void await_first_fill() {
    const auto t0 = Clock::now();
    for (;;) {
      const auto sp = broker_->stats().spool;
      if (sp.sessions_ready >= high_watermark_ &&
          sp.sessions_ready_v3 >= high_watermark_)
        return;
      if (seconds_since(t0) > 60)
        throw std::runtime_error("spool never filled");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Drains in-flight sessions and joins the broker thread.
  void stop() {
    if (!thread_.joinable()) return;
    broker_->request_stop();
    thread_.join();
  }

  evloop::EvBroker& broker() { return *broker_; }
  std::vector<net::ClientConfig>& clients() { return clients_; }

 private:
  fs::path dir_;
  std::size_t high_watermark_ = 0;
  std::unique_ptr<evloop::EvBroker> broker_;
  std::thread thread_;
  std::vector<net::ClientConfig> clients_;
};

Op call_client(const net::ClientConfig& cfg, std::uint64_t want,
               Tracer& tracer, std::uint64_t parent) {
  Op op;
  ScopedSpan span(tracer, "net.run_client", parent);
  try {
    op.cs = net::run_client(cfg);
    op.ok = op.cs.checked && op.cs.verified && op.cs.output_value == want &&
            op.cs.rounds == kV3Rounds;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve probe: session failed: %s\n", e.what());
  }
  const auto& cs = op.cs;
  span.attr("ok", op.ok ? 1 : 0);
  span.attr("rounds", static_cast<double>(cs.rounds));
  span.attr("bytes_sent", static_cast<double>(cs.bytes_sent));
  span.attr("bytes_received", static_cast<double>(cs.bytes_received));
  span.attr("handshake_s", cs.handshake_seconds);
  span.attr("ot_s", cs.ot_seconds);
  span.attr("transfer_s", cs.transfer_seconds);
  span.attr("eval_s", cs.eval_seconds);
  span.attr("first_table_s", cs.first_table_seconds);
  span.attr("pool_resumed", cs.pool_resumed ? 1 : 0);
  span.attr("attempts", static_cast<double>(cs.attempts));
  return op;
}

}  // namespace

void run_serve_probe(const Args& args, Tracer& tracer, RunOutput& out) {
  const std::uint64_t want =
      net::demo_mac_reference(args.seed, kV3Bits, kV3Rounds);
  const ScopedSpan root(tracer, "probe.v3_serve");

  // Set-up: broker start (reusable-artifact garble included), the first
  // spool fill, and one warm-up session per client, which pays its base
  // OT.
  ServeRig rig(args);
  rig.await_first_fill();
  std::uint64_t warmups = 0;
  for (const auto& c : rig.clients()) {
    if (!call_client(c, want, tracer, root.id()).ok)
      throw std::runtime_error("serve probe: warm-up session failed");
    ++warmups;
  }

  evloop::EvBroker& broker = rig.broker();
  const svc::BrokerStats before = broker.stats();
  svc::Counter& waits = broker.metrics().counter("spool_empty_waits");
  const std::uint64_t waits_before = waits.value();

  // Closed loop, one thread per client. The guard stops and joins the
  // clients on every path out of this scope.
  std::atomic<bool> stop{false};
  std::vector<std::vector<Op>> ops(kServeClients);
  std::vector<double> client_cpu(kServeClients, 0);
  struct Clients {
    std::atomic<bool>& stop;
    std::vector<std::thread> threads;
    void join() {
      stop.store(true);
      for (auto& t : threads)
        if (t.joinable()) t.join();
    }
    ~Clients() { join(); }
  } clients{stop, {}};
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kServeClients; ++i) {
    clients.threads.emplace_back([&, i] {
      const double c0 = thread_cpu_seconds();
      while (!stop.load(std::memory_order_relaxed))
        ops[i].push_back(
            call_client(rig.clients()[i], want, tracer, root.id()));
      client_cpu[i] = thread_cpu_seconds() - c0;
    });
  }
  std::this_thread::sleep_until(
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kServeSeconds)));
  clients.join();
  const double wall_s = seconds_since(start);
  const double cpu_s = process_cpu_seconds() - cpu0;
  const svc::BrokerStats mid = broker.stats();
  const std::uint64_t spool_waits = waits.value() - waits_before;
  rig.stop();
  const svc::BrokerStats after = broker.stats();

  std::uint64_t attempted = 0, ok = 0;
  double client_cpu_s = 0;
  std::vector<double> hs_ms, ot_ms, xfer_ms, eval_ms;
  for (std::size_t i = 0; i < kServeClients; ++i) {
    client_cpu_s += client_cpu[i];
    for (const Op& op : ops[i]) {
      ++attempted;
      if (!op.ok) continue;
      ++ok;
      hs_ms.push_back(op.cs.handshake_seconds * 1e3);
      ot_ms.push_back(op.cs.ot_seconds * 1e3);
      xfer_ms.push_back(op.cs.transfer_seconds * 1e3);
      eval_ms.push_back(op.cs.eval_seconds * 1e3);
    }
  }
  if (ok == 0) throw std::runtime_error("serve probe: no session verified");
  const auto served = static_cast<double>(mid.server.sessions_served -
                                          before.server.sessions_served);
  // Every session passed, every verified session was served exactly
  // once, and every OT-pool claim ended in consume or discard.
  out.invariants_ok = out.invariants_ok && ok == attempted &&
                      after.server.sessions_served == warmups + ok &&
                      broker.v3_outstanding_claims() == 0;

  auto& l = out.per_layer;
  l.set("ot.extended_per_session",
        static_cast<double>(mid.server.v3_ot_extended -
                            before.server.v3_ot_extended) /
            served);
  l.set("ot.fresh_pools", static_cast<double>(mid.server.v3_fresh_pools -
                                              before.server.v3_fresh_pools));
  l.set("svc.spool_wait_frac", static_cast<double>(spool_waits) / served);
  l.set("net.handshake_ms", median(hs_ms));
  l.set("net.ot_ms", median(ot_ms));
  l.set("net.transfer_ms", median(xfer_ms));
  l.set("net.eval_ms", median(eval_ms));
  l.set("evloop.server_cpu_us_per_session",
        (cpu_s - client_cpu_s) * 1e6 / served);
  l.set("evloop.client_cpu_frac", client_cpu_s / cpu_s);

  {
    // The broker's own registry, as attributes of one span.
    ScopedSpan m(tracer, "evloop.broker_metrics", root.id());
    auto& reg = broker.metrics();
    const auto hs = reg.histogram("handshake_seconds").snapshot();
    const auto ots = reg.histogram("ot_seconds").snapshot();
    const auto xs = reg.histogram("transfer_seconds").snapshot();
    const auto ss = reg.histogram("session_seconds").snapshot();
    m.attr("sessions_served",
           static_cast<double>(after.server.sessions_served));
    m.attr("spool_empty_waits", static_cast<double>(waits.value()));
    m.attr("v3_ot_extended", static_cast<double>(after.server.v3_ot_extended));
    m.attr("v3_fresh_pools", static_cast<double>(after.server.v3_fresh_pools));
    m.attr("handshake_p50_s", hs.quantile_seconds(0.5));
    m.attr("ot_p50_s", ots.quantile_seconds(0.5));
    m.attr("ot_sum_s", ots.sum_seconds);
    m.attr("transfer_p50_s", xs.quantile_seconds(0.5));
    m.attr("transfer_sum_s", xs.sum_seconds);
    m.attr("session_p50_s", ss.quantile_seconds(0.5));
    m.attr("session_count", static_cast<double>(ss.count));
  }

  out.notes.push_back(
      fmt("serve probe: %.0f v3 sessions verified of %.0f attempted in "
          "%.1f s (%.1f sessions/s); ",
          static_cast<double>(ok), static_cast<double>(attempted), wall_s,
          static_cast<double>(ok) / wall_s) +
      fmt("spool_empty_waits %.0f, OT extended %.0f, fresh pools %.0f",
          static_cast<double>(spool_waits),
          static_cast<double>(mid.server.v3_ot_extended -
                              before.server.v3_ot_extended),
          static_cast<double>(mid.server.v3_fresh_pools -
                              before.server.v3_fresh_pools)));
}

}  // namespace perfbench
