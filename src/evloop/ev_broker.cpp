#include "evloop/ev_broker.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "crypto/rng.hpp"
#include "net/demo_inputs.hpp"
#include "net/error.hpp"
#include "proto/reusable_io.hpp"

namespace maxel::svc {

std::string BrokerStats::to_json() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"role\":\"broker\",\"admission_rejects\":%llu,"
      "\"spool\":{\"ready\":%zu,\"spooled\":%llu,\"claimed\":%llu,"
      "\"cache_hits\":%llu,\"cache_misses\":%llu,\"purged_on_open\":%llu,"
      "\"corrupt_discarded\":%llu,"
      "\"bytes_on_disk\":%llu,\"ready_v3\":%zu,\"v3_spooled\":%llu,"
      "\"v3_claimed\":%llu,\"v3_lineage_discarded\":%llu,"
      "\"reusable_ready\":%zu,\"reusable_spooled\":%llu,"
      "\"reusable_evaluations\":%llu,\"reusable_corrupt_discarded\":%llu},"
      "\"server\":",
      static_cast<unsigned long long>(admission_rejects),
      spool.sessions_ready,
      static_cast<unsigned long long>(spool.sessions_spooled),
      static_cast<unsigned long long>(spool.sessions_claimed),
      static_cast<unsigned long long>(spool.cache_hits),
      static_cast<unsigned long long>(spool.cache_misses),
      static_cast<unsigned long long>(spool.purged_on_open),
      static_cast<unsigned long long>(spool.corrupt_discarded),
      static_cast<unsigned long long>(spool.bytes_on_disk),
      spool.sessions_ready_v3,
      static_cast<unsigned long long>(spool.v3_spooled),
      static_cast<unsigned long long>(spool.v3_claimed),
      static_cast<unsigned long long>(spool.v3_lineage_discarded),
      spool.reusable_ready,
      static_cast<unsigned long long>(spool.reusable_spooled),
      static_cast<unsigned long long>(spool.reusable_evaluations),
      static_cast<unsigned long long>(spool.reusable_corrupt_discarded));
  return std::string(buf) + server.to_json() + "}";
}

}  // namespace maxel::svc

namespace maxel::evloop {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int accept_nonblock(int lfd) {
#ifdef __linux__
  return ::accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
#else
  const int fd = ::accept(lfd, nullptr, nullptr);
  if (fd >= 0) {
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
  return fd;
#endif
}

// Folds one finished session into `metrics`: histograms, counters and
// per-mode wire bytes for a served session, the failure taxonomy
// otherwise (an idle eviction counts as a timeout). Returns
// the session's stats block with its failure counters applied, ready to
// merge into the shard's totals.
ServerStats record_session(svc::MetricsRegistry& metrics,
                           const EvSession& s, bool evicted_idle) {
  ServerStats local = s.stats();
  if (s.done()) {
    metrics.histogram("handshake_seconds").observe(local.handshake_seconds);
    metrics.histogram("transfer_seconds").observe(local.transfer_seconds);
    metrics.histogram("ot_seconds").observe(local.ot_seconds);
    metrics.histogram("session_seconds").observe(s.session_seconds());
    metrics.counter("sessions_served").inc();
    metrics.counter("rounds_served").inc(local.rounds_served);
    if (local.stream_sessions_served != 0) {
      metrics.counter("stream_sessions_served").inc();
      metrics.histogram("first_table_seconds")
          .observe(local.first_table_seconds);
    }
    if (local.v3_sessions_served != 0)
      metrics.counter("v3_sessions_served").inc();
    if (local.reusable_sessions_served != 0)
      metrics.counter("reusable_sessions_served").inc();
    // Service-wide high-water mark of garbled tables resident for any
    // one session (whole session precomputed, one chunk streamed).
    auto& peak = metrics.gauge("peak_resident_tables");
    if (static_cast<std::int64_t>(local.peak_resident_tables) > peak.value())
      peak.set(static_cast<std::int64_t>(local.peak_resident_tables));
    // Per-direction wire accounting, split by session mode so a fleet
    // can read the v2->v3 bandwidth win straight off `maxelctl stats`.
    const std::string mode = s.mode_name();
    metrics.counter("net_tx_bytes_" + mode).inc(local.bytes_sent);
    metrics.counter("net_rx_bytes_" + mode).inc(local.bytes_received);
    return local;
  }
  switch (evicted_idle ? EvError::kTimeout : s.error()) {
    case EvError::kHandshake:
      ++local.handshakes_rejected;
      metrics.counter("handshakes_rejected").inc();
      break;
    case EvError::kTimeout:
      // The client went silent or stopped draining; its session is
      // abandoned so it cannot pin a connection slot.
      ++local.idle_timeouts;
      ++local.connection_errors;
      metrics.counter("idle_timeouts").inc();
      metrics.counter("connection_errors").inc();
      break;
    case EvError::kPeerClosed:
      // Mid-session hangup — the signature a crashing or retrying
      // client leaves behind; tracked separately so fleets can tell
      // churn from protocol errors.
      ++local.connection_errors;
      metrics.counter("peer_disconnects").inc();
      metrics.counter("connection_errors").inc();
      break;
    default:
      ++local.connection_errors;
      metrics.counter("connection_errors").inc();
      break;
  }
  return local;
}

}  // namespace

// --- SpareFd --------------------------------------------------------------

SpareFd::SpareFd() { reacquire(); }

SpareFd::~SpareFd() { release(); }

void SpareFd::release() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SpareFd::reacquire() {
  if (fd_ < 0) fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

// --- connection / shard state ---------------------------------------------

struct EvBroker::EvConn {
  explicit EvConn(const EvServeContext& ctx) : session(ctx) {}
  int fd = -1;
  EvSession session;
  std::uint64_t last_activity = 0;
  std::uint64_t idle_timer = 0;  // timer-wheel handle, 0 = none armed
  std::uint64_t gate_timer = 0;  // pool-gate retry handle
  bool want_write = false;
  bool write_dead = false;  // peer reset our sends; output undeliverable
  bool lingering = false;   // served and half-closed; awaiting the peer's EOF
};

struct EvBroker::Shard {
  std::size_t index = 0;
  EvLoop loop;
  std::unique_ptr<net::TcpListener> listener;
  SpareFd spare;
  std::thread thread;
  std::unordered_map<int, std::unique_ptr<EvConn>> conns;
  svc::Gauge* sessions_gauge = nullptr;
  bool draining = false;
  bool listener_on = false;
};

// --- spool plumbing -------------------------------------------------------

template <typename Take>
auto EvBroker::take_blocking(Lane lane, Take take) {
  // Registered once per take, released however the take ends.
  struct Waiter {
    std::atomic<std::size_t>* count = nullptr;
    ~Waiter() {
      if (count != nullptr) count->fetch_sub(1, std::memory_order_relaxed);
    }
  } waiter;
  for (;;) {
    if (auto s = take()) {
      metrics_.gauge(lane == kLaneV2 ? "spool_ready" : "spool_ready_v3")
          .set(static_cast<std::int64_t>(lane_ready(lane)));
      spool_cv_.notify_all();  // the producer may want to refill now
      return std::move(*s);
    }
    if (producer_stop_.load(std::memory_order_relaxed))
      throw net::NetError("broker stopping: spool drained");
    if (waiter.count == nullptr) {
      // An empty lane is demand: the producer garbles for this take even
      // when the lane's low watermark is 0.
      waiter.count = &lane_waiters_[lane];
      waiter.count->fetch_add(1, std::memory_order_relaxed);
      spool_cv_.notify_all();
    }
    metrics_.counter("spool_empty_waits").inc();
    std::unique_lock<std::mutex> lock(spool_mu_);
    spool_cv_.wait_for(lock, std::chrono::milliseconds(20));
  }
}

// --- construction ---------------------------------------------------------

EvBroker::EvBroker(const EvBrokerConfig& cfg)
    : cfg_(cfg),
      circ_(circuit::make_mac_circuit(
          circuit::MacOptions{cfg.bits, cfg.bits, true})),
      v3_an_(gc::analyze_v3(circ_)),
      v3_reg_(crypto::SystemRandom().next_block()),
      spool_(svc::SpoolConfig{cfg.spool_dir, cfg.ram_cache_sessions, true}),
      pool_(cfg.precompute_cores, crypto::SystemRandom().next_block()) {
  if (cfg_.shards == 0) cfg_.shards = 1;
  if (cfg_.idle_timeout_ms <= 0)
    throw std::invalid_argument("EvBroker: idle_timeout_ms must be > 0");
  expect_.scheme = cfg_.scheme;
  expect_.bit_width = static_cast<std::uint32_t>(cfg_.bits);
  expect_.circuit_hash = net::circuit_fingerprint(circ_);
  expect_.rounds_per_session =
      static_cast<std::uint32_t>(cfg_.rounds_per_session);
  expect_.allow_stream = cfg_.allow_stream;
  expect_.allow_v3 = cfg_.allow_v3;
  expect_.allow_reusable = cfg_.allow_v3 && cfg_.allow_reusable;
  net::DemoInputStream a_inputs(cfg_.demo_seed, net::kGarblerStream,
                                cfg_.bits);
  v3_g_bits_.resize(cfg_.rounds_per_session);
  for (auto& row : v3_g_bits_) row = a_inputs.next_bits();
  if (cfg_.spool_high_watermark < cfg_.spool_low_watermark)
    cfg_.spool_high_watermark = cfg_.spool_low_watermark;
  if (expect_.allow_reusable) ensure_reusable();

  serve_ctx_.circ = &circ_;
  serve_ctx_.expect = expect_;
  serve_ctx_.reg = &v3_reg_;
  serve_ctx_.reusable = reusable_ctx_ ? &*reusable_ctx_ : nullptr;
  serve_ctx_.bits = cfg_.bits;
  serve_ctx_.rounds = cfg_.rounds_per_session;
  serve_ctx_.demo_seed = cfg_.demo_seed;
  serve_ctx_.scheme = cfg_.scheme;
  serve_ctx_.stream_chunk_rounds = cfg_.stream_chunk_rounds;
  serve_ctx_.take_session = [this] {
    return take_blocking(kLaneV2, [this] { return spool_.take(); });
  };
  serve_ctx_.take_v3 = [this] {
    return take_blocking(kLaneV3,
                         [this] { return spool_.take_v3(v3_reg_.lineage()); });
  };

  // The busy verdict, framed once: the EMFILE path sends it raw with a
  // single syscall, no channel object needed on a dying fd.
  {
    BufferedChannel bc;
    net::send_accept(bc,
                     net::ServerAccept{net::RejectCode::kServerBusy, 0,
                                       "fd limit reached, retry later"});
    bc.flush();
    struct iovec iov[16];
    const std::size_t n = bc.gather(iov, 16);
    for (std::size_t i = 0; i < n; ++i) {
      const auto* p = static_cast<const std::uint8_t*>(iov[i].iov_base);
      busy_reject_bytes_.insert(busy_reject_bytes_.end(), p,
                                p + iov[i].iov_len);
    }
  }

  g_open_fds_ = &metrics_.gauge("ev_open_fds");
  g_ready_depth_ = &metrics_.gauge("ev_ready_queue_depth");

  // Listeners up front so port() is valid before run(). Shard 0 may bind
  // an ephemeral port; the rest join it via SO_REUSEPORT, giving the
  // kernel a per-shard accept queue to spread connections over.
  net::ListenOptions lo;
  lo.backlog = cfg_.listen_backlog;
  lo.reuseport = cfg_.shards > 1;
  shard_stats_.resize(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->index = i;
    const std::uint16_t p = (i == 0) ? cfg_.port : port_;
    sh->listener = std::make_unique<net::TcpListener>(p, cfg_.bind_addr, lo);
    if (i == 0) port_ = sh->listener->port();
    // The listener must be non-blocking: accept4's SOCK_NONBLOCK flag
    // shapes the accepted socket, not the accept call itself, and an
    // edge-triggered drain loop re-accepts until EAGAIN — on a blocking
    // listener that second call would freeze the whole shard.
    const int lfl = ::fcntl(sh->listener->fd(), F_GETFL, 0);
    if (lfl >= 0)
      ::fcntl(sh->listener->fd(), F_SETFL, lfl | O_NONBLOCK);
    sh->sessions_gauge = &metrics_.gauge(
        "ev_shard" + std::to_string(i) + "_sessions");
    shards_.push_back(std::move(sh));
  }
}

EvBroker::~EvBroker() { request_stop(); }

void EvBroker::ensure_reusable() {
  reusable_key_ =
      svc::reusable_artifact_key(expect_.circuit_hash, cfg_.bits);
  if (auto bytes = spool_.fetch_reusable(reusable_key_)) {
    try {
      gc::ReusableCircuit rc =
          proto::parse_reusable(bytes->data(), bytes->size());
      if (rc.view.fingerprint == expect_.circuit_hash &&
          rc.view.bit_width == cfg_.bits) {
        reusable_ctx_ = net::make_reusable_context(
            circ_, std::move(rc),
            static_cast<std::uint32_t>(cfg_.rounds_per_session),
            cfg_.demo_seed);
        metrics_.counter("reusable_artifact_loaded").inc();
        if (cfg_.verbose)
          std::fprintf(stderr,
                       "[broker] reusable artifact %s reloaded from spool "
                       "(%llu evaluations served so far)\n",
                       reusable_key_.c_str(),
                       static_cast<unsigned long long>(
                           spool_.stats().reusable_evaluations));
        return;
      }
      // Same key, different contents (the key pins the fingerprint, so
      // this means corruption): re-garble below.
    } catch (const std::exception&) {
      // Checksum passed but the blob no longer parses; re-garble below.
    }
  }
  crypto::SystemRandom garble_rng;
  gc::ReusableCircuit rc = net::garble_reusable(
      circ_, static_cast<std::uint32_t>(cfg_.bits), garble_rng);
  spool_.put_reusable(reusable_key_, proto::serialize_reusable(rc));
  reusable_ctx_ = net::make_reusable_context(
      circ_, std::move(rc),
      static_cast<std::uint32_t>(cfg_.rounds_per_session), cfg_.demo_seed);
  ++reusable_garbles_;
  metrics_.counter("reusable_garbles").inc();
  if (cfg_.verbose)
    std::fprintf(stderr, "[broker] garbled reusable artifact %s into spool\n",
                 reusable_key_.c_str());
}

// --- spool producer -------------------------------------------------------

std::size_t EvBroker::lane_ready(Lane lane) const {
  return lane == kLaneV2 ? spool_.ready() : spool_.ready_v3();
}

std::size_t EvBroker::refill_batch(Lane lane) {
  if (lane == kLaneV3 && !cfg_.allow_v3) return 0;
  const std::size_t ready = lane_ready(lane);
  // A lane that fell below the low watermark is stocked up to the high
  // one, over as many passes as that takes.
  if (ready < cfg_.spool_low_watermark) lane_filling_[lane] = true;
  if (ready >= cfg_.spool_high_watermark) lane_filling_[lane] = false;
  const std::size_t stock =
      lane_filling_[lane] ? cfg_.spool_high_watermark : 0;
  const std::size_t want =
      std::max(stock, lane_waiters_[lane].load(std::memory_order_relaxed));
  return want > ready ? std::min(want - ready, pool_.cores()) : 0;
}

bool EvBroker::lane_starved(Lane lane) const {
  return lane_waiters_[lane].load(std::memory_order_relaxed) >
         lane_ready(lane);
}

void EvBroker::producer_loop() {
  while (!producer_stop_.load(std::memory_order_relaxed)) {
    std::size_t v2_batch = refill_batch(kLaneV2);
    std::size_t v3_batch = refill_batch(kLaneV3);
    // Demand before stock: while takes wait on one lane only, the other
    // lane's refill sits out this pass, so a client never waits behind
    // the other lane's initial fill.
    const bool v2_starved = lane_starved(kLaneV2);
    if (v2_starved != lane_starved(kLaneV3))
      (v2_starved ? v3_batch : v2_batch) = 0;
    if (v2_batch == 0 && v3_batch == 0) {
      std::unique_lock<std::mutex> lock(spool_mu_);
      spool_cv_.wait_for(lock, std::chrono::milliseconds(50));
      continue;
    }
    if (v2_batch != 0) {
      std::vector<proto::PrecomputedSession> fresh(v2_batch);
      pool_.parallel_for(v2_batch, [&](std::size_t item, std::size_t core) {
        fresh[item] = proto::garble_session(circ_, cfg_.scheme,
                                            cfg_.rounds_per_session,
                                            pool_.core_rng(core));
      });
      for (auto& s : fresh) spool_.put(std::move(s));
      precomputed_.fetch_add(v2_batch, std::memory_order_relaxed);
      metrics_.gauge("spool_ready").set(
          static_cast<std::int64_t>(spool_.ready()));
    }
    if (v3_batch != 0) {
      // v3 sessions are bound to the registry's garbling delta; the
      // lineage recorded by put_v3 lets a future broker on this spool
      // dir burn them instead of serving under the wrong correlation.
      std::vector<proto::PrecomputedSessionV3> fresh(v3_batch);
      pool_.parallel_for(v3_batch, [&](std::size_t item, std::size_t core) {
        auto& rng = pool_.core_rng(core);
        fresh[item] = proto::garble_session_v3(circ_, v3_an_, v3_g_bits_,
                                               v3_reg_.delta(),
                                               rng.next_block(), rng);
      });
      for (auto& s : fresh) spool_.put_v3(s);
      precomputed_.fetch_add(v3_batch, std::memory_order_relaxed);
      metrics_.gauge("spool_ready_v3").set(
          static_cast<std::int64_t>(spool_.ready_v3()));
    }
    spool_cv_.notify_all();
  }
}

// --- shard event handling -------------------------------------------------

void EvBroker::shard_loop(Shard& sh) {
  const int lfd = sh.listener->fd();
  sh.loop.add_fd(
      lfd, true, false,
      [this, &sh](bool r, bool, bool) {
        if (r) accept_drain(sh);
      },
      /*edge=*/true);
  sh.listener_on = true;
  if (stop_.load(std::memory_order_relaxed)) begin_drain(sh);
  sh.loop.run();
  // Defensive sweep: a forced stop may leave connections behind; their
  // session destructors discard open claims and release gates.
  for (auto& kv : sh.conns) ::close(kv.first);
  sh.conns.clear();
}

void EvBroker::accept_drain(Shard& sh) {
  g_ready_depth_->set(
      static_cast<std::int64_t>(sh.loop.last_batch_size()));
  // Edge-triggered listener: one readiness event may stand for many
  // queued connections, so drain until EAGAIN or we'd lose events.
  for (;;) {
    if (sh.draining) return;
    const int cfd = accept_nonblock(sh.listener->fd());
    if (cfd >= 0) {
      add_conn(sh, cfd);
      continue;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EMFILE || errno == ENFILE) {
      if (!busy_reject(sh)) return;
      continue;
    }
    return;  // transient accept failure; the next readiness event retries
  }
}

bool EvBroker::busy_reject(Shard& sh) {
  // Out of fd slots. Closing the reserve frees exactly one, which admits
  // the connection at the head of the queue long enough to deliver the
  // typed kServerBusy verdict — the client backs off and retries instead
  // of timing out against a full, frozen accept queue.
  sh.spare.release();
  const int cfd = accept_nonblock(sh.listener->fd());
  bool admitted = false;
  if (cfd >= 0) {
    ::send(cfd, busy_reject_bytes_.data(), busy_reject_bytes_.size(),
           MSG_DONTWAIT | MSG_NOSIGNAL);
    ::shutdown(cfd, SHUT_WR);
    ::close(cfd);
    metrics_.counter("admission_rejects").inc();
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++admission_rejects_;
    admitted = true;
  }
  sh.spare.reacquire();
  return admitted;
}

void EvBroker::add_conn(Shard& sh, int cfd) {
  int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto conn = std::make_unique<EvConn>(serve_ctx_);
  EvConn* c = conn.get();
  c->fd = cfd;
  c->last_activity = EvLoop::now_ms();
  sh.conns.emplace(cfd, std::move(conn));
  g_open_fds_->set(open_conns_.fetch_add(1, std::memory_order_relaxed) + 1);
  sh.sessions_gauge->set(static_cast<std::int64_t>(sh.conns.size()));
  sh.loop.add_fd(cfd, true, false, [this, &sh, c](bool r, bool w, bool err) {
    on_io(sh, c, r, w, err);
  });
  arm_idle(sh, c);
}

void EvBroker::on_io(Shard& sh, EvConn* c, bool r, bool w, bool err) {
  g_ready_depth_->set(
      static_cast<std::int64_t>(sh.loop.last_batch_size()));
  (void)w;  // service_conn drains output regardless of which edge woke us
  if (c->lingering) {
    // Whatever the peer still sends is discarded; its EOF (or an error)
    // ends the wait.
    std::uint8_t buf[4096];
    ssize_t n;
    while ((n = ::recv(c->fd, buf, sizeof(buf), 0)) > 0 ||
           (n < 0 && errno == EINTR)) {
    }
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
      finish_conn(sh, c, false);
    return;
  }
  if (r || err) {
    for (;;) {
      std::uint8_t buf[64 * 1024];
      const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c->last_activity = EvLoop::now_ms();
        c->session.on_bytes(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        c->session.on_peer_eof();
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // ECONNRESET-class: same taxonomy as a mid-session hangup.
      c->session.on_peer_eof();
      break;
    }
  }
  service_conn(sh, c);
}

bool EvBroker::write_drain(Shard& sh, EvConn& c) {
  BufferedChannel& ch = c.session.channel();
  while (ch.has_output()) {
    struct iovec iov[16];
    const std::size_t n = ch.gather(iov, 16);
    struct msghdr msg {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(n);
    const ssize_t w = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    if (w > 0) {
      c.last_activity = EvLoop::now_ms();
      ch.mark_written(static_cast<std::size_t>(w));
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c.write_dead = true;
    break;
  }
  const bool want = ch.has_output() && !c.write_dead;
  if (want != c.want_write) {
    c.want_write = want;
    sh.loop.set_interest(c.fd, true, want);
  }
  if (c.write_dead) {
    if (!c.session.done() && !c.session.failed())
      c.session.on_peer_eof();  // record the taxonomy before closing
    return false;
  }
  return true;
}

void EvBroker::service_conn(Shard& sh, EvConn* c) {
  if (!write_drain(sh, *c)) {
    finish_conn(sh, c, false);
    return;
  }
  if (c->session.wants_gate_retry() && c->gate_timer == 0) {
    // Lost the per-client pool gate to a concurrent session (possibly on
    // this very thread): park on the wheel and re-poke shortly.
    c->gate_timer = sh.loop.arm_timer(16, [this, &sh, c] {
      c->gate_timer = 0;
      c->session.on_gate_retry();
      service_conn(sh, c);
    });
    return;
  }
  if ((c->session.done() || c->session.failed()) &&
      !c->session.channel().has_output()) {
    if (!c->session.done()) {
      finish_conn(sh, c, false);
      return;
    }
    // Lingering close: the session is served, so record it now, then
    // half-close and keep the socket until the client's EOF (the idle
    // timer bounds the wait). A socket closed at once answers any late
    // client byte with a reset, and the reset destroys whatever of the
    // reply the client has not read yet: a served session lost.
    record_result(sh, *c, false);
    c->lingering = true;
    ::shutdown(c->fd, SHUT_WR);
    on_io(sh, c, true, false, false);  // the EOF may already be queued
  }
}

void EvBroker::arm_idle(Shard& sh, EvConn* c) {
  const std::uint64_t now = EvLoop::now_ms();
  const auto idle_ms = static_cast<std::uint64_t>(cfg_.idle_timeout_ms);
  const std::uint64_t due = c->last_activity + idle_ms;
  c->idle_timer =
      sh.loop.arm_timer(due > now ? due - now : 1, [this, &sh, c, idle_ms] {
        c->idle_timer = 0;
        // Lazy re-arm: activity since arming pushes the deadline out
        // instead of resetting a timer on every byte.
        if (EvLoop::now_ms() - c->last_activity >= idle_ms)
          finish_conn(sh, c, /*evicted_idle=*/true);
        else
          arm_idle(sh, c);
      });
}

void EvBroker::finish_conn(Shard& sh, EvConn* c, bool evicted_idle) {
  if (c->idle_timer != 0) {
    sh.loop.cancel_timer(c->idle_timer);
    c->idle_timer = 0;
  }
  if (c->gate_timer != 0) {
    sh.loop.cancel_timer(c->gate_timer);
    c->gate_timer = 0;
  }
  if (!c->lingering) record_result(sh, *c, evicted_idle);
  const int fd = c->fd;
  sh.loop.remove_fd(fd);
  sh.loop.defer_close(fd);
  sh.conns.erase(fd);
  g_open_fds_->set(open_conns_.fetch_sub(1, std::memory_order_relaxed) - 1);
  sh.sessions_gauge->set(static_cast<std::int64_t>(sh.conns.size()));
  if (sh.draining && sh.conns.empty()) sh.loop.stop();
}

void EvBroker::record_result(Shard& sh, EvConn& c, bool evicted_idle) {
  EvSession& s = c.session;
  const ServerStats local = record_session(metrics_, s, evicted_idle);
  if (s.done()) {
    if (local.reusable_sessions_served != 0)
      spool_.add_reusable_evaluations(reusable_key_,
                                      cfg_.rounds_per_session);
    const std::uint64_t total =
        sessions_served_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (cfg_.verbose)
      std::fprintf(stderr,
                   "[broker] shard %zu served session %llu (%s)\n",
                   sh.index, static_cast<unsigned long long>(total),
                   s.mode_name());
    if (cfg_.max_sessions != 0 && total >= cfg_.max_sessions) request_stop();
  } else if (cfg_.verbose) {
    if (evicted_idle)
      std::fprintf(stderr, "[broker] shard %zu evicted idle peer\n",
                   sh.index);
    else
      std::fprintf(stderr, "[broker] shard %zu session error: %s\n",
                   sh.index, s.error_text().c_str());
  }
  const std::lock_guard<std::mutex> lock(stats_mu_);
  shard_stats_[sh.index].merge(local);
}

// --- lifecycle ------------------------------------------------------------

void EvBroker::begin_drain(Shard& sh) {
  if (sh.draining) return;
  sh.draining = true;
  if (sh.listener_on) {
    sh.loop.remove_fd(sh.listener->fd());
    sh.listener_on = false;
  }
  // Closed, not just unregistered: a late connect is refused at once
  // instead of completing a handshake no shard will ever serve.
  sh.listener->close();
  if (sh.conns.empty()) sh.loop.stop();
}

void EvBroker::request_stop() {
  if (stop_.exchange(true, std::memory_order_relaxed)) return;
  for (auto& sh : shards_) {
    Shard* s = sh.get();
    s->loop.post([this, s] { begin_drain(*s); });
  }
}

void EvBroker::run() {
  const auto t0 = Clock::now();
  producer_stop_.store(false, std::memory_order_relaxed);
  std::thread producer([this] { producer_loop(); });
  for (auto& sh : shards_)
    sh->thread = std::thread([this, s = sh.get()] { shard_loop(*s); });
  for (auto& sh : shards_) sh->thread.join();
  // The producer outlives the shards so an in-flight session that still
  // needed a spool refill during drain could get one.
  producer_stop_.store(true, std::memory_order_relaxed);
  spool_cv_.notify_all();
  producer.join();
  const std::lock_guard<std::mutex> lock(stats_mu_);
  accept_wall_seconds_ += seconds_since(t0);
}

svc::BrokerStats EvBroker::stats() const {
  svc::BrokerStats st;
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    for (const auto& ss : shard_stats_) st.server.merge(ss);
    st.admission_rejects = admission_rejects_;
    st.server.total_seconds = accept_wall_seconds_;
  }
  st.server.reusable_garbles += reusable_garbles_;
  st.server.sessions_precomputed =
      precomputed_.load(std::memory_order_relaxed);
  st.spool = spool_.stats();
  return st;
}

}  // namespace maxel::evloop
