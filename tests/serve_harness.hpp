// Serving harnesses shared by the network test suites and the loopback
// benches (bench/ puts this directory on its include path):
//
//   * TestBroker: an evloop::EvBroker on loopback, run on its own thread
//     and serving off a private temporary spool unless the config names
//     one;
//   * shuttle_serve_one: a minimal single-connection server that owns
//     one EvSession and feeds it ONE BYTE AT A TIME, draining its output
//     after every byte — the harshest readiness schedule an event loop
//     can deliver.
#pragma once

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "evloop/ev_broker.hpp"
#include "evloop/session.hpp"
#include "net/tcp_channel.hpp"
#include "svc/session_spool.hpp"

namespace maxel::test {

// Loopback, ephemeral port, one shard, quiet; the rest at its defaults.
inline evloop::EvBrokerConfig loopback_broker_config(std::size_t bits,
                                                     std::size_t rounds) {
  evloop::EvBrokerConfig cfg;
  cfg.bind_addr = "127.0.0.1";
  cfg.port = 0;
  cfg.bits = bits;
  cfg.rounds_per_session = rounds;
  cfg.shards = 1;
  cfg.verbose = false;
  return cfg;
}

// The loopback shape with a one-session spool stock per lane on two
// producer cores: what most single-client tests want.
inline evloop::EvBrokerConfig small_broker_config(std::size_t bits,
                                                  std::size_t rounds) {
  evloop::EvBrokerConfig cfg = loopback_broker_config(bits, rounds);
  cfg.spool_low_watermark = 1;
  cfg.spool_high_watermark = 1;
  cfg.precompute_cores = 2;
  return cfg;
}

// A running broker. wait() joins once run() returns by itself (the
// config's max_sessions were served); stop() asks for the drain first.
// The destructor stops, then removes the private spool.
class TestBroker {
 public:
  explicit TestBroker(evloop::EvBrokerConfig cfg) {
    if (cfg.spool_dir.empty()) cfg.spool_dir = spool_.emplace().path();
    broker_ = std::make_unique<evloop::EvBroker>(cfg);
    thread_ = std::thread([b = broker_.get()] { b->run(); });
  }
  ~TestBroker() { stop(); }
  TestBroker(const TestBroker&) = delete;
  TestBroker& operator=(const TestBroker&) = delete;

  void wait() {
    if (thread_.joinable()) thread_.join();
  }
  void stop() {
    broker_->request_stop();
    wait();
  }

  [[nodiscard]] std::uint16_t port() const { return broker_->port(); }
  [[nodiscard]] svc::BrokerStats stats() const { return broker_->stats(); }
  [[nodiscard]] evloop::ServerStats server_stats() const {
    return broker_->stats().server;
  }
  [[nodiscard]] std::uint64_t outstanding_claims() const {
    return broker_->v3_outstanding_claims();
  }
  [[nodiscard]] evloop::EvBroker& broker() { return *broker_; }

 private:
  std::optional<svc::TempSpoolDir> spool_;  // outlives broker_
  std::unique_ptr<evloop::EvBroker> broker_;
  std::thread thread_;
};

struct ShuttleResult {
  bool done = false;
  bool failed = false;
  std::string mode;
  std::string err;
  evloop::ServerStats stats;
};

inline bool shuttle_drain(int fd, evloop::BufferedChannel& ch) {
  while (ch.has_output()) {
    struct iovec iov[16];
    const std::size_t n = ch.gather(iov, 16);
    if (n == 0) break;
    const ssize_t w = ::writev(fd, iov, static_cast<int>(n));
    if (w <= 0) return false;
    ch.mark_written(static_cast<std::size_t>(w));
  }
  return true;
}

// Accepts one connection on `lst` and serves it through an EvSession
// byte by byte until the session finishes, fails, or the peer leaves.
inline ShuttleResult shuttle_serve_one(net::TcpListener& lst,
                                       const evloop::EvServeContext& ctx) {
  ShuttleResult res;
  const int cfd = ::accept(lst.fd(), nullptr, nullptr);
  if (cfd < 0) {
    res.err = "accept failed";
    return res;
  }
  evloop::EvSession s(ctx);
  std::uint8_t buf[4096];
  while (!s.done() && !s.failed()) {
    const ssize_t n = ::recv(cfd, buf, sizeof buf, 0);
    if (n < 0) break;
    if (n == 0) {
      s.on_peer_eof();
      break;
    }
    for (ssize_t i = 0; i < n && !s.done() && !s.failed(); ++i) {
      s.on_bytes(buf + i, 1);
      if (!shuttle_drain(cfd, s.channel())) break;
      // A lost pool gate would park here; a lone session wins at once.
      while (s.wants_gate_retry()) {
        s.on_gate_retry();
        if (!shuttle_drain(cfd, s.channel())) break;
      }
    }
  }
  shuttle_drain(cfd, s.channel());
  ::shutdown(cfd, SHUT_WR);
  // Linger for the client's EOF so the final frames aren't reset away.
  char tmp[256];
  while (::recv(cfd, tmp, sizeof tmp, 0) > 0) {
  }
  ::close(cfd);
  res.done = s.done();
  res.failed = s.failed();
  res.mode = s.mode_name();
  res.err = s.error_text();
  if (s.done()) res.stats = s.stats();
  return res;
}

}  // namespace maxel::test
