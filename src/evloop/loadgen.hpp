// Concurrency load generator for the serving tier: drives N canned
// reusable-mode sessions through real TCP connections from ONE thread,
// so a 10k-concurrent sweep costs 10k fds, not 10k client threads.
//
// How a canned session works: the loadgen has in-process access to the
// broker's V3PoolRegistry, so it fabricates each client identity's OT
// pool directly — base OT + extension run over a MemoryChannel pair,
// the sender half installed into the live registry, the receiver half
// discarded after sizing. Every session then resumes that pool with a
// valid ticket, which makes the entire client->server byte stream known
// in advance: hello + v3 extension + reusable setup + all-zero choice
// bits, one blob per identity. A session is: connect, write the blob,
// read until the server's EOF, check the accept verdict. The MAC
// outputs are never decoded (the choice bits are junk), but the server
// runs the full reusable serve path — pool gate, claim, z/masked-bit
// streams — so sessions/s and latency measure the real serving work.
//
// Pools are pre-extended to cover every planned session of an identity,
// so the server's extend_count is deterministically zero and the blob
// stays valid under any interleaving of that identity's sessions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/handshake.hpp"
#include "net/reusable_service.hpp"
#include "net/v3_service.hpp"

namespace maxel::evloop {

struct LoadgenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t total_sessions = 100;
  std::size_t window = 64;   // max concurrently open connections
  std::size_t clients = 16;  // distinct client identities (round-robin)
  int io_timeout_ms = 30'000;  // per-session completion deadline
  int max_retries = 5;  // per-session cap on busy-verdict/connect retries
};

struct LoadgenResult {
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t retries = 0;  // reconnects after a retryable verdict/refusal
  double wall_seconds = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t peak_inflight = 0;   // max concurrently open sessions
  std::size_t peak_open_fds = 0;   // /proc/self/fd high-water (0 if n/a)
  std::uint64_t peak_rss_kb = 0;   // VmHWM at the end (0 if n/a)

  [[nodiscard]] double sessions_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(ok) / wall_seconds : 0;
  }
};

// Raises RLIMIT_NOFILE's soft limit to the hard limit; returns the
// resulting soft limit. The 10k sweep needs it; harmless otherwise.
std::uint64_t raise_nofile_limit();

class ReusableLoadgen {
 public:
  // `reg` must be the registry of the broker under test; `rctx` its
  // reusable context; `expect` its handshake expectation
  // (scheme/bits/hash/rounds).
  ReusableLoadgen(net::V3PoolRegistry& reg,
                  const net::ReusableServeContext& rctx,
                  const net::ServerExpectation& expect);

  // Prepares identities/pools for this plan and runs the sweep.
  LoadgenResult run(const LoadgenConfig& cfg);

 private:
  struct Identity {
    std::vector<std::uint8_t> blob;  // full client->server byte stream
  };
  void prepare(const LoadgenConfig& cfg);

  net::V3PoolRegistry* reg_;
  const net::ReusableServeContext* rctx_;
  net::ServerExpectation expect_;
  std::vector<Identity> ids_;
};

}  // namespace maxel::evloop
