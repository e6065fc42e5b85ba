// Protocol-v3 service plumbing shared by the serving front, the
// client, and the loopback benches: the per-client OT-pool registry on
// the garbler side, and the client's pool state and session flow. The
// garbler's pool reconciliation and round flow run in the session core
// (evloop/session.hpp).
//
// Cross-session amortization contract:
//   * The registry keys long-lived CorrelatedPoolSender instances by the
//     client identity from the hello extension. One garbling delta spans
//     the registry, so any spooled v3 session can be served from any
//     pool in it (checked via pool lineage).
//   * A connection is served from the existing pool iff the client
//     presents the ticket issued with it AND its materialized count
//     matches the server's — anything else (first contact, lost state,
//     desync from a death mid-extend) falls back to a fresh pool with a
//     new base OT. Fallback is always safe, never wrong answers.
//   * Claims are handed out under the per-client gate and every claim
//     ends in consume (success) or discard (any failure), so a retried
//     or resumed session can never see an OT index twice.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "gc/reusable.hpp"
#include "gc/v3.hpp"
#include "net/handshake.hpp"
#include "ot/pool.hpp"
#include "proto/channel.hpp"
#include "proto/v3_session.hpp"

namespace maxel::net {

// Garbler-side registry of per-client correlated-OT pools. Thread-safe:
// event-loop shards serve concurrent sessions of the same client
// against one entry (wire phases serialized by the entry's
// gate, pad reads lock-free per the pool's own contract).
class V3PoolRegistry {
 public:
  explicit V3PoolRegistry(const crypto::Block& seed);

  struct Entry {
    // Guards only the pointer fields below (pool, cookie) against
    // concurrent registry snapshots; never held across wire I/O.
    std::mutex io_mu;
    std::shared_ptr<ot::CorrelatedPoolSender> pool;  // null before base OT
    crypto::Block cookie{};
    // Serializes one client's setup/extend/claim wire phases across
    // shards: a test-and-set held from the client setup to the ticket.
    // A session that loses it retries off a timer (its shard must not
    // block on a sibling session).
    std::atomic<bool> ev_gate{false};
  };

  // Entry for a client identity, created on first sight.
  std::shared_ptr<Entry> entry_for(const crypto::Block& client_id);

  [[nodiscard]] const crypto::Block& delta() const { return delta_; }
  [[nodiscard]] std::uint64_t lineage() const { return lineage_; }
  crypto::Block next_block();
  std::uint64_t next_pool_id();
  [[nodiscard]] std::size_t clients() const;

  // Claims currently outstanding across every pool — the "no stuck
  // claims" invariant: once no session is in flight, this must be 0
  // (every claim ended in consume or discard, even under chaos).
  [[nodiscard]] std::uint64_t outstanding_claims() const;

 private:
  crypto::Block delta_;
  std::uint64_t lineage_ = 0;
  mutable std::mutex mu_;
  crypto::SystemRandom rng_;
  std::uint64_t next_pool_id_ = 1;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::shared_ptr<Entry>>
      entries_;
};

// Client-side identity + pool state. Outlives connections, retries, and
// run_client calls: share one instance across sessions to amortize the
// base OT down to (almost always) zero setup per session.
struct V3ClientState {
  crypto::Block client_id{};
  ot::CorrelatedPoolReceiver pool;
  std::optional<proto::ResumptionTicket> ticket;
  // Consecutive v3 handshakes that died to a bare peer close (no typed
  // verdict). One is ambiguous — a transient fault, or a v2-only server
  // whose version-mismatch reject was destroyed by its own TCP reset
  // (it closes with the v3 extension frame unread). Two in a row reads
  // as deterministic, and the client falls back to a v2 hello. Reset by
  // any handshake that reaches a verdict.
  int handshake_close_streak = 0;
  // Reusable-mode artifact cache: the view received (and SHA-verified)
  // on a previous reusable session. Offered back by hash in the setup
  // record so repeat sessions skip the artifact transfer entirely.
  std::optional<gc::ReusableView> reusable_view;
  std::array<std::uint8_t, 32> reusable_sha{};
};

std::shared_ptr<V3ClientState> make_v3_client_state(crypto::RandomSource& rng);

struct V3EvalOutcome {
  std::vector<bool> decoded;     // final-round outputs
  bool fresh_pool = false;
  std::uint64_t setup_bytes = 0; // wire bytes before the first round frame
};

// The client's half of the pool setup that v3 and reusable sessions
// share, the counterpart of the session core's reconcile_pool. Follows
// the server's verdict `ss` (a fresh pool restarts with base OT, a short
// one is extended), then receives the resumption ticket and checks it,
// and the claim, against this client and a session of `need` OTs.
// Returns the ticket; the caller commits it with the claim
// (mark_consumed, then st.ticket).
proto::ResumptionTicket setup_client_pool(proto::Channel& ch,
                                          V3ClientState& st,
                                          crypto::RandomSource& rng,
                                          const proto::V3ServerSetup& ss,
                                          std::uint64_t need);

// Client half of a v3 session, run after client_handshake_v3 was
// accepted. evaluator_bits[r] holds round r's true input bits.
V3EvalOutcome eval_v3_session(
    proto::Channel& ch, const circuit::Circuit& circ,
    const gc::V3Analysis& an,
    const std::vector<std::vector<bool>>& evaluator_bits, V3ClientState& st,
    crypto::RandomSource& rng);

}  // namespace maxel::net
