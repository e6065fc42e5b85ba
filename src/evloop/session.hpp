// The server-side session core: one EvSession per accepted connection
// runs the handshake and whichever of the four session modes the hello
// asks for (precomputed, stream, v3, reusable). It is the only server
// implementation of those modes, and EvBroker is its only front.
//
// The machine is a set of parked states, each with a known byte need,
// whose protocol steps run on the session's own BufferedChannel: bytes
// arrive via on_bytes(), the machine advances only while available()
// covers the next step's need, and the owning connection drains the
// staged output with writev.
//
// Pool-gate discipline (v3/reusable): one client's setup/extend/claim
// wire phases are serialized across sessions and shards by
// Entry::ev_gate, an atomic test-and-set. On contention a session parks
// and retries off a timer (its shard thread must not block on a sibling
// session). Entry::io_mu is taken only for the brief pointer mutations,
// so V3PoolRegistry::outstanding_claims stays race-free. Every claim
// ends in consume (success) or discard (failure or teardown), and
// labels are single-use: a failed session's claim is burnt, never
// re-served.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "crypto/rng.hpp"
#include "evloop/buffered_channel.hpp"
#include "gc/garble.hpp"
#include "net/demo_inputs.hpp"
#include "net/handshake.hpp"
#include "net/reusable_service.hpp"
#include "net/v3_service.hpp"
#include "ot/base_ot.hpp"
#include "ot/iknp.hpp"
#include "proto/precompute.hpp"
#include "proto/protocol.hpp"

namespace maxel::evloop {

// What one session (or, merged, a whole broker) did on the server side.
// The field names are the `server` block of `maxelctl serve`'s STATS
// line, which tests/net_e2e.sh and tools/bench_compare.py parse.
struct ServerStats {
  std::uint64_t sessions_served = 0;
  std::uint64_t rounds_served = 0;
  std::uint64_t handshakes_rejected = 0;
  std::uint64_t connection_errors = 0;
  std::uint64_t idle_timeouts = 0;  // subset of connection_errors
  std::uint64_t bytes_sent = 0;      // payload bytes, summed over sessions
  std::uint64_t bytes_received = 0;
  std::uint64_t sessions_precomputed = 0;
  std::uint64_t stream_sessions_served = 0;  // subset of sessions_served
  std::uint64_t v3_sessions_served = 0;      // subset of sessions_served
  // Reusable-mode sessions (subset of sessions_served) and how many of
  // them had to ship the artifact view (the rest ran off the client's
  // hash-confirmed cache).
  std::uint64_t reusable_sessions_served = 0;
  std::uint64_t reusable_artifacts_sent = 0;
  std::uint64_t reusable_garbles = 0;  // times a reusable artifact was built
  std::uint64_t v3_fresh_pools = 0;   // v3/reusable sessions that paid a base OT
  std::uint64_t v3_ot_extended = 0;   // correlated-OT indices materialized
  // Most tables resident server-side for any single session: the whole
  // session for precomputed mode, one chunk for stream mode. Merged
  // with max, not sum — it is a high-water mark.
  std::uint64_t peak_resident_tables = 0;
  double handshake_seconds = 0;
  double transfer_seconds = 0;  // garbled tables/frames/artifact + labels push
  double ot_seconds = 0;        // OT/pool setup + per-round label OT
  double first_table_seconds = 0;  // session start -> first tables on the wire
  double total_seconds = 0;     // serve wall time

  // Accumulates another stats block into this one (counters and timers
  // are additive, high-water marks take the max) — how the broker folds
  // per-session stats into one service-wide snapshot.
  void merge(const ServerStats& other);

  [[nodiscard]] std::string to_json() const;
};

// Everything a front shares across its sessions. The registry and the
// reusable context are process-wide (shared across shards);
// take_session / take_v3 source the pre-garbled sessions.
struct EvServeContext {
  const circuit::Circuit* circ = nullptr;
  net::ServerExpectation expect;
  net::V3PoolRegistry* reg = nullptr;
  const net::ReusableServeContext* reusable = nullptr;  // null: mode off
  std::size_t bits = 16;
  std::size_t rounds = 128;
  std::uint64_t demo_seed = 7;
  gc::Scheme scheme = gc::Scheme::kHalfGates;
  std::size_t stream_chunk_rounds = 16;
  std::function<proto::PrecomputedSession()> take_session;
  std::function<proto::PrecomputedSessionV3()> take_v3;
};

// Failure taxonomy: the front maps it onto its error counters.
enum class EvError : std::uint8_t {
  kNone = 0,
  kHandshake,   // typed reject sent (counts handshakes_rejected)
  kTimeout,     // idle deadline (the broker's eviction reports this)
  kPeerClosed,  // EOF mid-session (counts peer_disconnects)
  kNet,         // transport/protocol error
  kOther,       // anything else (logic/corruption)
};

class EvSession {
 public:
  explicit EvSession(const EvServeContext& ctx);
  ~EvSession();
  EvSession(const EvSession&) = delete;
  EvSession& operator=(const EvSession&) = delete;

  // Feeds raw socket bytes and advances as far as they allow. All
  // protocol errors are absorbed into the failed() state.
  void on_bytes(const std::uint8_t* data, std::size_t n);
  // Orderly EOF from the peer. Normal after done(); an error before.
  void on_peer_eof();
  // Retries the pool gate (call from a timer while wants_gate_retry()).
  void on_gate_retry();

  // The session's own channel; the front drains its staged output.
  [[nodiscard]] BufferedChannel& channel() { return ch_; }
  [[nodiscard]] bool done() const { return state_ == St::kDone; }
  [[nodiscard]] bool failed() const { return state_ == St::kFailed; }
  [[nodiscard]] EvError error() const { return err_; }
  [[nodiscard]] const std::string& error_text() const { return err_text_; }
  // True while the session holds buffered input but lost the per-client
  // pool gate to a concurrent session; re-poke via on_gate_retry().
  [[nodiscard]] bool wants_gate_retry() const { return wants_gate_retry_; }

  // The per-session stats block (complete once done(); a failed session
  // carries its handshake time) and the serve wall time.
  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] double session_seconds() const { return session_seconds_; }
  [[nodiscard]] const char* mode_name() const;

 private:
  enum class St : std::uint8_t {
    kHello,
    kOtSetup2,    // IKNP setup step 2 (precomputed/stream)
    kOtSetup4,    // IKNP setup step 4
    kPreOt,       // precomputed: waiting the round's OT phase-2 bytes
    kStrOt,       // stream: waiting the round's OT phase-2 bytes
    kV3Gate,      // v3: client setup buffered, waiting the pool gate
    kReGate,      // reusable: likewise
    kPoolBase2,   // pool base OT step 2 (v3/reusable)
    kPoolBase4,   // pool base OT step 4
    kPoolExtend,  // pool extension columns
    kV3Round,     // v3: waiting a round's derandomization bits
    kReDbits,     // reusable: waiting the whole-session d bits
    kDone,
    kFailed,
  };
  enum class Mode : std::uint8_t { kPre, kStream, kV3, kReusable };

  using Clock = std::chrono::steady_clock;

  template <typename F>
  void guarded(F&& f);
  void advance();
  void step();
  [[nodiscard]] std::size_t current_need() const;
  [[nodiscard]] std::size_t hello_need() const;
  [[nodiscard]] std::size_t ot_need() const;

  void finish_handshake();
  void init_precomputed();
  void init_stream();
  void begin_pre_round();
  void start_stream_chunk();
  void pool_gate_step();   // kV3Gate / kReGate action once the gate is won
  // Resumes or restarts the client's pool; returns the verdict to send.
  proto::V3ServerSetup reconcile_pool(std::uint64_t client_extended);
  void enter_pool_setup();
  void finish_pool_setup();  // claim + ticket (+artifact), releases gate
  void v3_send_round_frame();
  void v3_round_step();
  void re_dbits_step();
  void finalize(Mode done_mode);
  void fail(EvError kind, const std::string& what);
  void release_gate();
  void teardown();
  // OT spans run from the machine parking on an OT reply (or starting
  // an OT setup) until the exchange completes.
  void ot_begin() { t_ot_ = Clock::now(); }
  void ot_end();

  const EvServeContext* ctx_;
  BufferedChannel ch_;
  crypto::SystemRandom rng_;  // declared before members that reference it
  net::DemoInputStream a_inputs_;
  St state_ = St::kHello;
  Mode mode_ = Mode::kPre;

  net::ClientHello hello_{};
  std::optional<net::HelloExtV3> ext_;
  bool v3_ = false;
  bool iknp_ = false;
  std::size_t n_eval_ = 0;
  std::size_t r_ = 0;  // rounds completed in the current mode's flow

  // Precomputed mode.
  std::unique_ptr<proto::GarblerParty> party_;

  // Stream mode: rounds are garbled inline, one chunk at a time, so
  // resident garbled state is one chunk.
  std::unique_ptr<gc::CircuitGarbler> garbler_;
  std::unique_ptr<ot::BaseOtSender> base_ot_;
  std::unique_ptr<ot::IknpSender> iknp_ot_;
  ot::OtSender* ot_ = nullptr;
  std::vector<std::vector<std::pair<crypto::Block, crypto::Block>>>
      chunk_pairs_;
  std::size_t round_in_chunk_ = 0;
  std::size_t next_round_ = 0;  // next round index to garble

  // v3 / reusable (shared pool plumbing).
  proto::PrecomputedSessionV3 v3_session_;
  std::shared_ptr<net::V3PoolRegistry::Entry> entry_;
  std::shared_ptr<ot::CorrelatedPoolSender> pool_;
  crypto::Block cookie_{};
  ot::PoolClaim claim_{};
  bool claim_open_ = false;
  bool gate_held_ = false;
  bool wants_gate_retry_ = false;
  bool fresh_pool_ = false;
  bool artifact_sent_ = false;
  std::uint64_t need_total_ = 0;
  std::uint64_t extend_count_ = 0;
  std::uint64_t claim_start_expected_ = 0;
  std::uint64_t round_idx_ = 0;  // next pool index for v3 rounds

  ServerStats stats_;
  double session_seconds_ = 0;
  EvError err_ = EvError::kNone;
  std::string err_text_;
  Clock::time_point t_accept_ = Clock::now();
  Clock::time_point t_session_{};
  Clock::time_point t_ot_{};
};

}  // namespace maxel::evloop
