// MXREUS1 wire codec: the reusable-circuit artifact (gc/reusable.hpp)
// and the per-session setup records of the `reusable` session mode.
//
// Two artifact framings share one layout, told apart by a secrets flag:
//
//   view (flag 0)  what the evaluator receives and caches —
//     magic "MXREUS1\0" | has_secrets u8 | bit_width u32
//     | fingerprint 32B | n_gates u64 | n_tables u64
//     | n_garbler_inputs u64 | n_evaluator_inputs u64 | n_outputs u64
//     | n_dffs u64 | tables (n_tables nibbles, 2/byte)
//     | dff_init_masked packed | dff_corrections packed
//     | output_flips packed
//
//   full (flag 1)  the spool-persisted server artifact: the view plus
//     the garbler-side secrets —
//     ... | garbler_flips packed | evaluator_flips packed
//
// parse_reusable_view refuses flag-1 blobs (secrets must never reach
// the wire to a client); parse_reusable demands flag 1. Parsing is
// hostile-input safe in the chunk_io mold: every count is validated
// against a hard cap and against the bytes actually present before
// anything is allocated, packed-bit padding must be zero, and trailing
// bytes are rejected. Malformed input surfaces as ReusableFormatError.
//
// The session setup records mirror proto::V3ClientSetup/V3ServerSetup
// with the artifact offer stapled on: the client names the SHA-256 of
// its cached view (HAVE) or all-zeros (NEED); the server replies with
// the authoritative artifact hash and either artifact_bytes == 0 (the
// cache is current) or the size of the view blob it sends after the
// resumption ticket.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "crypto/block.hpp"
#include "gc/reusable.hpp"
#include "proto/channel.hpp"
#include "proto/v3_records.hpp"

namespace maxel::proto {

class ReusableFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Hard caps (hostile-count guards, far above any real circuit).
inline constexpr std::uint64_t kMaxReusableGates = 1u << 24;
inline constexpr std::uint64_t kMaxReusableInputs = 1u << 20;
inline constexpr std::uint64_t kMaxReusableOutputs = 1u << 20;
inline constexpr std::uint64_t kMaxReusableDffs = 1u << 20;
inline constexpr std::uint64_t kMaxReusableArtifactBytes = 1u << 26;
inline constexpr std::uint64_t kMaxReusableClaim = 1u << 20;

std::vector<std::uint8_t> serialize_reusable_view(const gc::ReusableView& v);
std::vector<std::uint8_t> serialize_reusable(const gc::ReusableCircuit& rc);
gc::ReusableView parse_reusable_view(const std::uint8_t* data, std::size_t n);
gc::ReusableCircuit parse_reusable(const std::uint8_t* data, std::size_t n);

// --- Session setup records (fixed size, bounded-reader parsed) ----------

struct ReusableClientSetup {
  std::uint64_t extended = 0;   // OT indices the client has materialized
  std::uint64_t watermark = 0;  // lowest index the client will accept
  bool has_artifact = false;    // true: artifact_sha names a cached view
  std::array<std::uint8_t, 32> artifact_sha{};
};

// The v3 pool verdict (same fields, same wire order) plus the artifact.
struct ReusableServerSetup : V3ServerSetup {
  std::uint64_t artifact_bytes = 0;  // 0: client cache is current
  std::array<std::uint8_t, 32> artifact_sha{};
};

inline constexpr std::size_t kReusableClientSetupWire = 8 + 8 + 1 + 32;
inline constexpr std::size_t kReusableServerSetupWire =
    1 + 8 + 16 + 8 + 8 + 8 + 8 + 32;

std::vector<std::uint8_t> serialize_reusable_client_setup(
    const ReusableClientSetup& s);
ReusableClientSetup parse_reusable_client_setup(const std::uint8_t* data,
                                                std::size_t n);
std::vector<std::uint8_t> serialize_reusable_server_setup(
    const ReusableServerSetup& s);
ReusableServerSetup parse_reusable_server_setup(const std::uint8_t* data,
                                                std::size_t n);

void send_reusable_client_setup(Channel& ch, const ReusableClientSetup& s);
ReusableClientSetup recv_reusable_client_setup(Channel& ch);
void send_reusable_server_setup(Channel& ch, const ReusableServerSetup& s);
ReusableServerSetup recv_reusable_server_setup(Channel& ch);

}  // namespace maxel::proto
