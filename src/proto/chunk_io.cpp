#include "proto/chunk_io.hpp"

#include <algorithm>
#include <cstring>
#include <string>

namespace maxel::proto {
namespace {

constexpr char kMagic[8] = {'M', 'X', 'C', 'H', 'N', 'K', '1', '\0'};

[[noreturn]] void bad(const std::string& what) {
  throw ChunkFormatError("parse_chunk: " + what);
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  const std::size_t off = buf.size();
  buf.resize(off + 8);
  std::memcpy(buf.data() + off, &v, 8);
}

void put_block(std::vector<std::uint8_t>& buf, const crypto::Block& b) {
  const std::size_t off = buf.size();
  buf.resize(off + 16);
  b.to_bytes(buf.data() + off);
}

void put_blocks(std::vector<std::uint8_t>& buf,
                const std::vector<crypto::Block>& v) {
  put_u64(buf, v.size());
  for (const auto& b : v) put_block(buf, b);
}

void put_bits(std::vector<std::uint8_t>& buf, const std::vector<bool>& bits) {
  put_u64(buf, bits.size());
  const std::size_t off = buf.size();
  buf.resize(off + (bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) buf[off + i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
}

// Bounded cursor over the chunk bytes: every take checks the remaining
// length first, so truncation is always a typed error, and a count can
// additionally be validated against the bytes it claims to describe.
struct Reader {
  const std::uint8_t* p;
  std::size_t left;

  void need(std::size_t n, const char* what) {
    if (left < n) bad(std::string("truncated ") + what);
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    left -= 8;
    return v;
  }
  crypto::Block block(const char* what) {
    need(16, what);
    const crypto::Block b = crypto::Block::from_bytes(p);
    p += 16;
    left -= 16;
    return b;
  }
  // Count prefix validated against its cap AND the bytes remaining for
  // `elem_bytes`-sized elements — a lying count can never make the
  // caller reserve more than the stream actually delivers.
  std::uint64_t count(std::uint64_t cap, std::size_t elem_bytes,
                      const char* what) {
    const std::uint64_t n = u64(what);
    if (n > cap)
      bad(std::string("implausible ") + what + " count " + std::to_string(n) +
          " (cap " + std::to_string(cap) + ")");
    if (elem_bytes != 0 && n > left / elem_bytes)
      bad(std::string(what) + " count exceeds remaining bytes");
    return n;
  }
  std::vector<crypto::Block> blocks(const char* what) {
    const std::uint64_t n = count(kMaxChunkCount, 16, what);
    std::vector<crypto::Block> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(block(what));
    return v;
  }
  std::vector<bool> bits(const char* what) {
    const std::uint64_t n = count(kMaxChunkCount, 0, what);
    const std::size_t packed = static_cast<std::size_t>((n + 7) / 8);
    need(packed, what);
    std::vector<bool> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
      v.push_back((p[i / 8] >> (i % 8)) & 1u);
    p += packed;
    left -= packed;
    return v;
  }
};

}  // namespace

std::vector<std::uint8_t> serialize_chunk(const WireChunk& c) {
  std::vector<std::uint8_t> buf;
  std::size_t estimate = 8 + 1 + 16 + 16 * c.initial_state_labels.size();
  for (const auto& r : c.rounds)
    estimate += r.tables.byte_size(c.scheme) +
                16 * (r.garbler_labels.size() + r.fixed_labels.size()) + 64;
  buf.reserve(estimate);

  buf.insert(buf.end(), kMagic, kMagic + sizeof(kMagic));
  buf.push_back(static_cast<std::uint8_t>(c.scheme));
  put_u64(buf, c.first_round);
  put_u64(buf, c.rounds.size());
  for (const auto& r : c.rounds) {
    put_u64(buf, r.tables.tables.size());
    const std::size_t off = buf.size();
    buf.resize(off + r.tables.byte_size(c.scheme));
    gc::tables_to_bytes(r.tables, c.scheme, buf.data() + off);
    put_blocks(buf, r.garbler_labels);
    put_blocks(buf, r.fixed_labels);
    put_bits(buf, r.output_map);
  }
  put_blocks(buf, c.initial_state_labels);
  return buf;
}

WireChunk parse_chunk(const std::uint8_t* data, std::size_t n) {
  Reader rd{data, n};
  rd.need(sizeof(kMagic), "magic");
  if (std::memcmp(rd.p, kMagic, sizeof(kMagic)) != 0) bad("bad magic");
  rd.p += sizeof(kMagic);
  rd.left -= sizeof(kMagic);

  WireChunk c;
  rd.need(1, "scheme");
  const std::uint8_t scheme = *rd.p++;
  --rd.left;
  if (scheme > 2) bad("bad scheme");
  c.scheme = static_cast<gc::Scheme>(scheme);
  const std::size_t rows = gc::rows_per_and(c.scheme);

  c.first_round = rd.u64("first_round");
  const std::uint64_t n_rounds = rd.count(kMaxChunkRounds, 0, "round");
  c.rounds.reserve(n_rounds);
  for (std::uint64_t r = 0; r < n_rounds; ++r) {
    WireChunk::Round round;
    const std::uint64_t n_tables =
        rd.count(kMaxChunkCount, rows * 16, "table");
    const std::size_t table_bytes = static_cast<std::size_t>(n_tables) *
                                    rows * 16;
    rd.need(table_bytes, "tables");
    round.tables = gc::tables_from_bytes(
        rd.p, static_cast<std::size_t>(n_tables), c.scheme);
    rd.p += table_bytes;
    rd.left -= table_bytes;
    round.garbler_labels = rd.blocks("garbler label");
    round.fixed_labels = rd.blocks("fixed label");
    round.output_map = rd.bits("output map bit");
    c.rounds.push_back(std::move(round));
  }
  c.initial_state_labels = rd.blocks("state label");
  if (rd.left != 0) bad("trailing bytes after chunk");
  return c;
}

void send_chunk(Channel& ch, const WireChunk& c) {
  const std::vector<std::uint8_t> bytes = serialize_chunk(c);
  ch.send_u64(bytes.size());
  ch.send_bytes(bytes.data(), bytes.size());
}

WireChunk recv_chunk(Channel& ch) {
  const std::uint64_t len = ch.recv_u64();
  if (len == 0 || len > kMaxChunkWireBytes)
    throw ChunkFormatError("recv_chunk: implausible chunk length " +
                           std::to_string(len));
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(len));
  ch.recv_bytes(buf.data(), buf.size());
  return parse_chunk(buf.data(), buf.size());
}

WireChunk garble_chunk(
    gc::CircuitGarbler& g, const std::vector<std::vector<bool>>& garbler_bits,
    std::vector<std::vector<std::pair<crypto::Block, crypto::Block>>>&
        evaluator_pairs) {
  WireChunk wc;
  wc.scheme = g.scheme();
  wc.first_round = g.rounds_garbled();
  wc.rounds.reserve(garbler_bits.size());
  for (const std::vector<bool>& a_bits : garbler_bits) {
    gc::RoundMaterial rm = g.garble_round_material();
    WireChunk::Round wr;
    wr.tables = std::move(rm.tables);
    wr.garbler_labels.resize(a_bits.size());
    for (std::size_t j = 0; j < a_bits.size(); ++j)
      wr.garbler_labels[j] = a_bits[j] ? rm.garbler_labels0[j] ^ g.delta()
                                       : rm.garbler_labels0[j];
    wr.fixed_labels = std::move(rm.fixed_labels);
    wr.output_map = std::move(rm.output_map);
    wc.rounds.push_back(std::move(wr));
    evaluator_pairs.push_back(std::move(rm.evaluator_pairs));
  }
  // Round-0 state labels exist only once the first round is garbled.
  if (wc.first_round == 0 && !wc.rounds.empty())
    wc.initial_state_labels = g.initial_state_labels();
  return wc;
}

}  // namespace maxel::proto
