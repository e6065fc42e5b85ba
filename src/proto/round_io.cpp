#include "proto/round_io.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>

namespace maxel::proto {

WireRound select_round(gc::RoundMaterial& m, const crypto::Block& delta,
                       const std::vector<bool>& garbler_bits) {
  if (garbler_bits.size() != m.garbler_labels0.size())
    throw std::invalid_argument("select_round: input arity mismatch");
  WireRound r;
  r.tables = std::move(m.tables);
  r.garbler_labels.resize(garbler_bits.size());
  for (std::size_t i = 0; i < garbler_bits.size(); ++i)
    r.garbler_labels[i] = garbler_bits[i] ? m.garbler_labels0[i] ^ delta
                                          : m.garbler_labels0[i];
  r.fixed_labels = std::move(m.fixed_labels);
  r.output_map = std::move(m.output_map);
  return r;
}

void send_round(Channel& ch, gc::Scheme scheme, const WireRound& r,
                const std::vector<crypto::Block>* state_labels) {
  // The tables (the payload MAXelerator streams over PCIe) go as one
  // contiguous buffer — a single syscall on socket transports.
  ch.send_u64(r.tables.tables.size());
  std::vector<std::uint8_t> buf(r.tables.byte_size(scheme));
  gc::tables_to_bytes(r.tables, scheme, buf.data());
  ch.send_bytes(buf.data(), buf.size());
  ch.send_blocks(r.garbler_labels);
  ch.send_blocks(r.fixed_labels);
  if (state_labels) ch.send_blocks(*state_labels);
  ch.send_bits(r.output_map);
}

WireRound recv_round(Channel& ch, const circuit::Circuit& c,
                     gc::Scheme scheme,
                     std::vector<crypto::Block>* state_labels) {
  WireRound r;
  const std::uint64_t n_tables = ch.recv_count(c.and_count(), "round table");
  std::vector<std::uint8_t> buf(n_tables * gc::bytes_per_and(scheme));
  ch.recv_bytes(buf.data(), buf.size());
  r.tables = gc::tables_from_bytes(buf.data(), n_tables, scheme);
  r.garbler_labels =
      ch.recv_blocks(c.garbler_inputs.size(), "round garbler label");
  r.fixed_labels = ch.recv_blocks(2, "round fixed label");
  if (state_labels)
    *state_labels = ch.recv_blocks(c.dffs.size(), "round state label");
  r.output_map = ch.recv_bits(c.outputs.size(), "round output map bit");
  return r;
}

}  // namespace maxel::proto
