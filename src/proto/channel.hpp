// Duplex byte channels with exact traffic accounting.
//
// Protocol objects (OT, GC transfer) are written in explicit phases and
// driven by a single-threaded orchestrator, so the in-memory channel is a
// simple pair of byte queues: send() appends, recv() pops and throws if
// the orchestration order is wrong (a cheap deadlock detector).
//
// Byte counters feed the communication columns of the evaluation: garbled
// table traffic is protocol-determined, so counting bytes here is exact
// regardless of the physical link (the paper's PCIe + network).
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "crypto/block.hpp"

namespace maxel::proto {

using crypto::Block;

// A count prefix that disagrees with the count its reader expects: a
// corrupted or hostile record, caught before anything is allocated.
class CountMismatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Channel {
 public:
  virtual ~Channel() = default;

  // Pushes any buffered sends to the peer. In-memory channels deliver
  // immediately and keep the no-op default; a socket channel overrides
  // this to cut a frame. Protocol drivers call it at message boundaries
  // where the peer is about to act on what was sent.
  virtual void flush() {}

  void send_bytes(const std::uint8_t* data, std::size_t n) {
    raw_send(data, n);
    bytes_sent_ += n;
  }
  void recv_bytes(std::uint8_t* data, std::size_t n) {
    raw_recv(data, n);
    bytes_received_ += n;
  }

  void send_block(const Block& b) {
    std::uint8_t buf[16];
    b.to_bytes(buf);
    send_bytes(buf, 16);
  }
  Block recv_block() {
    std::uint8_t buf[16];
    recv_bytes(buf, 16);
    return Block::from_bytes(buf);
  }

  // Blocks travel count-prefixed and back-to-back through one contiguous
  // buffer and a single raw_send/raw_recv: over an in-memory queue this
  // is a free win, over a socket it is the difference between one
  // syscall and one per 16 bytes. The byte stream is identical to the
  // per-block encoding (u64 count, then 16 bytes per block).
  //
  // The receivers take the count the caller expects and throw
  // CountMismatchError on any other prefix before allocating: a peer's
  // count is never trusted to size a buffer.
  void send_blocks(const std::vector<Block>& v) {
    std::vector<std::uint8_t> buf(8 + 16 * v.size());
    const std::uint64_t n = v.size();
    std::memcpy(buf.data(), &n, 8);
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i].to_bytes(buf.data() + 8 + 16 * i);
    send_bytes(buf.data(), buf.size());
  }
  std::vector<Block> recv_blocks(std::uint64_t expect,
                                 const char* what = "block") {
    const std::uint64_t n = recv_count(expect, what);
    std::vector<Block> v(n);
    if (n != 0) {
      std::vector<std::uint8_t> buf(16 * n);
      recv_bytes(buf.data(), buf.size());
      for (std::size_t i = 0; i < n; ++i)
        v[i] = Block::from_bytes(buf.data() + 16 * i);
    }
    return v;
  }

  void send_u64(std::uint64_t v) {
    std::uint8_t buf[8];
    std::memcpy(buf, &v, 8);
    send_bytes(buf, 8);
  }
  std::uint64_t recv_u64() {
    std::uint8_t buf[8];
    recv_bytes(buf, 8);
    std::uint64_t v;
    std::memcpy(&v, buf, 8);
    return v;
  }

  void send_bits(const std::vector<bool>& bits) {
    std::vector<std::uint8_t> buf(8 + (bits.size() + 7) / 8, 0);
    const std::uint64_t n = bits.size();
    std::memcpy(buf.data(), &n, 8);
    for (std::size_t i = 0; i < bits.size(); ++i)
      if (bits[i]) buf[8 + i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    send_bytes(buf.data(), buf.size());
  }
  std::vector<bool> recv_bits(std::uint64_t expect, const char* what = "bit") {
    const std::uint64_t n = recv_count(expect, what);
    std::vector<std::uint8_t> packed((n + 7) / 8);
    if (!packed.empty()) recv_bytes(packed.data(), packed.size());
    std::vector<bool> bits(n);
    for (std::size_t i = 0; i < n; ++i)
      bits[i] = (packed[i / 8] >> (i % 8)) & 1u;
    return bits;
  }

  // Reads a u64 count prefix and checks it against `expect`.
  std::uint64_t recv_count(std::uint64_t expect, const char* what) {
    const std::uint64_t n = recv_u64();
    if (n != expect)
      throw CountMismatchError(std::string(what) + " count " +
                               std::to_string(n) + ", expected " +
                               std::to_string(expect));
    return n;
  }

  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }
  void reset_counters() { bytes_sent_ = bytes_received_ = 0; }

 protected:
  virtual void raw_send(const std::uint8_t* data, std::size_t n) = 0;
  virtual void raw_recv(std::uint8_t* data, std::size_t n) = 0;

 private:
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

// In-memory duplex channel pair.
class MemoryChannel final : public Channel {
 public:
  // Returns the two endpoints of a fresh duplex link.
  static std::pair<std::unique_ptr<MemoryChannel>,
                   std::unique_ptr<MemoryChannel>>
  create_pair() {
    auto q_ab = std::make_shared<std::deque<std::uint8_t>>();
    auto q_ba = std::make_shared<std::deque<std::uint8_t>>();
    auto a = std::unique_ptr<MemoryChannel>(new MemoryChannel(q_ab, q_ba));
    auto b = std::unique_ptr<MemoryChannel>(new MemoryChannel(q_ba, q_ab));
    return {std::move(a), std::move(b)};
  }

 protected:
  void raw_send(const std::uint8_t* data, std::size_t n) override {
    out_->insert(out_->end(), data, data + n);
  }
  void raw_recv(std::uint8_t* data, std::size_t n) override {
    if (in_->size() < n)
      throw std::runtime_error(
          "MemoryChannel: recv before matching send (phase-order bug)");
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = in_->front();
      in_->pop_front();
    }
  }

 private:
  MemoryChannel(std::shared_ptr<std::deque<std::uint8_t>> out,
                std::shared_ptr<std::deque<std::uint8_t>> in)
      : out_(std::move(out)), in_(std::move(in)) {}

  std::shared_ptr<std::deque<std::uint8_t>> out_;
  std::shared_ptr<std::deque<std::uint8_t>> in_;
};

}  // namespace maxel::proto
