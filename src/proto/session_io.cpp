#include "proto/session_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>

namespace maxel::proto {
namespace {

constexpr char kMagic[8] = {'M', 'X', 'S', 'E', 'S', 'S', '1', '\0'};

// Buffers grow by at most this many elements per step while reading, so
// a hostile count prefix can only make us allocate in proportion to the
// bytes the stream actually delivers.
constexpr std::size_t kGrowChunk = 4096;

[[noreturn]] void bad(const std::string& what) {
  throw SessionFormatError("load_session: " + what);
}

// Validates a count prefix against its cap before anything is reserved.
std::uint64_t checked_count(std::uint64_t n, std::uint64_t cap,
                            const char* what) {
  if (n > cap)
    bad(std::string("implausible ") + what + " count " + std::to_string(n) +
        " (cap " + std::to_string(cap) + ")");
  return n;
}

// The writers take any sink with write(const char*, std::streamsize):
// an std::ostream for save_session, a ChunkSink for serialize_session.
// ChunkSink gathers the many 8- and 16-byte pieces into 64 KiB chunks.
class ChunkSink {
 public:
  explicit ChunkSink(const SessionBytesFn& emit)
      : emit_(emit), buf_(new std::uint8_t[kChunk]) {}
  void write(const char* p, std::streamsize k) {
    const auto n = static_cast<std::size_t>(k);
    if (used_ + n > kChunk) flush();
    if (n > kChunk) {
      emit_(reinterpret_cast<const std::uint8_t*>(p), n);
      return;
    }
    std::memcpy(buf_.get() + used_, p, n);
    used_ += n;
  }
  void flush() {
    if (used_ > 0) emit_(buf_.get(), used_);
    used_ = 0;
  }

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 16;
  const SessionBytesFn& emit_;
  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t used_ = 0;
};

template <class Out>
void put_u64(Out& os, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  os.write(buf, 8);
}

std::uint64_t get_u64(std::istream& is) {
  char buf[8];
  is.read(buf, 8);
  if (!is) bad("truncated stream");
  std::uint64_t v;
  std::memcpy(&v, buf, 8);
  return v;
}

template <class Out>
void put_block(Out& os, const crypto::Block& b) {
  std::uint8_t raw[16];
  b.to_bytes(raw);
  os.write(reinterpret_cast<const char*>(raw), 16);
}

crypto::Block get_block(std::istream& is) {
  std::uint8_t raw[16];
  is.read(reinterpret_cast<char*>(raw), 16);
  if (!is) bad("truncated stream");
  return crypto::Block::from_bytes(raw);
}

template <class Out>
void put_blocks(Out& os, const std::vector<crypto::Block>& v) {
  put_u64(os, v.size());
  for (const auto& b : v) put_block(os, b);
}

std::vector<crypto::Block> get_blocks(std::istream& is) {
  const std::uint64_t n =
      checked_count(get_u64(is), kMaxSessionCount, "block");
  std::vector<crypto::Block> v;
  v.reserve(std::min<std::uint64_t>(n, kGrowChunk));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(get_block(is));
  return v;
}

template <class Out>
void put_bits(Out& os, const std::vector<bool>& bits) {
  put_u64(os, bits.size());
  std::vector<char> packed((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) packed[i / 8] |= static_cast<char>(1 << (i % 8));
  os.write(packed.data(), static_cast<std::streamsize>(packed.size()));
}

std::vector<bool> get_bits(std::istream& is) {
  const std::uint64_t n = checked_count(get_u64(is), kMaxSessionCount, "bit");
  std::vector<bool> bits;
  bits.reserve(std::min<std::uint64_t>(n, kGrowChunk));
  char packed[kGrowChunk];
  std::uint64_t done = 0;
  while (done < n) {
    const std::size_t bytes = static_cast<std::size_t>(
        std::min<std::uint64_t>((n - done + 7) / 8, sizeof(packed)));
    is.read(packed, static_cast<std::streamsize>(bytes));
    if (!is) bad("truncated stream");
    const std::uint64_t chunk_bits = std::min<std::uint64_t>(
        n - done, static_cast<std::uint64_t>(bytes) * 8);
    for (std::uint64_t i = 0; i < chunk_bits; ++i)
      bits.push_back((packed[i / 8] >> (i % 8)) & 1);
    done += chunk_bits;
  }
  return bits;
}

template <class Out>
void write_session(const PrecomputedSession& s, Out& os) {
  os.write(kMagic, sizeof(kMagic));
  const char scheme = static_cast<char>(s.scheme);
  os.write(&scheme, 1);
  put_block(os, s.delta);
  put_u64(os, s.rounds.size());
  const std::size_t rows = gc::rows_per_and(s.scheme);
  for (const auto& r : s.rounds) {
    put_u64(os, r.tables.tables.size());
    for (const auto& t : r.tables.tables)
      for (std::size_t i = 0; i < rows; ++i) put_block(os, t.ct[i]);
    put_blocks(os, r.garbler_labels0);
    put_u64(os, r.evaluator_pairs.size());
    for (const auto& [l0, l1] : r.evaluator_pairs) {
      put_block(os, l0);
      put_block(os, l1);
    }
    put_blocks(os, r.fixed_labels);
    put_bits(os, r.output_map);
  }
  put_blocks(os, s.initial_state_labels);
}

}  // namespace

void save_session(const PrecomputedSession& s, std::ostream& os) {
  write_session(s, os);
  if (!os) throw std::runtime_error("save_session: write failure");
}

PrecomputedSession load_session(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    bad("bad magic");
  PrecomputedSession s;
  char scheme = 0;
  is.read(&scheme, 1);
  if (!is || scheme < 0 || scheme > 2) bad("bad scheme");
  s.scheme = static_cast<gc::Scheme>(scheme);
  s.delta = get_block(is);
  const std::uint64_t n_rounds =
      checked_count(get_u64(is), kMaxSessionRounds, "round");
  const std::size_t rows = gc::rows_per_and(s.scheme);
  s.rounds.reserve(std::min<std::uint64_t>(n_rounds, kGrowChunk));
  for (std::uint64_t rd = 0; rd < n_rounds; ++rd) {
    PrecomputedSession::Round r;
    const std::uint64_t n_tables =
        checked_count(get_u64(is), kMaxSessionCount, "table");
    r.tables.tables.reserve(std::min<std::uint64_t>(n_tables, kGrowChunk));
    for (std::uint64_t t = 0; t < n_tables; ++t) {
      gc::GarbledTable tab;
      for (std::size_t i = 0; i < rows; ++i) tab.ct[i] = get_block(is);
      r.tables.tables.push_back(tab);
    }
    r.garbler_labels0 = get_blocks(is);
    const std::uint64_t n_pairs =
        checked_count(get_u64(is), kMaxSessionCount, "pair");
    r.evaluator_pairs.reserve(std::min<std::uint64_t>(n_pairs, kGrowChunk));
    for (std::uint64_t p = 0; p < n_pairs; ++p) {
      const crypto::Block l0 = get_block(is);
      const crypto::Block l1 = get_block(is);
      r.evaluator_pairs.emplace_back(l0, l1);
    }
    r.fixed_labels = get_blocks(is);
    r.output_map = get_bits(is);
    s.rounds.push_back(std::move(r));
  }
  s.initial_state_labels = get_blocks(is);
  return s;
}

void save_session_file(const PrecomputedSession& s, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_session_file: cannot open " + path);
  save_session(s, os);
}

PrecomputedSession load_session_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_session_file: cannot open " + path);
  return load_session(is);
}

std::vector<std::uint8_t> serialize_session(const PrecomputedSession& s) {
  std::vector<std::uint8_t> bytes;
  serialize_session(s, [&](const std::uint8_t* p, std::size_t n) {
    bytes.insert(bytes.end(), p, p + n);
  });
  return bytes;
}

void serialize_session(const PrecomputedSession& s,
                       const SessionBytesFn& emit) {
  ChunkSink out(emit);
  write_session(s, out);
  out.flush();
}

PrecomputedSession parse_session(const std::uint8_t* data, std::size_t n) {
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(data), n), std::ios::binary);
  return load_session(is);
}

}  // namespace maxel::proto
