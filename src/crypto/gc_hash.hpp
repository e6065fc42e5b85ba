// Fixed-key garbling hash (Bellare, Hoang, Keelveedhi, Rogaway S&P'13),
// the construction adopted by TinyGarble, half gates, and MAXelerator:
//
//   H(X, T) = AES_k(2X ^ T) ^ (2X ^ T)
//
// where 2X is doubling in GF(2^128) and T a unique per-(half-)gate tweak.
// The Davies-Meyer style feed-forward makes the function one-way even
// though the AES key k is public and fixed.
#pragma once

#include <cstddef>

#include "crypto/aes.hpp"
#include "crypto/block.hpp"

namespace maxel::crypto {

class GcHash {
 public:
  GcHash() = default;
  explicit GcHash(const Block& key) : aes_(key) {}

  [[nodiscard]] Block operator()(const Block& x, const Block& tweak) const {
    const Block m = x.gf_double() ^ tweak;
    return aes_.encrypt(m) ^ m;
  }

  // Batched H(x_i, t_i) for n independent inputs. Masks are staged in a
  // stack chunk so all AES calls of a chunk pipeline through the cipher
  // back to back (AES-NI keeps 8 states in flight) instead of issuing
  // one block at a time. `out` may alias `x` or `tweaks` elementwise.
  void hash_batch(const Block* x, const Block* tweaks, Block* out,
                  std::size_t n) const {
    constexpr std::size_t kChunk = 16;
    Block m[kChunk];
    Block e[kChunk];
    while (n > 0) {
      const std::size_t c = n < kChunk ? n : kChunk;
      for (std::size_t i = 0; i < c; ++i) m[i] = x[i].gf_double() ^ tweaks[i];
      aes_.encrypt_batch(m, e, c);
      for (std::size_t i = 0; i < c; ++i) out[i] = e[i] ^ m[i];
      x += c;
      tweaks += c;
      out += c;
      n -= c;
    }
  }

  // Batched variant for callers that already formed the hash inputs
  // m_i = 2x_i ^ t_i themselves: the hot path of half-gates garbling.
  // The gate kernels stage a whole window of tables (2(x ^ delta) =
  // 2x ^ 2delta, so each label is doubled once) and hash it in one call.
  void hash_masked_batch(const Block* m, Block* out, std::size_t n) const {
    aes_.encrypt_batch(m, out, n);
    for (std::size_t i = 0; i < n; ++i) out[i] ^= m[i];
  }

  // Two-input variant used by the classic (4-row) garbled table:
  // H(A, B, T) = AES_k(4A ^ 2B ^ T) ^ (4A ^ 2B ^ T).
  [[nodiscard]] Block operator()(const Block& a, const Block& b,
                                 const Block& tweak) const {
    const Block m = a.gf_double().gf_double() ^ b.gf_double() ^ tweak;
    return aes_.encrypt(m) ^ m;
  }

 private:
  Aes128 aes_;
};

}  // namespace maxel::crypto
