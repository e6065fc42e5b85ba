#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MAXEL_SHA256_SHANI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace maxel::crypto {
namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress(std::uint32_t state[8], const std::uint8_t* p, std::size_t n) {
  static const bool shani = detail::sha256_shani_supported();
  if (shani)
    detail::sha256_compress_shani(state, p, n);
  else
    detail::sha256_compress_portable(state, p, n);
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* p,
                              std::size_t n) {
  for (; n > 0; --n, p += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(p[4 * i]) << 24) |
             (static_cast<std::uint32_t>(p[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(p[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 =
          h + s1 + ch + kK[static_cast<std::size_t>(i)] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(MAXEL_SHA256_SHANI)

bool sha256_shani_supported() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & bit_SHA) != 0;
}

// SHA256RNDS2 runs two rounds on a state split as ABEF/CDGH, taking the
// two round inputs W+K from the low half of its third operand; the
// message schedule for 4 rounds at a time comes from SHA256MSG1/MSG2.
__attribute__((target("sha,sse4.1,ssse3"))) void sha256_compress_shani(
    std::uint32_t state[8], const std::uint8_t* p, std::size_t n) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);              // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);      // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);           // CDGH

  for (; n > 0; --n, p += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i m[4];  // m[g % 4] holds W[4g .. 4g+3]
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& w = m[g % 4];
      if (g < 4) {
        w = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * g)),
            bswap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16]
        const __m128i t7 = _mm_alignr_epi8(m[(g + 3) % 4], m[(g + 2) % 4], 4);
        w = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w, m[(g + 1) % 4]), t7),
            m[(g + 3) % 4]);
      }
      const __m128i wk = _mm_add_epi32(
          w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK.data() + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);               // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);              // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);           // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);              // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

#else

bool sha256_shani_supported() { return false; }

void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* p,
                           std::size_t n) {
  sha256_compress_portable(state, p, n);
}

#endif

}  // namespace detail

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  bit_len_ = 0;
  buf_len_ = 0;
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  bit_len_ += static_cast<std::uint64_t>(len) * 8;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(len, buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data, take);
    buf_len_ += take;
    data += take;
    len -= take;
    if (buf_len_ < buf_.size()) return;
    compress(state_.data(), buf_.data(), 1);
    buf_len_ = 0;
  }
  // Whole blocks go straight from the caller's buffer, in one call.
  const std::size_t blocks = len / buf_.size();
  if (blocks > 0) {
    compress(state_.data(), data, blocks);
    data += blocks * buf_.size();
    len -= blocks * buf_.size();
  }
  if (len > 0) std::memcpy(buf_.data(), data, len);
  buf_len_ = len;
}

std::array<std::uint8_t, 32> Sha256::digest() {
  const std::uint64_t total_bits = bit_len_;
  const std::uint8_t pad1 = 0x80;
  update(&pad1, 1);
  const std::uint8_t zero = 0;
  while (buf_len_ != 56) update(&zero, 1);
  std::uint8_t lenb[8];
  for (int i = 0; i < 8; ++i)
    lenb[i] = static_cast<std::uint8_t>(total_bits >> (56 - 8 * i));
  update(lenb, 8);

  std::array<std::uint8_t, 32> out{};
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(4 * i)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
  }
  return out;
}

std::string Sha256::hex(const std::array<std::uint8_t, 32>& d) {
  std::string s(64, '0');
  for (std::size_t i = 0; i < 32; ++i)
    std::snprintf(s.data() + 2 * i, 3, "%02x", d[i]);
  return s;
}

}  // namespace maxel::crypto
