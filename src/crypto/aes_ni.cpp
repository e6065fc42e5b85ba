// AES-NI backend for Aes128 (see aes.hpp for the dispatch contract).
//
// Compiled with -maes -msse4.1 when CMake's compile probe succeeds
// (MAXEL_HAVE_AESNI=1); otherwise only the portable stubs below are
// built so the library links everywhere. Availability is still gated at
// runtime by CPUID — a binary built with the probe on runs fine on a CPU
// without AES-NI, it just takes the table path.
//
// The batch loop keeps 8 independent AES states in flight. AESENC has a
// ~4-cycle latency but single-cycle throughput on every core that ships
// the instruction, so 8 interleaved streams fully hide the latency —
// this is the software analogue of the paper's "one garbled table per GC
// core per clock": the cipher pipeline never starves as long as the
// caller hands us independent blocks. The half-gates kernels
// (GateGarbler::garble_n/eval_n) do: they hash a whole window of
// independent ANDs per call — up to 64 blocks garbled, 32 evaluated —
// so the 8-wide ladder runs full instead of once per 4-block table.
#include "crypto/aes.hpp"

#if defined(MAXEL_HAVE_AESNI)
#include <wmmintrin.h>  // AESENC/AESENCLAST
#endif

namespace maxel::crypto::detail {

#if defined(MAXEL_HAVE_AESNI)

bool aesni_compiled_and_supported() {
#if defined(__GNUC__) || defined(__clang__)
  static const bool ok = __builtin_cpu_supports("aes") != 0;
  return ok;
#else
  return false;
#endif
}

namespace {

// One full AES-128 encryption of W interleaved states. W is a compile
// time constant so the round loop unrolls into W independent AESENC
// chains per round.
template <int W>
inline void encrypt_w(const __m128i rk[11], const Block* in, Block* out) {
  __m128i s[W];
  for (int i = 0; i < W; ++i) {
    s[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    s[i] = _mm_xor_si128(s[i], rk[0]);
  }
  for (int r = 1; r < 10; ++r)
    for (int i = 0; i < W; ++i) s[i] = _mm_aesenc_si128(s[i], rk[r]);
  for (int i = 0; i < W; ++i) {
    s[i] = _mm_aesenclast_si128(s[i], rk[10]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), s[i]);
  }
}

}  // namespace

void aesni_encrypt_blocks(const std::uint8_t rk_bytes[176], const Block* in,
                          Block* out, std::size_t n) {
  __m128i rk[11];
  for (int i = 0; i < 11; ++i)
    rk[i] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(rk_bytes + 16 * i));

  while (n >= 8) {
    encrypt_w<8>(rk, in, out);
    in += 8;
    out += 8;
    n -= 8;
  }
  if (n >= 4) {
    encrypt_w<4>(rk, in, out);
    in += 4;
    out += 4;
    n -= 4;
  }
  if (n >= 2) {
    encrypt_w<2>(rk, in, out);
    in += 2;
    out += 2;
    n -= 2;
  }
  if (n == 1) encrypt_w<1>(rk, in, out);
}

#else  // !MAXEL_HAVE_AESNI — portable stubs; dispatch never calls these.

bool aesni_compiled_and_supported() { return false; }

void aesni_encrypt_blocks(const std::uint8_t[176], const Block*, Block*,
                          std::size_t) {}

#endif

}  // namespace maxel::crypto::detail
