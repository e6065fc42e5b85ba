// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used as the key-derivation / random-oracle hash inside the base OT
// (Chou-Orlandi style), to checksum spooled sessions, and to fingerprint
// garbled-table streams in tests. The compression function runs on the
// x86 SHA extensions when the CPU has them (runtime CPUID dispatch) and
// on the portable code otherwise; both produce the same digests.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

namespace maxel::crypto {

class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(const std::uint8_t* data, std::size_t len);
  void update(const std::string& s) {
    update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  // Finalizes and returns the 32-byte digest. The object must be reset()
  // before reuse.
  std::array<std::uint8_t, 32> digest();

  static std::array<std::uint8_t, 32> hash(const std::uint8_t* data,
                                           std::size_t len) {
    Sha256 h;
    h.update(data, len);
    return h.digest();
  }

  static std::string hex(const std::array<std::uint8_t, 32>& d);

 private:
  std::array<std::uint32_t, 8> state_{};
  std::uint64_t bit_len_ = 0;
  std::array<std::uint8_t, 64> buf_{};
  std::size_t buf_len_ = 0;
};

namespace detail {

// The SHA-256 compression function over `n` consecutive 64-byte blocks,
// updating `state` in place. The SHA-NI variant may only be called when
// sha256_shani_supported(); Sha256 picks between them by itself.
void sha256_compress_portable(std::uint32_t state[8], const std::uint8_t* p,
                              std::size_t n);
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* p,
                           std::size_t n);
[[nodiscard]] bool sha256_shani_supported();

}  // namespace detail

}  // namespace maxel::crypto
