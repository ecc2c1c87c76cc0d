//===- Crc32c.cpp - CRC-32C checksums --------------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/support/Crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

using namespace aqua;

namespace {

/// Both update functions take and return the CRC register; crc32c()
/// inverts the seed going in and the register coming out.
std::uint32_t updatePortable(std::uint32_t Crc, const unsigned char *P,
                             std::size_t Len) {
  static const auto Table = [] {
    std::array<std::uint32_t, 256> T{};
    for (std::uint32_t I = 0; I < 256; ++I) {
      std::uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0x82F63B78u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  for (std::size_t I = 0; I < Len; ++I)
    Crc = Table[(Crc ^ P[I]) & 0xFF] ^ (Crc >> 8);
  return Crc;
}

#if defined(__x86_64__)
/// Eight bytes per instruction, then the tail a byte at a time. The
/// instruction's polynomial and bit order are CRC-32C's, and x86 loads
/// little-endian, so the result is the table's.
__attribute__((target("sse4.2"))) std::uint32_t
updateHardware(std::uint32_t Crc, const unsigned char *P, std::size_t Len) {
  std::uint64_t C = Crc;
  for (; Len >= 8; P += 8, Len -= 8) {
    std::uint64_t Word;
    std::memcpy(&Word, P, sizeof(Word));
    C = _mm_crc32_u64(C, Word);
  }
  Crc = static_cast<std::uint32_t>(C);
  for (; Len > 0; ++P, --Len)
    Crc = _mm_crc32_u8(Crc, *P);
  return Crc;
}
#endif

} // namespace

bool aqua::crc32cUsesHardware() {
#if defined(__x86_64__)
  static const bool Has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return Has;
#else
  return false;
#endif
}

std::uint32_t aqua::crc32c(const void *Data, std::size_t Len,
                           std::uint32_t Seed) {
  const auto *P = static_cast<const unsigned char *>(Data);
#if defined(__x86_64__)
  if (crc32cUsesHardware())
    return ~updateHardware(~Seed, P, Len);
#endif
  return ~updatePortable(~Seed, P, Len);
}

std::uint32_t aqua::crc32cPortable(const void *Data, std::size_t Len,
                                   std::uint32_t Seed) {
  return ~updatePortable(~Seed, static_cast<const unsigned char *>(Data), Len);
}
