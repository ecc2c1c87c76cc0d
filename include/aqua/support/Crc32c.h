//===- aqua/support/Crc32c.h - CRC-32C checksums ----------------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78), the checksum of
/// every record and side-car index the solve store writes (aqua/store).
/// crc32c() uses the SSE4.2 `crc32` instruction when the CPU has it, chosen
/// once per process, and the byte-at-a-time table otherwise; both compute
/// the same value.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_SUPPORT_CRC32C_H
#define AQUA_SUPPORT_CRC32C_H

#include <cstddef>
#include <cstdint>

namespace aqua {

/// The CRC-32C of \p Len bytes at \p Data, continued from \p Seed, the
/// CRC-32C of the bytes before them (0 for none), so that
/// `crc32c(B, crc32c(A)) == crc32c(A + B)`.
std::uint32_t crc32c(const void *Data, std::size_t Len,
                     std::uint32_t Seed = 0);

/// crc32c() computed a byte at a time from a table, on any CPU: the
/// fallback path, and the reference the fast path is tested against.
std::uint32_t crc32cPortable(const void *Data, std::size_t Len,
                             std::uint32_t Seed = 0);

/// Whether crc32c() runs on the `crc32` instruction in this process.
bool crc32cUsesHardware();

} // namespace aqua

#endif // AQUA_SUPPORT_CRC32C_H
