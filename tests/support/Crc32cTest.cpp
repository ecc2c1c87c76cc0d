//===- Crc32cTest.cpp - CRC-32C vectors and path agreement ----------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The store's checksums must not change when the implementation does: the
// published CRC-32C vectors pin the value, and the instruction path must
// agree with the table path on every length and alignment.
//
//===----------------------------------------------------------------------===//

#include "aqua/support/Crc32c.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <string>

using namespace aqua;

namespace {

std::array<unsigned char, 32> filled(unsigned char Byte) {
  std::array<unsigned char, 32> A;
  A.fill(Byte);
  return A;
}

} // namespace

TEST(Crc32c, MatchesTheRfc3720Vectors) {
  // RFC 3720 appendix B.4, with the CRC read as a little-endian word.
  std::array<unsigned char, 32> Up, Down;
  std::iota(Up.begin(), Up.end(), 0);
  for (std::size_t I = 0; I < Down.size(); ++I)
    Down[I] = static_cast<unsigned char>(31 - I);
  for (auto Crc : {crc32c, crc32cPortable}) {
    EXPECT_EQ(Crc(filled(0x00).data(), 32, 0), 0x8A9136AAu);
    EXPECT_EQ(Crc(filled(0xFF).data(), 32, 0), 0x62A8AB43u);
    EXPECT_EQ(Crc(Up.data(), Up.size(), 0), 0x46DD794Eu);
    EXPECT_EQ(Crc(Down.data(), Down.size(), 0), 0x113FDB5Cu);
    EXPECT_EQ(Crc("123456789", 9, 0), 0xE3069283u) << "the check value";
    EXPECT_EQ(Crc("", 0, 0), 0u);
  }
}

TEST(Crc32c, HardwareAndPortablePathsAgree) {
  if (!crc32cUsesHardware())
    GTEST_SKIP() << "this CPU has no crc32 instruction; crc32c() is the "
                    "portable path";
  std::string Buf(300 + 8, '\0');
  std::uint32_t X = 0x9E3779B9u;
  for (char &C : Buf) {
    X = X * 1664525u + 1013904223u;
    C = static_cast<char>(X >> 24);
  }
  for (std::size_t Offset = 0; Offset < 8; ++Offset)
    for (std::size_t Len = 0; Len <= 300; ++Len) {
      const char *P = Buf.data() + Offset;
      ASSERT_EQ(crc32c(P, Len), crc32cPortable(P, Len))
          << "offset " << Offset << ", length " << Len;
      ASSERT_EQ(crc32c(P, Len, 0xDEADBEEFu),
                crc32cPortable(P, Len, 0xDEADBEEFu))
          << "seeded, offset " << Offset << ", length " << Len;
    }
}

TEST(Crc32c, ChainedCallsEqualOneCallOverTheWhole) {
  // The store checksums a record's header and payload in two calls.
  std::string Whole = "AQUAVOL record header|and the payload that follows";
  for (std::size_t Cut = 0; Cut <= Whole.size(); ++Cut)
    for (auto Crc : {crc32c, crc32cPortable})
      EXPECT_EQ(Crc(Whole.data() + Cut, Whole.size() - Cut,
                    Crc(Whole.data(), Cut, 0)),
                Crc(Whole.data(), Whole.size(), 0))
          << "cut at " << Cut;
}
