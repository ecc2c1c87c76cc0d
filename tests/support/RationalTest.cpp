//===- RationalTest.cpp - Exact rational arithmetic tests ---------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/support/Rational.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <random>
#include <utility>
#include <vector>

using aqua::Rational;

TEST(Rational, DefaultIsZero) {
  Rational R;
  EXPECT_TRUE(R.isZero());
  EXPECT_EQ(R.numerator(), 0);
  EXPECT_EQ(R.denominator(), 1);
}

TEST(Rational, NormalizesSignAndGcd) {
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(-2, 4), Rational(-1, 2));
  EXPECT_EQ(Rational(2, -4), Rational(-1, 2));
  EXPECT_EQ(Rational(-2, -4), Rational(1, 2));
  EXPECT_EQ(Rational(0, 7), Rational(0));
  EXPECT_GT(Rational(3, -6).denominator(), 0);
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rational(1, 3) + Rational(2, 5), Rational(11, 15));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(11, 15), Rational(22, 45));
  EXPECT_EQ(Rational(1, 2) / Rational(3, 4), Rational(2, 3));
  EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
}

TEST(Rational, PaperFigure5Arithmetic) {
  // The exact Vnorm arithmetic of the paper's worked example.
  Rational L = Rational(1, 3) + Rational(2, 5);
  EXPECT_EQ(L, Rational(11, 15));
  EXPECT_EQ(Rational(2, 3) * L, Rational(22, 45));
  EXPECT_EQ(Rational(1, 3) * L, Rational(11, 45));
  Rational B = Rational(4, 5) * Rational(2, 3) + Rational(2, 3) * L;
  EXPECT_EQ(B, Rational(46, 45));
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(7, 7), Rational(1));
  EXPECT_LT(Rational(-5), Rational(0));
}

TEST(Rational, FloorCeilRound) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(5).floor(), 5);
  EXPECT_EQ(Rational(5).ceil(), 5);
  EXPECT_EQ(Rational(1, 3).roundNearest(), 0);
  EXPECT_EQ(Rational(2, 3).roundNearest(), 1);
  EXPECT_EQ(Rational(1, 2).roundNearest(), 1);  // Half away from zero.
  EXPECT_EQ(Rational(-1, 2).roundNearest(), -1);
  EXPECT_EQ(Rational(-2, 3).roundNearest(), -1);
}

TEST(Rational, Reciprocal) {
  EXPECT_EQ(Rational(3, 4).reciprocal(), Rational(4, 3));
  EXPECT_EQ(Rational(-2).reciprocal(), Rational(-1, 2));
}

TEST(Rational, AbsMinMax) {
  EXPECT_EQ(Rational(-3, 7).abs(), Rational(3, 7));
  EXPECT_EQ(aqua::min(Rational(1, 3), Rational(1, 4)), Rational(1, 4));
  EXPECT_EQ(aqua::max(Rational(1, 3), Rational(1, 4)), Rational(1, 3));
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 2).toDouble(), 0.5);
  EXPECT_NEAR(Rational(11, 15).toDouble(), 0.7333333, 1e-6);
}

TEST(Rational, Str) {
  EXPECT_EQ(Rational(3).str(), "3");
  EXPECT_EQ(Rational(11, 15).str(), "11/15");
  EXPECT_EQ(Rational(-1, 2).str(), "-1/2");
}

TEST(RationalDeath, DivisionByZeroAborts) {
  EXPECT_DEATH({ Rational R(1, 0); (void)R; }, "division by zero");
  EXPECT_DEATH(
      { Rational R = Rational(1) / Rational(0); (void)R; },
      "division by zero");
}

TEST(RationalDeath, OverflowAborts) {
  Rational Big(std::int64_t(1) << 62);
  EXPECT_DEATH({ Rational R = Big * Big; (void)R; }, "overflow");
}

// Differential check of the 64-bit reduction against 128-bit Euclid, the
// reduction every value took before the 64-bit path existed: both must
// produce the same numerator and denominator bit for bit.
namespace {

constexpr std::int64_t I64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t I64Min = std::numeric_limits<std::int64_t>::min();

/// N/D in lowest terms with D > 0 via 128-bit Euclid; nullopt when the
/// reduced value does not fit in 64 bits (Rational aborts on those).
std::optional<std::pair<std::int64_t, std::int64_t>> reduce128(__int128 N,
                                                               __int128 D) {
  if (D < 0) {
    N = -N;
    D = -D;
  }
  if (N == 0)
    return std::pair<std::int64_t, std::int64_t>{0, 1};
  __int128 A = N < 0 ? -N : N, B = D;
  while (B != 0) {
    __int128 T = A % B;
    A = B;
    B = T;
  }
  N /= A;
  D /= A;
  if (N > I64Max || N < I64Min || D > I64Max)
    return std::nullopt;
  return std::pair{static_cast<std::int64_t>(N), static_cast<std::int64_t>(D)};
}

/// Checks Rational(N, D) against reduce128; false when the pair overflows
/// and was skipped.
bool expectSameReduction(std::int64_t N, std::int64_t D) {
  auto Ref = reduce128(N, D);
  if (!Ref)
    return false;
  Rational R(N, D);
  EXPECT_EQ(R.numerator(), Ref->first) << N << "/" << D;
  EXPECT_EQ(R.denominator(), Ref->second) << N << "/" << D;
  return true;
}

} // namespace

TEST(RationalReduction, EdgeValuesMatch128BitEuclid) {
  const std::vector<std::int64_t> Edge = {
      0,          1,          -1,         2,          -2,
      3,          -6,         12,         I64Max,     -I64Max,
      I64Max - 1, I64Min,     I64Min + 1, I64Min / 2, std::int64_t(1) << 62,
      -(std::int64_t(1) << 62), 3037000499, -4611686014132420609};
  int Checked = 0;
  for (std::int64_t N : Edge)
    for (std::int64_t D : Edge)
      if (D != 0)
        Checked += expectSameReduction(N, D);
  // Only INT64_MIN-derived results can overflow; nearly every pair runs.
  EXPECT_GT(Checked, 17 * 17 - 2 * 17);
  // Spot values: an INT64_MIN numerator (128-bit path) and negative
  // denominators (sign moved to the numerator).
  EXPECT_EQ(Rational(I64Min, 2), Rational(I64Min / 2));
  EXPECT_EQ(Rational(I64Min, -2).numerator(), std::int64_t(1) << 62);
  EXPECT_EQ(Rational(2, I64Min), Rational(-1, std::int64_t(1) << 62));
  EXPECT_EQ(Rational(I64Max, -I64Max), Rational(-1));
  EXPECT_EQ(Rational(-I64Max, I64Max - 1).denominator(), I64Max - 1);
}

TEST(RationalReduction, RandomPairsMatch128BitEuclid) {
  std::mt19937_64 Rng(0x5EED'2026);
  auto Small = [&] {
    return static_cast<std::int64_t>(Rng() % 2001) - 1000;
  };
  int Checked = 0;
  for (int Case = 0; Case < 10000; ++Case) {
    std::int64_t N, D;
    switch (Case % 4) {
    case 0: // Full range.
      N = static_cast<std::int64_t>(Rng());
      D = static_cast<std::int64_t>(Rng());
      break;
    case 1: // Small values, as assay ratios are.
      N = Small();
      D = Small();
      break;
    default: { // A shared factor, so the gcd is not 1.
      std::int64_t G = static_cast<std::int64_t>(Rng() % 1000000) + 1;
      std::int64_t Lim = I64Max / G;
      N = static_cast<std::int64_t>(Rng() % static_cast<std::uint64_t>(Lim)) *
          G * (Rng() & 1 ? 1 : -1);
      D = static_cast<std::int64_t>(Rng() % static_cast<std::uint64_t>(Lim)) *
          G * (Rng() & 1 ? 1 : -1);
      break;
    }
    }
    if (D == 0)
      D = 1;
    Checked += expectSameReduction(N, D);
  }
  EXPECT_EQ(Checked, 10000);
}

TEST(RationalReduction, WideIntermediatesMatch128BitEuclid) {
  // Operands built from 40-bit parts give ~80-bit intermediates, which
  // take the 128-bit path, while sharing factors keeps the reduced result
  // inside 64 bits: a/b * (b*x)/(a*y) = x/y and a/b + c/b = (a+c)/b.
  std::mt19937_64 Rng(0xC0FFEE);
  auto Bits = [&](int N) {
    return static_cast<std::int64_t>(Rng() % (std::uint64_t(1) << N)) + 1;
  };
  auto Check = [](const Rational &Got, __int128 N, __int128 D) {
    auto Ref = reduce128(N, D);
    ASSERT_TRUE(Ref.has_value());
    EXPECT_EQ(Got.numerator(), Ref->first);
    EXPECT_EQ(Got.denominator(), Ref->second);
  };
  for (int Case = 0; Case < 2000; ++Case) {
    std::int64_t A = Bits(40), B = Bits(40), C = Bits(40);
    std::int64_t X = Bits(20), Y = Bits(20);
    Rational P(A, B), Q(B * X, A * Y), S(C, B);
    Check(P * Q,
          static_cast<__int128>(P.numerator()) * Q.numerator(),
          static_cast<__int128>(P.denominator()) * Q.denominator());
    Check(P + S,
          static_cast<__int128>(P.numerator()) * S.denominator() +
              static_cast<__int128>(S.numerator()) * P.denominator(),
          static_cast<__int128>(P.denominator()) * S.denominator());
  }
}

// Property sweep: field axioms on a grid of small rationals.
class RationalPropertyTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RationalPropertyTest, FieldProperties) {
  auto [NumA, DenA] = GetParam();
  Rational A(NumA, DenA);
  for (int N = -3; N <= 3; ++N) {
    for (int D = 1; D <= 4; ++D) {
      Rational B(N, D);
      EXPECT_EQ(A + B, B + A);
      EXPECT_EQ(A * B, B * A);
      EXPECT_EQ(A + B - B, A);
      EXPECT_EQ((A + B) * Rational(2), A * Rational(2) + B * Rational(2));
      if (!B.isZero()) {
        EXPECT_EQ(A / B * B, A);
      }
      EXPECT_EQ(A * Rational(0), Rational(0));
      EXPECT_EQ(A + Rational(0), A);
      EXPECT_EQ(A * Rational(1), A);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RationalPropertyTest,
    ::testing::Values(std::pair{0, 1}, std::pair{1, 1}, std::pair{-1, 2},
                      std::pair{7, 3}, std::pair{-9, 4}, std::pair{999, 1000},
                      std::pair{1, 999}));
