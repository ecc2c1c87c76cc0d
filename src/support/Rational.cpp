//===- Rational.cpp - Exact rational arithmetic ---------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/support/Rational.h"

#include "aqua/support/Fatal.h"

#include <limits>
#include <numeric>

using namespace aqua;

static __int128 gcd128(__int128 A, __int128 B) {
  if (A < 0)
    A = -A;
  if (B < 0)
    B = -B;
  while (B != 0) {
    __int128 T = A % B;
    A = B;
    B = T;
  }
  return A;
}

Rational Rational::makeReduced(__int128 N, __int128 D) {
  if (D == 0)
    reportFatalError("Rational: division by zero");
  if (D < 0) {
    N = -N;
    D = -D;
  }
  if (N == 0)
    return Rational();
  constexpr __int128 Max = std::numeric_limits<std::int64_t>::max();
  constexpr __int128 Min = std::numeric_limits<std::int64_t>::min();
  // |N| and D both fit in 64 bits (the common case: any constructor call
  // without INT64_MIN, and sums and products of small fractions): reduce
  // with 64-bit division, which the hardware does directly, instead of
  // the libgcc 128-bit routine. Both paths give the same reduced pair.
  if (N >= -Max && N <= Max && D <= Max) {
    std::int64_t N64 = static_cast<std::int64_t>(N);
    std::uint64_t Mag = static_cast<std::uint64_t>(N64 < 0 ? -N64 : N64);
    std::uint64_t G64 = std::gcd(Mag, static_cast<std::uint64_t>(D));
    Rational R;
    R.Num = N64 / static_cast<std::int64_t>(G64);
    R.Den = static_cast<std::int64_t>(static_cast<std::uint64_t>(D) / G64);
    return R;
  }
  __int128 G = gcd128(N, D);
  N /= G;
  D /= G;
  if (N > Max || N < Min || D > Max)
    reportFatalError("Rational: 64-bit overflow after reduction");
  Rational R;
  R.Num = static_cast<std::int64_t>(N);
  R.Den = static_cast<std::int64_t>(D);
  return R;
}

Rational::Rational(std::int64_t N, std::int64_t D) {
  *this = makeReduced(N, D);
}

Rational Rational::reciprocal() const {
  assert(Num != 0 && "reciprocal of zero");
  return makeReduced(Den, Num);
}

std::int64_t Rational::floor() const {
  std::int64_t Q = Num / Den;
  if (Num % Den != 0 && Num < 0)
    --Q;
  return Q;
}

std::int64_t Rational::ceil() const {
  std::int64_t Q = Num / Den;
  if (Num % Den != 0 && Num > 0)
    ++Q;
  return Q;
}

std::int64_t Rational::roundNearest() const {
  // Scale by two and round toward +-infinity at exact halves.
  __int128 Twice = static_cast<__int128>(Num) * 2;
  __int128 Q = Twice / Den;
  std::int64_t Result = static_cast<std::int64_t>(
      Q >= 0 ? (Q + 1) / 2 : (Q - 1) / 2);
  return Result;
}

std::string Rational::str() const {
  if (Den == 1)
    return std::to_string(Num);
  return std::to_string(Num) + "/" + std::to_string(Den);
}

namespace aqua {

Rational operator+(const Rational &A, const Rational &B) {
  __int128 N = static_cast<__int128>(A.Num) * B.Den +
               static_cast<__int128>(B.Num) * A.Den;
  __int128 D = static_cast<__int128>(A.Den) * B.Den;
  return Rational::makeReduced(N, D);
}

Rational operator-(const Rational &A, const Rational &B) {
  __int128 N = static_cast<__int128>(A.Num) * B.Den -
               static_cast<__int128>(B.Num) * A.Den;
  __int128 D = static_cast<__int128>(A.Den) * B.Den;
  return Rational::makeReduced(N, D);
}

Rational operator*(const Rational &A, const Rational &B) {
  __int128 N = static_cast<__int128>(A.Num) * B.Num;
  __int128 D = static_cast<__int128>(A.Den) * B.Den;
  return Rational::makeReduced(N, D);
}

Rational operator/(const Rational &A, const Rational &B) {
  if (B.Num == 0)
    reportFatalError("Rational: division by zero");
  __int128 N = static_cast<__int128>(A.Num) * B.Den;
  __int128 D = static_cast<__int128>(A.Den) * B.Num;
  return Rational::makeReduced(N, D);
}

std::strong_ordering operator<=>(const Rational &A, const Rational &B) {
  __int128 L = static_cast<__int128>(A.Num) * B.Den;
  __int128 R = static_cast<__int128>(B.Num) * A.Den;
  if (L < R)
    return std::strong_ordering::less;
  if (L > R)
    return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

} // namespace aqua
