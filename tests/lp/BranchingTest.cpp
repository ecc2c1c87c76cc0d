//===- BranchingTest.cpp - Branching-layer unit tests --------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The pure-logic branching pieces: branch-candidate selection, most
// fractional first.
//
//===----------------------------------------------------------------------===//

#include "aqua/lp/Branching.h"

#include <gtest/gtest.h>

using namespace aqua;
using namespace aqua::lp;

namespace {

/// The candidate variables of fractionalCandidates, in order.
std::vector<int> candidateVars(const std::vector<double> &Values,
                               const std::vector<bool> &IsInteger,
                               double Tol) {
  std::vector<int> Vars;
  for (const BranchCandidate &C : fractionalCandidates(Values, IsInteger, Tol))
    Vars.push_back(C.Var);
  return Vars;
}

} // namespace

TEST(FractionalCandidates, AllIntegralIsEmpty) {
  std::vector<double> Values = {1.0, 2.0, -3.0, 0.0};
  std::vector<bool> IsInteger = {true, true, true, true};
  EXPECT_TRUE(fractionalCandidates(Values, IsInteger, 1e-6).empty());
}

TEST(FractionalCandidates, NearIntegralWithinTolIsEmpty) {
  // Each value is within Tol of an integer, on both sides.
  std::vector<double> Values = {2.0 + 5e-7, 3.0 - 5e-7};
  std::vector<bool> IsInteger = {true, true};
  EXPECT_TRUE(fractionalCandidates(Values, IsInteger, 1e-6).empty());
}

TEST(FractionalCandidates, MostFractionalComesFirst) {
  std::vector<double> Values = {1.1, 2.5, 3.9};
  std::vector<bool> IsInteger = {true, true, true};
  std::vector<BranchCandidate> C =
      fractionalCandidates(Values, IsInteger, 1e-6);
  ASSERT_EQ(C.size(), 3u);
  EXPECT_EQ(C[0].Var, 1);
  EXPECT_DOUBLE_EQ(C[0].Frac, 0.5);
}

TEST(FractionalCandidates, TiesBreakTowardLowestIndex) {
  // 1.5 and 7.5 are equally fractional; the first must lead.
  std::vector<double> Values = {2.0, 1.5, 7.5};
  std::vector<bool> IsInteger = {true, true, true};
  EXPECT_EQ(candidateVars(Values, IsInteger, 1e-6), (std::vector<int>{1, 2}));
}

TEST(FractionalCandidates, DistanceExactlyTolIsNotSelected) {
  // Selection requires a distance strictly greater than Tol: a variable
  // sitting exactly Tol away from an integer counts as integral.
  const double Tol = 0.25;
  std::vector<double> Values = {4.25};
  std::vector<bool> IsInteger = {true};
  EXPECT_TRUE(fractionalCandidates(Values, IsInteger, Tol).empty());
  // Nudge past the tolerance and it becomes branchable.
  Values[0] = 4.26;
  EXPECT_EQ(candidateVars(Values, IsInteger, Tol), (std::vector<int>{0}));
}

TEST(FractionalCandidates, ContinuousColumnsAreIgnored) {
  std::vector<double> Values = {0.5, 0.4};
  std::vector<bool> IsInteger = {false, true};
  EXPECT_EQ(candidateVars(Values, IsInteger, 1e-6), (std::vector<int>{1}));
  IsInteger[1] = false;
  EXPECT_TRUE(fractionalCandidates(Values, IsInteger, 1e-6).empty());
}

TEST(FractionalCandidates, NegativeValuesUseFractionalPart) {
  // -2.5 has fractional distance 0.5, the maximum; -2.1's fractional part
  // is 0.9, distance 0.1.
  std::vector<double> Values = {-2.1, -2.5};
  std::vector<bool> IsInteger = {true, true};
  std::vector<BranchCandidate> C =
      fractionalCandidates(Values, IsInteger, 1e-6);
  ASSERT_EQ(C.size(), 2u);
  EXPECT_EQ(C[0].Var, 1);
  EXPECT_EQ(C[1].Var, 0);
  EXPECT_NEAR(C[1].Frac, 0.9, 1e-12);
}
