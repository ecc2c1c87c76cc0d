//===- ReferenceBnBTest.cpp - Branch-and-bound against its reference ------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/check/Reference.h"
#include "aqua/support/Random.h"

#include <gtest/gtest.h>

#include <string>

using namespace aqua;
using namespace aqua::lp;

// Engine-equivalence sweep: the production solver (warm bound deltas,
// cuts, restarts, reliability branching) and the dense-copy reference
// must reach the same verdict and optimum on random small models.
class BnBEngineEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(BnBEngineEquivalenceTest, WarmMatchesDenseOnRandomModels) {
  SplitMix64 Rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 11);
  for (int Case = 0; Case < 20; ++Case) {
    int N = static_cast<int>(Rng.nextInRange(2, 4));
    Model M;
    M.setMaximize(Rng.nextInRange(0, 1) == 1);
    for (int I = 0; I < N; ++I)
      M.addVar("x" + std::to_string(I), 0.0,
               static_cast<double>(Rng.nextInRange(1, 5)),
               static_cast<double>(Rng.nextInRange(-3, 4)));
    int R = static_cast<int>(Rng.nextInRange(1, 3));
    for (int I = 0; I < R; ++I) {
      std::vector<Term> Terms;
      for (int V = 0; V < N; ++V) {
        double C = static_cast<double>(Rng.nextInRange(-2, 3));
        if (C != 0.0)
          Terms.push_back(Term{V, C});
      }
      if (Terms.empty())
        continue;
      M.addRow("r" + std::to_string(I),
               Rng.nextInRange(0, 1) ? RowKind::LE : RowKind::GE,
               static_cast<double>(Rng.nextInRange(-4, 8)),
               std::move(Terms));
    }

    IntSolution W = solveInteger(M, {});
    IntSolution D = check::referenceSolveInteger(M, {}, IntOptions{});

    ASSERT_EQ(W.Status, D.Status) << M.str();
    if (W.Status == SolveStatus::Optimal) {
      EXPECT_NEAR(W.Objective, D.Objective, 1e-6) << M.str();
      EXPECT_LE(M.maxViolation(W.Values), 1e-6) << M.str();
      EXPECT_LE(M.maxViolation(D.Values), 1e-6) << M.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnBEngineEquivalenceTest,
                         ::testing::Range(0, 4));
