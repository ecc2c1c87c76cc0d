//===- RevisedSimplexTest.cpp - Bounded revised simplex tests ------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The warm-start contract of the revised engine: a dual reoptimization
// from a previously optimal basis must land on the same optimum as a cold
// solve of the modified model. Randomized models cross-check the engine
// against the dense tableau, and a numeric failure reaches lp::solve's
// caller as a status, never as a dense re-solve. Cold solves start from
// the crash basis: it must cut enzyme_n6's pivots, agree with the dense
// tableau on every row kind and column class, and leave a solvable start
// when it takes nothing or its basis is singular.
//
//===----------------------------------------------------------------------===//

#include "aqua/lp/RevisedSimplex.h"

#include "aqua/assays/PaperAssays.h"
#include "aqua/core/Formulation.h"
#include "aqua/lp/Simplex.h"
#include "aqua/lp/Solver.h"
#include "aqua/obs/Metrics.h"
#include "aqua/support/Random.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace aqua;
using namespace aqua::lp;

namespace {

Model twoVarModel() {
  // max 3x + 2y  s.t.  x + y <= 4, x + 3y <= 6  ->  x=4, obj 12.
  Model M;
  VarId X = M.addVar("x", 0.0, Infinity, 3.0);
  VarId Y = M.addVar("y", 0.0, Infinity, 2.0);
  M.addRow("r1", RowKind::LE, 4.0, {{X, 1.0}, {Y, 1.0}});
  M.addRow("r2", RowKind::LE, 6.0, {{X, 1.0}, {Y, 3.0}});
  return M;
}

/// Builds a random bounded LP in the shape the IVol formulations take:
/// nonnegative variables, small integer coefficients, LE/GE/EQ rows.
Model randomModel(SplitMix64 &Rng) {
  Model M;
  int N = static_cast<int>(Rng.nextInRange(2, 4));
  int R = static_cast<int>(Rng.nextInRange(1, 4));
  M.setMaximize(Rng.nextInRange(0, 1) == 1);
  for (int I = 0; I < N; ++I) {
    double Lo = static_cast<double>(Rng.nextInRange(0, 2));
    double Hi = Lo + static_cast<double>(Rng.nextInRange(1, 8));
    M.addVar("v" + std::to_string(I), Lo, Hi,
             static_cast<double>(Rng.nextInRange(-3, 3)));
  }
  for (int J = 0; J < R; ++J) {
    std::vector<Term> Terms;
    for (int I = 0; I < N; ++I) {
      double C = static_cast<double>(Rng.nextInRange(-2, 3));
      if (C != 0.0)
        Terms.push_back({I, C});
    }
    if (Terms.empty())
      continue;
    RowKind Kind = static_cast<RowKind>(Rng.nextInRange(0, 2));
    M.addRow("r" + std::to_string(J), Kind,
             static_cast<double>(Rng.nextInRange(-4, 10)), Terms);
  }
  return M;
}

/// A random LP with every row kind (LE, GE, EQ) and every column class:
/// free, lower-bounded, upper-bounded and boxed.
Model mixedModel(SplitMix64 &Rng) {
  Model M;
  M.setMaximize(Rng.nextInRange(0, 1) == 1);
  const int N = static_cast<int>(Rng.nextInRange(3, 6));
  for (int I = 0; I < N; ++I) {
    const double Lo = static_cast<double>(Rng.nextInRange(-3, 1));
    const double Hi = Lo + static_cast<double>(Rng.nextInRange(1, 6));
    const double Cost = static_cast<double>(Rng.nextInRange(-3, 3));
    switch (I % 4) {
    case 0:
      M.addVar("free", -Infinity, Infinity, Cost);
      break;
    case 1:
      M.addVar("lower", Lo, Infinity, Cost);
      break;
    case 2:
      M.addVar("upper", -Infinity, Hi, Cost);
      break;
    default:
      M.addVar("boxed", Lo, Hi, Cost);
      break;
    }
  }
  const int R = static_cast<int>(Rng.nextInRange(3, 6));
  for (int J = 0; J < R; ++J) {
    std::vector<Term> Terms;
    for (int I = 0; I < N; ++I) {
      const double C = static_cast<double>(Rng.nextInRange(-2, 3));
      if (C != 0.0)
        Terms.push_back({I, C});
    }
    if (Terms.empty())
      continue;
    M.addRow("r", static_cast<RowKind>(J % 3),
             static_cast<double>(Rng.nextInRange(-4, 8)), Terms);
  }
  return M;
}

/// A fully degenerate chain: max sum (i+1) x_i with x_i +- x_{i+1} <= 0
/// and x >= 0 forces x = 0, so the objective never improves and every
/// pivot is degenerate. The rising costs keep the crash start from being
/// optimal: the crash ignores costs, and phase 2 still has to pivot the
/// costlier columns in at zero step.
Model degenerateChain() {
  Model M;
  std::vector<VarId> X;
  for (int I = 0; I < 6; ++I)
    X.push_back(M.addVar("x", 0.0, Infinity, I + 1.0));
  for (int I = 0; I + 1 < 6; ++I) {
    M.addRow("p", RowKind::LE, 0.0, {{X[I], 1.0}, {X[I + 1], 1.0}});
    M.addRow("m", RowKind::LE, 0.0, {{X[I], 1.0}, {X[I + 1], -1.0}});
  }
  return M;
}

} // namespace

TEST(RevisedSimplex, ColdSolveMatchesKnownOptimum) {
  Model M = twoVarModel();
  RevisedSimplex Engine(M);
  ASSERT_EQ(Engine.solve(), SolveStatus::Optimal);
  EXPECT_NEAR(Engine.objective(), 12.0, 1e-8);
  EXPECT_NEAR(Engine.values()[0], 4.0, 1e-8);
  EXPECT_NEAR(Engine.values()[1], 0.0, 1e-8);
}

TEST(RevisedSimplex, SolveAgreesWithDense) {
  Model M = twoVarModel();
  Solution Dense = solveSimplex(M);
  Solution Revised = solve(M);
  ASSERT_EQ(Revised.Status, Dense.Status);
  EXPECT_NEAR(Revised.Objective, Dense.Objective, 1e-8);
}

TEST(RevisedSimplex, WarmReoptimizeAfterBoundTightening) {
  Model M = twoVarModel();
  RevisedSimplex Engine(M);
  ASSERT_EQ(Engine.solve(), SolveStatus::Optimal);
  Basis B = Engine.basis();

  // Branch-style tightening: x <= 3 cuts off the old optimum. The dual
  // reoptimization must land on the new optimum (x=3, y=1 -> obj 11) in a
  // handful of pivots.
  Engine.setUpper(0, 3.0);
  ASSERT_EQ(Engine.reoptimizeDual(B), SolveStatus::Optimal);
  EXPECT_NEAR(Engine.objective(), 11.0, 1e-8);
  EXPECT_NEAR(Engine.values()[0], 3.0, 1e-8);
  EXPECT_NEAR(Engine.values()[1], 1.0, 1e-8);
}

TEST(RevisedSimplex, WarmDetectsInfeasibleSubproblem) {
  // 2x == 1 with x forced integer-style to [1, inf) is infeasible.
  Model M;
  M.addVar("x", 0.0, Infinity, 1.0);
  M.addRow("eq", RowKind::EQ, 1.0, {{0, 2.0}});
  RevisedSimplex Engine(M);
  ASSERT_EQ(Engine.solve(), SolveStatus::Optimal);
  Basis B = Engine.basis();
  Engine.setLower(0, 1.0);
  EXPECT_EQ(Engine.reoptimizeDual(B), SolveStatus::Infeasible);
}

TEST(RevisedSimplex, BoundResetRestoresRootProblem) {
  Model M = twoVarModel();
  RevisedSimplex Engine(M);
  ASSERT_EQ(Engine.solve(), SolveStatus::Optimal);
  Basis B = Engine.basis();
  Engine.setUpper(0, 2.0);
  ASSERT_EQ(Engine.reoptimizeDual(B), SolveStatus::Optimal);
  EXPECT_LT(Engine.objective(), 12.0);

  Engine.resetBounds(0);
  ASSERT_EQ(Engine.reoptimizeDual(Engine.basis()), SolveStatus::Optimal);
  EXPECT_NEAR(Engine.objective(), 12.0, 1e-8);
}

class RevisedWarmRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(RevisedWarmRandomTest, WarmMatchesColdAfterRandomTightenings) {
  SplitMix64 Rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 99);
  int Checked = 0;
  for (int Case = 0; Case < 40; ++Case) {
    Model M = randomModel(Rng);
    RevisedSimplex Warm(M);
    if (Warm.solve() != SolveStatus::Optimal)
      continue;

    // A chain of random bound tightenings, reoptimizing warm after each;
    // at every step an independent cold solve of the tightened model must
    // agree on status and optimum.
    for (int Step = 0; Step < 3; ++Step) {
      Basis B = Warm.basis();
      VarId V = static_cast<VarId>(
          Rng.nextInRange(0, M.numVars() - 1));
      if (Rng.nextInRange(0, 1) == 1)
        Warm.setUpper(V, Warm.upper(V) - 1.0);
      else
        Warm.setLower(V, Warm.lower(V) + 1.0);
      if (Warm.lower(V) > Warm.upper(V))
        break; // Crossed bounds would be rejected upstream; skip.
      SolveStatus WS = Warm.reoptimizeDual(B);

      RevisedSimplex Cold(M);
      for (VarId U = 0; U < M.numVars(); ++U) {
        Cold.setLower(U, Warm.lower(U));
        Cold.setUpper(U, Warm.upper(U));
      }
      SolveStatus CS = Cold.solve();

      ASSERT_EQ(WS, CS) << "warm/cold status divergence (case " << Case
                        << ", step " << Step << ")";
      if (WS != SolveStatus::Optimal)
        break;
      EXPECT_NEAR(Warm.objective(), Cold.objective(), 1e-6)
          << "warm/cold optimum divergence (case " << Case << ", step "
          << Step << ")";
      ++Checked;
    }
  }
  // The generator must produce enough optimal chains for the test to mean
  // something.
  EXPECT_GE(Checked, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevisedWarmRandomTest, ::testing::Range(0, 6));

TEST(RevisedSimplex, BlandPricingSolvesAndReports) {
  // Explicitly configured Bland pricing must reach the optimum and be
  // reported through usedBland().
  Model M = twoVarModel();
  RevisedSimplex Engine(M);
  SolveOptions Opts;
  Opts.Pricing = LpPricing::Bland;
  ASSERT_EQ(Engine.solve(Opts), SolveStatus::Optimal);
  EXPECT_NEAR(Engine.objective(), 12.0, 1e-9);
  EXPECT_TRUE(Engine.usedBland());
}

TEST(RevisedSimplex, StallEngagesBlandOnDegenerateModel) {
  // Every pivot on the chain is degenerate, and with a two-iteration
  // stall threshold the watchdog must hand pricing to Bland's rule --
  // which then proves optimality instead of cycling or tripping the
  // numeric-failure backstop.
  Model M = degenerateChain();
  RevisedSimplex Engine(M);
  SolveOptions Opts;
  Opts.StallThreshold = 2;
  ASSERT_EQ(Engine.solve(Opts), SolveStatus::Optimal);
  EXPECT_NEAR(Engine.objective(), 0.0, 1e-9);
  EXPECT_TRUE(Engine.usedBland());
}

TEST(RevisedSimplex, NumericFailSurfacesFromSolveWithoutDenseFallback) {
  // A watchdog that tolerates no non-improving pivot gives up on the
  // chain's first degenerate pivot. lp::solve must return that as
  // NumericFail: every pivot it reports is one the revised engine counted
  // (a dense re-solve would add its own), and exactly one cold revised
  // solve ran. The dense tableau, selected by name, solves the same model.
  Model M = degenerateChain();
  SolverOptions O;
  O.Simplex.StallThreshold = 0;
  obs::Counter &Pivots = obs::metrics().counter("lp.pivots");
  obs::Counter &Cold = obs::metrics().counter("lp.cold_solves");
  const std::uint64_t Pivots0 = Pivots.value(), Cold0 = Cold.value();
  Solution S = solve(M, O);
  EXPECT_EQ(S.Status, SolveStatus::NumericFail);
  EXPECT_STREQ(solveStatusName(S.Status), "numeric-fail");
  EXPECT_GT(S.Iterations, 0);
  EXPECT_EQ(Pivots.value() - Pivots0,
            static_cast<std::uint64_t>(S.Iterations));
  EXPECT_EQ(Cold.value() - Cold0, 1u);
  EXPECT_TRUE(S.Values.empty());

  O.Engine = LpEngine::Dense;
  Solution Dense = solve(M, O);
  ASSERT_EQ(Dense.Status, SolveStatus::Optimal);
  EXPECT_NEAR(Dense.Objective, 0.0, 1e-9);
}

TEST(RevisedSimplex, CrashSolvesEnzymeN6ColdInFewPivots) {
  // enzyme_n6 at 1000 nl, as the scaling sweep builds it. From the
  // all-logical basis its cold solve took 760 pivots, about one per
  // structural brought in: its optimal basis holds 669 of the 670
  // presolved structurals. The crash starts with 435 of them basic.
  core::MachineSpec Spec;
  Spec.MaxCapacityNl = 1000.0;
  core::Formulation F =
      core::buildVolumeModel(assays::buildEnzymeAssay(6, 1), Spec);
  obs::Counter &Taken = obs::metrics().counter("lp.crash_structurals");
  obs::Counter &Fallbacks = obs::metrics().counter("lp.crash_fallbacks");
  const std::uint64_t Taken0 = Taken.value(), Fallbacks0 = Fallbacks.value();
  Solution S = solve(F.Model);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_LE(S.Iterations, 400);
  EXPECT_GE(Taken.value() - Taken0, 400u);
  EXPECT_EQ(Fallbacks.value() - Fallbacks0, 0u);
  // The dense tableau's optimum of the same model (solveSimplex; it takes
  // about 20 s, too long to re-run here).
  constexpr double DenseObjective = 1211.1712738671918;
  EXPECT_NEAR(S.Objective, DenseObjective, 1e-9 * DenseObjective);
}

class CrashMixedRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashMixedRandomTest, ColdSolveMatchesDense) {
  // Every row kind and column class: the crash takes free columns first,
  // leaves each replaced logical at its finite bound (GE logicals at
  // their upper bound 0), and phase 1 starts from whatever it leaves
  // infeasible. Status and optimum must match the dense tableau.
  SplitMix64 Rng(static_cast<std::uint64_t>(GetParam()) * 0x9E3779B9u + 7);
  obs::Counter &Taken = obs::metrics().counter("lp.crash_structurals");
  const std::uint64_t Taken0 = Taken.value();
  int Optimal = 0;
  for (int Case = 0; Case < 40; ++Case) {
    Model M = mixedModel(Rng);
    Solution Dense = solveSimplex(M);
    RevisedSimplex Engine(M);
    const SolveStatus S = Engine.solve();
    ASSERT_EQ(S, Dense.Status) << "status divergence (case " << Case << ")";
    if (S != SolveStatus::Optimal)
      continue;
    EXPECT_NEAR(Engine.objective(), Dense.Objective, 1e-6)
        << "optimum divergence (case " << Case << ")";
    EXPECT_NEAR(M.objectiveValue(Engine.values()), Engine.objective(), 1e-6);
    ++Optimal;
  }
  EXPECT_GE(Optimal, 5);
  EXPECT_GT(Taken.value() - Taken0, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashMixedRandomTest, ::testing::Range(0, 6));

TEST(RevisedSimplex, CrashThatTakesNothingStillSolves) {
  // Every column is fixed, so the crash takes none and the solve starts
  // all-logical; the rows are then checked by phase 1 alone.
  Model M;
  M.addVar("x", 2.0, 2.0, 1.0);
  M.addVar("y", 1.0, 1.0, 3.0);
  M.addRow("le", RowKind::LE, 4.0, {{0, 1.0}, {1, 1.0}});
  M.addRow("ge", RowKind::GE, 1.0, {{0, 1.0}, {1, -1.0}});
  obs::Counter &Taken = obs::metrics().counter("lp.crash_structurals");
  obs::Counter &Fallbacks = obs::metrics().counter("lp.crash_fallbacks");
  const std::uint64_t Taken0 = Taken.value(), Fallbacks0 = Fallbacks.value();
  RevisedSimplex Engine(M);
  ASSERT_EQ(Engine.solve(), SolveStatus::Optimal);
  EXPECT_NEAR(Engine.objective(), 5.0, 1e-9);
  EXPECT_EQ(Taken.value() - Taken0, 0u);
  EXPECT_EQ(Fallbacks.value() - Fallbacks0, 0u);
}

TEST(RevisedSimplex, SingularCrashFallsBackAndSolves) {
  // x's only entry, 1e-9, is its largest, and row "tiny" is tight at the
  // all-logical start, so the crash takes x there at zero step; BasisLU
  // refuses a pivot that small. The solve must start all-logical, count
  // the fallback, and reach the optimum the dense tableau finds.
  Model M;
  M.addVar("x", 0.0, 5.0, 1.0);
  M.addVar("y", 0.0, 3.0, 1.0);
  M.addRow("tiny", RowKind::LE, 0.0, {{0, 1e-9}, {1, -1.0}});
  M.addRow("cap", RowKind::LE, 1.0, {{1, 1.0}});
  obs::Counter &Taken = obs::metrics().counter("lp.crash_structurals");
  obs::Counter &Fallbacks = obs::metrics().counter("lp.crash_fallbacks");
  const std::uint64_t Taken0 = Taken.value(), Fallbacks0 = Fallbacks.value();
  RevisedSimplex Engine(M);
  ASSERT_EQ(Engine.solve(), SolveStatus::Optimal);
  EXPECT_EQ(Fallbacks.value() - Fallbacks0, 1u);
  EXPECT_EQ(Taken.value() - Taken0, 0u);
  Solution Dense = solveSimplex(M);
  ASSERT_EQ(Dense.Status, SolveStatus::Optimal);
  EXPECT_NEAR(Engine.objective(), Dense.Objective, 1e-9);
  EXPECT_NEAR(Engine.objective(), 6.0, 1e-9);
}
