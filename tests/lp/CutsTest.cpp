//===- CutsTest.cpp - Cutting planes, cut pool, and warm shape repair ----------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/assays/PaperAssays.h"
#include "aqua/core/Formulation.h"
#include "aqua/lp/BranchAndBound.h"
#include "aqua/lp/Cuts.h"
#include "aqua/lp/Solver.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace aqua;
using namespace aqua::lp;

namespace {

/// Enumerates every integer point of [0,Box]^n and checks that each point
/// feasible for \p M satisfies every cut in \p Pool. Returns the number of
/// feasible points checked (so tests can assert the sweep was non-vacuous).
int checkCutsValidOnIntegerPoints(const Model &M, const CutPool &Pool,
                                  int Box) {
  const int N = M.numVars();
  std::vector<int> X(N, 0);
  int Feasible = 0;
  while (true) {
    // Model feasibility at the integer point.
    bool Ok = true;
    for (int R = 0; R < M.numRows() && Ok; ++R) {
      double A = 0.0;
      for (const Term &T : M.row(R).Terms)
        A += T.Coef * X[T.Var];
      switch (M.row(R).Kind) {
      case RowKind::LE:
        Ok = A <= M.row(R).Rhs + 1e-9;
        break;
      case RowKind::GE:
        Ok = A >= M.row(R).Rhs - 1e-9;
        break;
      case RowKind::EQ:
        Ok = std::fabs(A - M.row(R).Rhs) <= 1e-9;
        break;
      }
    }
    for (int V = 0; V < N && Ok; ++V)
      Ok = X[V] >= M.var(V).Lower - 1e-9 && X[V] <= M.var(V).Upper + 1e-9;
    if (Ok) {
      ++Feasible;
      for (const Cut &C : Pool.cuts()) {
        double A = 0.0;
        for (const Term &T : C.Terms)
          A += T.Coef * X[T.Var];
        EXPECT_LE(A, C.Rhs + 1e-7)
            << "cut violated by feasible integer point";
      }
    }
    int I = 0;
    while (I < N && ++X[I] > Box)
      X[I++] = 0;
    if (I == N)
      break;
  }
  return Feasible;
}

Cut makeCut(std::vector<Term> Terms, double Rhs) {
  Cut C;
  C.Terms = std::move(Terms);
  C.Rhs = Rhs;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// CutPool
//===----------------------------------------------------------------------===//

TEST(CutPool, DeduplicatesEquivalentCuts) {
  CutPool Pool;
  EXPECT_TRUE(Pool.add(makeCut({{0, 2.0}, {1, 3.0}}, 6.0)));
  EXPECT_FALSE(Pool.add(makeCut({{0, 2.0}, {1, 3.0}}, 6.0)));
  // Positive scaling is the same halfspace.
  EXPECT_FALSE(Pool.add(makeCut({{0, 4.0}, {1, 6.0}}, 12.0)));
  // Different rhs is a different cut.
  EXPECT_TRUE(Pool.add(makeCut({{0, 2.0}, {1, 3.0}}, 5.0)));
  EXPECT_EQ(Pool.size(), 2);
}

TEST(CutPool, AgingRetiresSlackCutsAndRemapsIndices) {
  CutPool Pool;
  ASSERT_TRUE(Pool.add(makeCut({{0, 1.0}}, 1.0)));
  ASSERT_TRUE(Pool.add(makeCut({{1, 1.0}}, 2.0)));
  ASSERT_TRUE(Pool.add(makeCut({{2, 1.0}}, 3.0)));

  // Cut 1 is slack twice in a row (MaxAge 2); cuts 0 and 2 stay tight.
  EXPECT_EQ(Pool.age({0.0, 0.5, 0.0}, 2), 0);
  EXPECT_EQ(Pool.size(), 3);
  std::vector<int> OldToNew;
  EXPECT_EQ(Pool.age({0.0, 0.5, 0.0}, 2, &OldToNew), 1);
  EXPECT_EQ(Pool.size(), 2);
  ASSERT_EQ(OldToNew.size(), 3u);
  EXPECT_EQ(OldToNew[0], 0);
  EXPECT_EQ(OldToNew[1], -1);
  EXPECT_EQ(OldToNew[2], 1);
}

TEST(CutPool, RetiredCutsAreNeverReadmitted) {
  CutPool Pool;
  ASSERT_TRUE(Pool.add(makeCut({{0, 1.0}}, 1.0)));
  ASSERT_EQ(Pool.age({1.0}, 1), 1);
  EXPECT_TRUE(Pool.empty());
  EXPECT_FALSE(Pool.add(makeCut({{0, 1.0}}, 1.0)));
}

TEST(CutPool, TightRowsResetTheirAge) {
  CutPool Pool;
  ASSERT_TRUE(Pool.add(makeCut({{0, 1.0}}, 1.0)));
  EXPECT_EQ(Pool.age({0.5}, 2), 0); // age 1
  EXPECT_EQ(Pool.age({0.0}, 2), 0); // tight: reset
  EXPECT_EQ(Pool.age({0.5}, 2), 0); // age 1 again
  EXPECT_EQ(Pool.size(), 1);
}

//===----------------------------------------------------------------------===//
// Separation validity
//===----------------------------------------------------------------------===//

TEST(Separation, GomoryCutsAreValidAndViolatedAtTheVertex) {
  // max 5x + 4y  s.t.  6x + 5y <= 10: LP vertex x = 5/3 is fractional.
  Model M;
  M.addVar("x", 0.0, 4.0, 5.0);
  M.addVar("y", 0.0, 4.0, 4.0);
  M.addRow("cap", RowKind::LE, 10.0, {{0, 6.0}, {1, 5.0}});

  RevisedSimplex Engine(M);
  ASSERT_EQ(Engine.solve(), SolveStatus::Optimal);
  std::vector<double> X = Engine.values();

  CutPool Pool;
  CutOptions Opts;
  int N = separateGomory(M, {true, true}, Engine, Opts, Pool);
  ASSERT_GT(N, 0);
  // Every admitted cut strictly separates the fractional vertex...
  for (const Cut &C : Pool.cuts()) {
    double A = 0.0;
    for (const Term &T : C.Terms)
      A += T.Coef * X[T.Var];
    EXPECT_GT(A, C.Rhs + 1e-9);
  }
  // ...and no feasible integer point is ever cut off.
  EXPECT_GT(checkCutsValidOnIntegerPoints(M, Pool, 4), 0);
}

TEST(Separation, DivisorCutsAreValidAndViolatedAtThePoint) {
  // 6x + 5y <= 10 divided by 5 and floored: x + y <= 2. The LP vertex
  // (5/3, 0) satisfies it, so probe with a point that violates it.
  Model M;
  M.addVar("x", 0.0, 4.0, 5.0);
  M.addVar("y", 0.0, 4.0, 4.0);
  M.addRow("cap", RowKind::LE, 10.0, {{0, 6.0}, {1, 5.0}});

  CutPool Pool;
  CutOptions Opts;
  const double P[2] = {0.5, 1.7};
  int N = separateDivisor(M, {true, true}, {P[0], P[1]}, Opts, Pool);
  ASSERT_GT(N, 0);
  // The separator only admits cuts the probe point violates.
  for (const Cut &C : Pool.cuts()) {
    double A = 0.0;
    for (const Term &T : C.Terms)
      A += T.Coef * P[T.Var];
    EXPECT_GT(A, C.Rhs + 1e-9);
  }
  EXPECT_GT(checkCutsValidOnIntegerPoints(M, Pool, 4), 0);
}

//===----------------------------------------------------------------------===//
// Cuts inside branch-and-bound
//===----------------------------------------------------------------------===//

TEST(CutAndBranch, CutsCloseTheKnapsackAtTheRootWithSameOptimum) {
  // Known integer optimum y = 2 (objective 8); the LP relaxation is
  // fractional, so the no-cuts tree must branch while root cuts close it.
  Model M;
  M.addVar("x", 0.0, 4.0, 5.0);
  M.addVar("y", 0.0, 4.0, 4.0);
  M.addRow("cap", RowKind::LE, 10.0, {{0, 6.0}, {1, 5.0}});

  IntOptions CutsOn;
  IntOptions CutsOff;
  CutsOff.CutRounds = 0;
  IntSolution On = solveInteger(M, {}, CutsOn);
  IntSolution Off = solveInteger(M, {}, CutsOff);
  ASSERT_EQ(On.Status, SolveStatus::Optimal);
  ASSERT_EQ(Off.Status, SolveStatus::Optimal);
  EXPECT_NEAR(On.Objective, 8.0, 1e-6);
  EXPECT_NEAR(Off.Objective, 8.0, 1e-6);
  EXPECT_EQ(On.Nodes, 1);
  EXPECT_GT(Off.Nodes, 1);
}

TEST(CutAndBranch, PseudocostSearchAgreesAndStaysWithinNodeBudget) {
  // A 6-variable 3-row integer program whose relaxation is fractional in
  // several variables: pseudocost/reliability branching and plain
  // most-fractional branching must agree on the optimum, and the
  // pseudocost tree must stay within a regression budget.
  Model M;
  const double C[6] = {12.0, 7.0, 11.0, 5.0, 13.0, 3.0};
  for (int I = 0; I < 6; ++I)
    M.addVar("x" + std::to_string(I), 0.0, 3.0, C[I]);
  M.addRow("k1", RowKind::LE, 21.0,
           {{0, 7.0}, {1, 3.0}, {2, 5.0}, {3, 2.0}, {4, 6.0}, {5, 1.0}});
  M.addRow("k2", RowKind::LE, 17.0,
           {{0, 2.0}, {1, 5.0}, {2, 4.0}, {3, 3.0}, {4, 5.0}, {5, 2.0}});
  M.addRow("k3", RowKind::LE, 15.0,
           {{0, 4.0}, {1, 1.0}, {2, 3.0}, {3, 5.0}, {4, 2.0}, {5, 4.0}});

  IntOptions Pseudo;
  Pseudo.CutRounds = 0; // Isolate the branching rule.
  IntOptions Frac = Pseudo;
  Frac.Reliable = 0;
  IntSolution SP = solveInteger(M, {}, Pseudo);
  IntSolution SF = solveInteger(M, {}, Frac);
  ASSERT_EQ(SP.Status, SolveStatus::Optimal);
  ASSERT_EQ(SF.Status, SolveStatus::Optimal);
  EXPECT_NEAR(SP.Objective, SF.Objective, 1e-6);
  // Node-count regression gate: reliability branching explores a small
  // tree here; a regression in the pseudocost table or the plunge logic
  // shows up as an order-of-magnitude blowup, not a few extra nodes.
  EXPECT_LE(SP.Nodes, 200);
}

TEST(CutAndBranch, RestartsPreserveTheOptimum) {
  Model M;
  const double C[6] = {12.0, 7.0, 11.0, 5.0, 13.0, 3.0};
  for (int I = 0; I < 6; ++I)
    M.addVar("x" + std::to_string(I), 0.0, 3.0, C[I]);
  M.addRow("k1", RowKind::LE, 21.0,
           {{0, 7.0}, {1, 3.0}, {2, 5.0}, {3, 2.0}, {4, 6.0}, {5, 1.0}});
  M.addRow("k2", RowKind::LE, 17.0,
           {{0, 2.0}, {1, 5.0}, {2, 4.0}, {3, 3.0}, {4, 5.0}, {5, 2.0}});

  IntOptions NoRestart;
  NoRestart.RestartNodes = 0;
  IntOptions Eager;
  Eager.RestartNodes = 4; // Force restarts through the incumbent path.
  IntSolution A = solveInteger(M, {}, NoRestart);
  IntSolution B = solveInteger(M, {}, Eager);
  ASSERT_EQ(A.Status, SolveStatus::Optimal);
  ASSERT_EQ(B.Status, SolveStatus::Optimal);
  EXPECT_NEAR(A.Objective, B.Objective, 1e-6);
}

TEST(CutAndBranch, MaxNodesBoundsTheWholeSolveAcrossRestarts) {
  // The glucose IVol ILP with an eager restart cap: every restart starts a
  // new tree search, and the node budget must count the nodes of all of
  // them, not only the current one's.
  core::MachineSpec Spec;
  core::FormulationOptions IOpts;
  IOpts.UnitNl = Spec.LeastCountNl;
  core::Formulation F =
      core::buildVolumeModel(assays::buildGlucoseAssay(), Spec, IOpts);
  for (std::int64_t Budget : {8, 16}) {
    IntOptions O;
    O.RestartNodes = 3;
    O.MaxNodes = Budget;
    IntSolution S = solveInteger(F.Model, {}, O);
    EXPECT_LE(S.Nodes, Budget) << "MaxNodes " << Budget;
  }
}

//===----------------------------------------------------------------------===//
// Shape hash + warm basis repair
//===----------------------------------------------------------------------===//

namespace {

Model shapeModel(double Rhs, double UpperY) {
  Model M;
  M.addVar("x", 0.0, 4.0, 3.0);
  M.addVar("y", 0.0, UpperY, 2.0);
  M.addRow("r0", RowKind::LE, Rhs, {{0, 1.0}, {1, 1.0}});
  M.addRow("r1", RowKind::LE, 8.0, {{0, 2.0}, {1, 1.0}});
  return M;
}

/// lp::solve on the revised engine without presolve, so the basis belongs
/// to \p M itself. Warm starts from \p Donor when given (its shape hash
/// must match \p M's) and returns the captured optimal basis in \p Info.
Solution revisedSolve(const Model &M, SolveInfo *Info,
                      const SolveInfo *Donor = nullptr) {
  SolverOptions O;
  O.Presolve = false;
  O.CaptureBasis = true;
  if (Donor) {
    O.WarmStart = Donor->OptBasis;
    O.WarmShapeHash = Donor->ShapeHash;
  }
  return solve(M, O, Info);
}

} // namespace

TEST(ShapeHash, BlindToRhsAndBoundsSensitiveToStructure) {
  std::uint64_t H0 = modelShapeHash(shapeModel(6.0, 5.0));
  EXPECT_EQ(H0, modelShapeHash(shapeModel(4.5, 5.0))); // rhs moved
  EXPECT_EQ(H0, modelShapeHash(shapeModel(6.0, 2.0))); // bound moved

  Model Coef = shapeModel(6.0, 5.0);
  Coef.row(0).Terms[1].Coef = 2.0;
  EXPECT_NE(H0, modelShapeHash(Coef));

  Model Obj = shapeModel(6.0, 5.0);
  Obj.var(0).ObjCoef = 4.0;
  EXPECT_NE(H0, modelShapeHash(Obj));
}

TEST(WarmShapeRepair, PerturbedRhsAndBoundsMatchColdSolve) {
  // Capture on one instance, repair onto a same-shape instance whose rhs
  // and variable bounds both moved; the repair must agree with a cold
  // solve of the perturbed model.
  Model A = shapeModel(6.0, 5.0);
  SolveInfo Donor;
  Solution SA = revisedSolve(A, &Donor);
  ASSERT_EQ(SA.Status, SolveStatus::Optimal);
  ASSERT_TRUE(Donor.OptBasis);

  Model B = shapeModel(4.5, 1.0);
  ASSERT_EQ(modelShapeHash(A), modelShapeHash(B));
  SolveInfo WarmInfo, ColdInfo;
  Solution Warm = revisedSolve(B, &WarmInfo, &Donor);
  Solution Cold = revisedSolve(B, &ColdInfo);
  EXPECT_TRUE(WarmInfo.WarmStarted);
  ASSERT_EQ(Warm.Status, SolveStatus::Optimal);
  ASSERT_EQ(Cold.Status, SolveStatus::Optimal);
  EXPECT_NEAR(Warm.Objective, Cold.Objective, 1e-8);
}

TEST(WarmShapeRepair, FlippedBoundStatusesAreSanitizedNotTrusted) {
  // The donor leaves y nonbasic at a bound; the target model moves y's
  // bounds so that status no longer exists. installBasis must sanitize
  // the status against the new bounds (or reject and fall back cold) --
  // either way the answer matches the cold solve.
  Model A = shapeModel(6.0, 5.0);
  SolveInfo Donor;
  ASSERT_EQ(revisedSolve(A, &Donor).Status, SolveStatus::Optimal);
  ASSERT_TRUE(Donor.OptBasis);

  // y's upper bound collapses onto a tighter window than the donor optimum
  // used; x's lower bound rises above zero.
  Model B;
  B.addVar("x", 1.5, 4.0, 3.0);
  B.addVar("y", 0.5, 1.0, 2.0);
  B.addRow("r0", RowKind::LE, 6.0, {{0, 1.0}, {1, 1.0}});
  B.addRow("r1", RowKind::LE, 8.0, {{0, 2.0}, {1, 1.0}});
  SolveInfo WarmInfo, ColdInfo;
  Solution Warm = revisedSolve(B, &WarmInfo, &Donor);
  Solution Cold = revisedSolve(B, &ColdInfo);
  EXPECT_TRUE(WarmInfo.WarmStarted);
  ASSERT_EQ(Warm.Status, Cold.Status);
  ASSERT_EQ(Warm.Status, SolveStatus::Optimal);
  EXPECT_NEAR(Warm.Objective, Cold.Objective, 1e-8);
}

TEST(WarmShapeRepair, SolverGateRejectsMismatchedShapeHash) {
  // lp::solve only engages the warm basis when the caller's recorded
  // shape hash matches the model it is about to solve; a stale hash from
  // a different structure must degrade to a cold solve, not corrupt it.
  Model A = shapeModel(6.0, 5.0);
  SolverOptions Capture;
  Capture.Presolve = false; // Hash the model as-is for this unit check.
  Capture.CaptureBasis = true;
  SolveInfo Info;
  Solution SA = solve(A, Capture, &Info);
  ASSERT_EQ(SA.Status, SolveStatus::Optimal);
  ASSERT_TRUE(Info.OptBasis);

  Model C = shapeModel(6.0, 5.0);
  C.row(0).Terms[1].Coef = 2.0; // Different structure.
  SolverOptions WarmOpts;
  WarmOpts.Presolve = false;
  WarmOpts.WarmStart = Info.OptBasis;
  WarmOpts.WarmShapeHash = Info.ShapeHash;
  SolveInfo WInfo;
  Solution SW = solve(C, WarmOpts, &WInfo);
  ASSERT_EQ(SW.Status, SolveStatus::Optimal);
  EXPECT_FALSE(WInfo.WarmStarted);
  Solution SCold = solve(C, SolverOptions{});
  EXPECT_NEAR(SW.Objective, SCold.Objective, 1e-8);
}
