//===- BranchAndBoundTest.cpp - ILP branch-and-bound tests ---------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/lp/BranchAndBound.h"
#include "aqua/support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <thread>

using namespace aqua;
using namespace aqua::lp;

TEST(BranchAndBound, KnapsackStyle) {
  // max 5x + 4y  s.t.  6x + 5y <= 10, x,y >= 0 integer.
  // LP relaxation: x = 5/3; ILP optimum: y = 2 (obj 8).
  Model M;
  M.addVar("x", 0.0, Infinity, 5.0);
  M.addVar("y", 0.0, Infinity, 4.0);
  M.addRow("cap", RowKind::LE, 10.0, {{0, 1.0}, {1, 5.0}});
  M.row(0).Terms[0].Coef = 6.0;
  IntSolution S = solveInteger(M, {});
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_TRUE(S.HasIncumbent);
  EXPECT_NEAR(S.Objective, 8.0, 1e-6);
  EXPECT_NEAR(S.Values[0], 0.0, 1e-9);
  EXPECT_NEAR(S.Values[1], 2.0, 1e-9);
}

TEST(BranchAndBound, NumericFailEndsTheSearchUnproven) {
  // With a stall watchdog that tolerates no non-improving pivot, a node's
  // degenerate dual repair (and its cold re-solve) fails numerically
  // after the search has found an incumbent. The node's bound is unknown,
  // so the search must stop there and say so -- neither prune the node as
  // infeasible and go on to claim Optimal, nor lose the incumbent.
  Model M;
  M.addVar("x", 0.0, 6.0, 8.0);
  M.addVar("y", 0.0, 3.0, 6.0);
  M.addVar("z", 0.0, 6.0, 4.0);
  M.addRow("a", RowKind::LE, 15.5, {{0, 7.0}, {1, 6.0}, {2, 4.0}});
  M.addRow("b", RowKind::LE, 10.5, {{0, 3.0}, {1, 8.0}, {2, 4.0}});
  IntSolution Proven = solveInteger(M, {});
  ASSERT_EQ(Proven.Status, SolveStatus::Optimal);

  IntOptions O;
  O.LP.Simplex.StallThreshold = 0;
  IntSolution S = solveInteger(M, {}, O);
  EXPECT_EQ(S.Status, SolveStatus::NumericFail);
  ASSERT_TRUE(S.HasIncumbent);
  EXPECT_LE(S.Objective, Proven.Objective + 1e-9);
  EXPECT_LE(7 * S.Values[0] + 6 * S.Values[1] + 4 * S.Values[2], 15.5);
  EXPECT_LE(3 * S.Values[0] + 8 * S.Values[1] + 4 * S.Values[2], 10.5);
  for (double V : S.Values)
    EXPECT_EQ(V, std::round(V));
}

TEST(BranchAndBound, AlreadyIntegralRelaxation) {
  Model M;
  M.addVar("x", 0.0, 3.0, 1.0);
  IntSolution S = solveInteger(M, {});
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 3.0, 1e-9);
  EXPECT_EQ(S.Nodes, 1);
}

TEST(BranchAndBound, InfeasibleIsProven) {
  Model M;
  M.addVar("x", 0.0, Infinity, 1.0);
  M.addRow("ge", RowKind::GE, 5.0, {{0, 1.0}});
  M.addRow("le", RowKind::LE, 3.0, {{0, 1.0}});
  IntSolution S = solveInteger(M, {});
  EXPECT_EQ(S.Status, SolveStatus::Infeasible);
  EXPECT_FALSE(S.HasIncumbent);
}

TEST(BranchAndBound, FractionalOnlyFeasibility) {
  // 2x == 1 forces x = 0.5: LP feasible, ILP infeasible.
  Model M;
  M.addVar("x", 0.0, Infinity, 1.0);
  M.addRow("eq", RowKind::EQ, 1.0, {{0, 2.0}});
  IntSolution S = solveInteger(M, {});
  EXPECT_EQ(S.Status, SolveStatus::Infeasible);
}

TEST(BranchAndBound, MixedIntegerMask) {
  // y continuous, x integer: max x + y, x + y <= 2.5, x <= 1.7.
  Model M;
  M.addVar("x", 0.0, 1.7, 1.0);
  M.addVar("y", 0.0, Infinity, 1.0);
  M.addRow("cap", RowKind::LE, 2.5, {{0, 1.0}, {1, 1.0}});
  IntSolution S = solveInteger(M, {true, false});
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 2.5, 1e-6);
  EXPECT_NEAR(S.Values[0], std::round(S.Values[0]), 1e-9);
}

TEST(BranchAndBound, MinimizationDirection) {
  // min 3x + 2y  s.t.  x + y >= 2.5, integers -> (0,3) or (1,2): obj 6 vs 7.
  Model M;
  M.setMaximize(false);
  M.addVar("x", 0.0, Infinity, 3.0);
  M.addVar("y", 0.0, Infinity, 2.0);
  M.addRow("ge", RowKind::GE, 2.5, {{0, 1.0}, {1, 1.0}});
  IntSolution S = solveInteger(M, {});
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 6.0, 1e-6);
}

TEST(BranchAndBound, NodeBudgetReportsTimeLimit) {
  // A problem needing branching, with a 1-node budget. Cuts are disabled:
  // the root GMI cuts close this knapsack before any node is spent.
  Model M;
  M.addVar("x", 0.0, Infinity, 5.0);
  M.addVar("y", 0.0, Infinity, 4.0);
  M.addRow("cap", RowKind::LE, 10.0, {{0, 6.0}, {1, 5.0}});
  IntOptions Opts;
  Opts.MaxNodes = 1;
  Opts.CutRounds = 0;
  IntSolution S = solveInteger(M, {}, Opts);
  EXPECT_EQ(S.Status, SolveStatus::TimeLimit);
}

// Property sweep: B&B must match exhaustive search on small integer boxes.
namespace {

/// A random box model: 2..MaxN variables in [0, 1..MaxHi] with objective
/// coefficients in [-3, 4], and 1..3 random LE/GE rows with coefficients in
/// [-2, 3]. With RandomSense the direction is drawn too, else maximize.
Model randomBoxModel(SplitMix64 &Rng, int MaxN, int MaxHi, bool RandomSense) {
  int N = static_cast<int>(Rng.nextInRange(2, MaxN));
  Model M;
  M.setMaximize(RandomSense ? Rng.nextInRange(0, 1) == 1 : true);
  for (int I = 0; I < N; ++I) {
    double Hi = static_cast<double>(Rng.nextInRange(1, MaxHi));
    double Obj = static_cast<double>(Rng.nextInRange(-3, 4));
    M.addVar("x" + std::to_string(I), 0.0, Hi, Obj);
  }
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
    RowKind Kind = Rng.nextInRange(0, 1) ? RowKind::LE : RowKind::GE;
    double Rhs = static_cast<double>(Rng.nextInRange(-4, 8));
    M.addRow("r" + std::to_string(I), Kind, Rhs, std::move(Terms));
  }
  return M;
}

/// Solves \p M with and without root cuts (without, the tree search does
/// the work) and compares against enumerating every integer point of its
/// box: same verdict, same optimum in M's direction, a feasible answer.
void expectMatchesEnumeration(const Model &M) {
  const int N = M.numVars();
  std::optional<double> Best;
  std::vector<double> Point(N, 0.0);
  auto Enumerate = [&](auto &&Self, int V) -> void {
    if (V == N) {
      if (M.maxViolation(Point) <= 1e-9) {
        double Obj = M.objectiveValue(Point);
        if (!Best || (M.isMaximize() ? Obj > *Best : Obj < *Best))
          Best = Obj;
      }
      return;
    }
    for (double X = 0.0; X <= M.var(V).Upper; X += 1.0) {
      Point[V] = X;
      Self(Self, V + 1);
    }
  };
  Enumerate(Enumerate, 0);

  for (int CutRounds : {IntOptions{}.CutRounds, 0}) {
    IntOptions Opts;
    Opts.CutRounds = CutRounds;
    IntSolution S = solveInteger(M, {}, Opts);
    if (Best) {
      ASSERT_EQ(S.Status, SolveStatus::Optimal) << M.str();
      EXPECT_NEAR(S.Objective, *Best, 1e-6) << M.str();
      EXPECT_LE(M.maxViolation(S.Values), 1e-6) << M.str();
    } else {
      EXPECT_EQ(S.Status, SolveStatus::Infeasible) << M.str();
    }
  }
}

} // namespace

class BnBRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(BnBRandomTest, MatchesExhaustiveSearch) {
  const auto Seed = static_cast<std::uint64_t>(GetParam());
  // Maximization over boxes up to 3 variables of width 4.
  SplitMix64 Rng(Seed * 104729 + 3);
  for (int Case = 0; Case < 25; ++Case)
    expectMatchesEnumeration(randomBoxModel(Rng, 3, 4, false));
  // Either direction over boxes up to 4 variables of width 5.
  SplitMix64 Mixed(Seed * 48271 + 11);
  for (int Case = 0; Case < 20; ++Case)
    expectMatchesEnumeration(randomBoxModel(Mixed, 4, 5, true));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnBRandomTest, ::testing::Range(0, 6));

TEST(BranchAndBound, ConcurrentSolvesAgree) {
  // Separate solves share only the metrics registry and the solver's
  // static instruments: four at once on one Model must each return what
  // a lone solve returns, down to the node and pivot counts.
  Model M;
  M.setMaximize(true);
  const int N = 6;
  for (int I = 0; I < N; ++I)
    M.addVar("x" + std::to_string(I), 0.0, 7.0,
             static_cast<double>(3 + (I * 5) % 7));
  M.addRow("cap1", RowKind::LE, 19.0,
           {{0, 2.0}, {1, 3.0}, {2, 1.0}, {3, 4.0}});
  M.addRow("cap2", RowKind::LE, 17.0,
           {{2, 3.0}, {3, 1.0}, {4, 2.0}, {5, 5.0}});
  M.addRow("mix", RowKind::GE, 4.0, {{0, 1.0}, {4, 1.0}, {5, 1.0}});

  std::vector<IntSolution> Out(4);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Out.size(); ++T)
    Threads.emplace_back([&M, &Out, T] { Out[T] = solveInteger(M, {}); });
  for (std::thread &T : Threads)
    T.join();
  IntSolution Lone = solveInteger(M, {});

  ASSERT_EQ(Lone.Status, SolveStatus::Optimal);
  for (const IntSolution &S : Out) {
    ASSERT_EQ(S.Status, SolveStatus::Optimal);
    EXPECT_EQ(S.Objective, Lone.Objective);
    EXPECT_EQ(S.Values, Lone.Values);
    EXPECT_EQ(S.Nodes, Lone.Nodes);
    EXPECT_EQ(S.LpPivots, Lone.LpPivots);
  }
}

TEST(BranchAndBound, ReportsLpPivotTelemetry) {
  // Cuts off so the tree search actually runs: node telemetry is what is
  // under test, and root cuts would close this knapsack at node zero.
  Model M;
  M.addVar("x", 0.0, Infinity, 5.0);
  M.addVar("y", 0.0, Infinity, 4.0);
  M.addRow("cap", RowKind::LE, 10.0, {{0, 6.0}, {1, 5.0}});
  IntOptions Opts;
  Opts.CutRounds = 0;
  IntSolution S = solveInteger(M, {}, Opts);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_GT(S.Nodes, 1);
  EXPECT_GT(S.LpPivots, 0);
  EXPECT_GE(S.Seconds, 0.0);
}
