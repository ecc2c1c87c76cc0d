//===- BasisLUTest.cpp - Sparse basis LU tests -------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The factorization contract: FTRAN and BTRAN solve B x = b and B^T y = c
// to 1e-9 on logical, enzyme-optimal and random bases (including one dense
// column and ~40-entry rows), singular bases are refused, and the counted
// factor work grows linearly with nnz(B) + nnz(LU).
//
//===----------------------------------------------------------------------===//

#include "aqua/lp/BasisLU.h"

#include "aqua/assays/PaperAssays.h"
#include "aqua/core/Formulation.h"
#include "aqua/lp/Presolve.h"
#include "aqua/lp/RevisedSimplex.h"
#include "aqua/support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

using namespace aqua;
using namespace aqua::lp;

namespace {

/// One basis over a constraint matrix: the matrix, the structural count,
/// and the basic column of each position.
struct BasisCase {
  SparseMatrix A;
  int NumStruct = 0;
  std::vector<int> BasicCol;

  int m() const { return static_cast<int>(BasicCol.size()); }

  /// Calls F(row, value) for each nonzero of the basis column at \p P.
  template <typename Fn> void forColumn(int P, Fn F) const {
    int C = BasicCol[P];
    if (C >= NumStruct) {
      F(C - NumStruct, 1.0);
      return;
    }
    for (const SparseMatrix::Entry *E = A.colBegin(C), *End = A.colEnd(C);
         E != End; ++E)
      if (E->Value != 0.0)
        F(E->Row, E->Value);
  }

  std::size_t nnz() const {
    std::size_t N = 0;
    for (int P = 0; P < m(); ++P)
      forColumn(P, [&](int, double) { ++N; });
    return N;
  }
};

/// max_r |(B x)_r - b_r| after x = ftran(b), and max_p |(B^T y)_p - c_p|
/// after y = btran(c), on seeded right-hand sides.
void expectSmallResiduals(const BasisCase &B, const BasisLU &LU,
                          std::uint64_t Seed) {
  SplitMix64 Rng(Seed);
  const int M = B.m();
  std::vector<double> Rhs(M), X(M);
  for (double &V : Rhs)
    V = static_cast<double>(Rng.nextInRange(-100, 100)) / 10.0;

  X = Rhs;
  LU.ftran(X);
  std::vector<double> BX(M, 0.0);
  for (int P = 0; P < M; ++P)
    B.forColumn(P, [&](int R, double V) { BX[R] += V * X[P]; });
  double Ftran = 0.0;
  for (int R = 0; R < M; ++R)
    Ftran = std::max(Ftran, std::fabs(BX[R] - Rhs[R]));
  EXPECT_LE(Ftran, 1e-9) << "FTRAN residual";

  X = Rhs;
  LU.btran(X);
  double Btran = 0.0;
  for (int P = 0; P < M; ++P) {
    double Dot = 0.0;
    B.forColumn(P, [&](int R, double V) { Dot += V * X[R]; });
    Btran = std::max(Btran, std::fabs(Dot - Rhs[P]));
  }
  EXPECT_LE(Btran, 1e-9) << "BTRAN residual";
}

/// The optimal basis of the presolved enzyme_nN LP at 1000 nl -- the
/// models the paper's Table 2 LP column solves.
BasisCase enzymeOptimalBasis(int N) {
  core::MachineSpec Spec;
  Spec.MaxCapacityNl = 1000.0;
  core::Formulation F =
      core::buildVolumeModel(assays::buildEnzymeAssay(N, 1), Spec);
  Presolved P = Presolved::run(F.Model);
  RevisedSimplex Engine(P.reduced());
  EXPECT_EQ(Engine.solve(), SolveStatus::Optimal);
  BasisCase B;
  B.A = SparseMatrix(P.reduced());
  B.NumStruct = P.reduced().numVars();
  B.BasicCol = Engine.basis().BasicCol;
  return B;
}

/// A random nonsingular basis: M rows, a structural column per row with a
/// dominant entry on its own row, rows of about 40 entries, one column
/// with an entry in every row, and a quarter of the positions logical.
/// Positions are shuffled so they rarely line up with rows.
BasisCase randomBasis(int M, std::uint64_t Seed) {
  SplitMix64 Rng(Seed);
  Model Mod;
  for (int J = 0; J < M; ++J)
    Mod.addVar("x" + std::to_string(J), 0.0, Infinity, 0.0);
  std::vector<int> DenseRows; // ~40-entry rows.
  for (int R = 0; R < M; R += 7)
    DenseRows.push_back(R);
  const int Dense = static_cast<int>(Rng.nextInRange(0, M - 1));
  for (int R = 0; R < M; ++R) {
    std::vector<Term> Terms;
    std::vector<char> Used(M, 0);
    auto Add = [&](int J, double V) {
      if (!Used[J]) {
        Used[J] = 1;
        Terms.push_back({J, V});
      }
    };
    auto Small = [&] {
      return static_cast<double>(Rng.nextInRange(-10, 10)) / 20.0 + 0.01;
    };
    Add(R, 45.0 + static_cast<double>(Rng.nextInRange(0, 10)));
    Add(Dense, Small());
    bool Long = std::find(DenseRows.begin(), DenseRows.end(), R) !=
                DenseRows.end();
    int Extra = Long ? 40 : static_cast<int>(Rng.nextInRange(0, 2));
    for (int K = 0; K < Extra; ++K)
      Add(static_cast<int>(Rng.nextInRange(0, M - 1)), Small());
    Mod.addRow("r" + std::to_string(R), RowKind::EQ, 0.0, Terms);
  }
  BasisCase B;
  B.A = SparseMatrix(Mod);
  B.NumStruct = M;
  // A logical at row R replaces structural R; the dense column stays.
  for (int R = 0; R < M; ++R)
    B.BasicCol.push_back(R != Dense && Rng.nextInRange(0, 3) == 0 ? M + R
                                                                  : R);
  for (int I = M - 1; I > 0; --I)
    std::swap(B.BasicCol[I],
              B.BasicCol[static_cast<int>(Rng.nextInRange(0, I))]);
  return B;
}

} // namespace

TEST(BasisLU, LogicalBasisSolvesExactly) {
  for (int M : {1, 5, 64}) {
    BasisCase B;
    Model Mod;
    Mod.addVar("x", 0.0, Infinity, 1.0);
    for (int R = 0; R < M; ++R)
      Mod.addRow("r" + std::to_string(R), RowKind::LE, 1.0, {{0, 1.0}});
    B.A = SparseMatrix(Mod);
    B.NumStruct = 1;
    for (int R = M - 1; R >= 0; --R)
      B.BasicCol.push_back(1 + R); // Position p holds row m-1-p's logical.
    BasisLU LU;
    ASSERT_TRUE(LU.factor(B.A, B.NumStruct, B.BasicCol));
    EXPECT_EQ(LU.luNnz(), 0u);
    expectSmallResiduals(B, LU, 11 + M);
  }
}

TEST(BasisLU, EnzymeOptimalBasesSolveToTolerance) {
  for (int N : {4, 6}) {
    BasisCase B = enzymeOptimalBasis(N);
    BasisLU LU;
    ASSERT_TRUE(LU.factor(B.A, B.NumStruct, B.BasicCol)) << "enzyme_n" << N;
    expectSmallResiduals(B, LU, 100 + N);
  }
}

TEST(BasisLU, RandomBasesWithDenseColumnAndLongRows) {
  for (std::uint64_t Seed = 1; Seed <= 6; ++Seed) {
    BasisCase B = randomBasis(120 + 40 * static_cast<int>(Seed), Seed);
    BasisLU LU;
    ASSERT_TRUE(LU.factor(B.A, B.NumStruct, B.BasicCol)) << "seed " << Seed;
    expectSmallResiduals(B, LU, Seed);
    // The same object refactors another basis cleanly.
    BasisCase C = randomBasis(90, Seed + 100);
    ASSERT_TRUE(LU.factor(C.A, C.NumStruct, C.BasicCol));
    expectSmallResiduals(C, LU, Seed + 100);
  }
}

TEST(BasisLU, RefusesSingularBases) {
  Model Mod;
  VarId X = Mod.addVar("x", 0.0, Infinity, 0.0);
  VarId Y = Mod.addVar("y", 0.0, Infinity, 0.0);
  Mod.addVar("empty", 0.0, Infinity, 0.0);
  VarId Z = Mod.addVar("z", 0.0, Infinity, 0.0);
  Mod.addRow("r0", RowKind::EQ, 0.0, {{X, 1.0}, {Y, 2.0}, {Z, 1.0}});
  Mod.addRow("r1", RowKind::EQ, 0.0, {{X, 3.0}, {Y, 6.0}});
  Mod.addRow("r2", RowKind::EQ, 0.0, {{X, 1.0}, {Y, 2.0}, {Z, 4.0}});
  SparseMatrix A(Mod);
  const int NS = Mod.numVars();
  BasisLU LU;
  // Column "empty" has no entries.
  EXPECT_FALSE(LU.factor(A, NS, {0, 2, NS + 2}));
  EXPECT_FALSE(LU.valid());
  // The logical of row 1 twice.
  EXPECT_FALSE(LU.factor(A, NS, {NS + 1, 0, NS + 1}));
  // Y is twice X.
  EXPECT_FALSE(LU.factor(A, NS, {X, Y, NS + 2}));
  // Swapping Y for Z makes it nonsingular again.
  ASSERT_TRUE(LU.factor(A, NS, {X, Z, NS + 1}));
  EXPECT_TRUE(LU.valid());
}

TEST(BasisLU, FactorWorkGrowsLinearly) {
  // factorCost() counts every step the factor takes, so on the enzyme
  // sweep's optimal bases its ratio to nnz(B) + nnz(LU) must stay flat as
  // the model grows; a quadratic search or scan would double it by n8.
  auto Ratio = [](int N) {
    BasisCase B = enzymeOptimalBasis(N);
    BasisLU LU;
    EXPECT_TRUE(LU.factor(B.A, B.NumStruct, B.BasicCol));
    return static_cast<double>(LU.factorCost()) /
           static_cast<double>(B.nnz() + LU.luNnz());
  };
  double R4 = Ratio(4), R8 = Ratio(8);
  EXPECT_LT(R8, 2.0 * R4) << "n4 " << R4 << " n8 " << R8;
  EXPECT_LT(R4, 2.0 * R8) << "n4 " << R4 << " n8 " << R8;
}
