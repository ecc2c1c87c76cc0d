//===- aqua/lp/BasisLU.h - Sparse LU basis factorization ---------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sparse LU factorization of a simplex basis: singleton pivots first,
/// Markowitz threshold pivoting on the remaining kernel.
///
/// The RVol constraint matrices are hypersparse (under three nonzeros per
/// row), so the m x m basis factors with no fill -- nnz(L + U) is ~0.84x
/// nnz(B) on the enzyme sweep -- and FTRAN/BTRAN become O(m + nnz(LU))
/// stage replays instead of dense O(m^2) inverse products. That removes
/// the dense inverse's m^2 memory wall (enzyme_n14's basis inverse alone
/// would be ~1 GB; its LU is a few hundred KB).
///
/// An RVol basis is triangular once its one dense column -- the volume
/// scale, in about half the rows -- is set aside: column singletons
/// (logicals and single-row structurals) and the row singletons they leave
/// behind pivot with no search and no fill, and the dense column pivots
/// last, updated in a row-indexed vector. When no singleton is left, the
/// same loop picks its pivot by Markowitz threshold search. Elements sit
/// in cross-linked row and column lists in flat arrays, so no step scans
/// a row or a column to find one entry. A factor costs O(nnz(B) + nnz(LU)) plus the kernel's elimination
/// work, and factorCost() counts every step so the caller's rent-or-buy
/// rule prices it honestly.
///
/// Measured on the optimal bases of the enzyme sweep (x86-64 4-vCPU VM,
/// GCC 12.2, -O2, median of 10 runs): one factor costs 13-14 LU FTRANs
/// from enzyme_n3 to n8, about 29k cycles at n4 and 100k at n6 (884
/// rows). The search-every-stage Markowitz this replaced cost 71 FTRANs
/// (162k cycles) at n4 and 92 (1.19M) at n6 while its factorCost()
/// claimed about one.
///
/// A basis whose active submatrix loses all acceptable pivots reports
/// singular and the caller falls back.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_LP_BASISLU_H
#define AQUA_LP_BASISLU_H

#include "aqua/lp/SparseMatrix.h"

#include <cstddef>
#include <vector>

namespace aqua::lp {

/// Sparse LU of one basis matrix B, whose column at position p is the
/// structural column BasicCol[p] of the constraint matrix (or the logical
/// identity column e_{BasicCol[p]-NumStruct}). Rows and positions share the
/// 0..m-1 index space of the owning simplex engine: ftran maps a
/// row-indexed right-hand side to a position-indexed solution, btran the
/// reverse.
class BasisLU {
public:
  /// Factors the basis selected by \p BasicCol. Returns false when the
  /// basis is singular to tolerance; the object is invalid until the next
  /// successful factor. Allocates nothing once its scratch has grown to
  /// the largest basis seen.
  bool factor(const SparseMatrix &A, int NumStruct,
              const std::vector<int> &BasicCol);

  /// True after a successful factor.
  bool valid() const { return Valid; }

  /// Solves B * X_out = X_in in place. Input indexed by row, output by
  /// basis position.
  void ftran(std::vector<double> &X) const;

  /// Solves B^T * Y_out = Y_in in place. Input indexed by basis position,
  /// output by row.
  void btran(std::vector<double> &Y) const;

  /// Nonzeros of L plus U from the last factor (fill diagnostics and the
  /// per-solve replay price).
  std::size_t luNnz() const { return LVal.size() + UVal.size(); }

  /// Work of the last factor call: every element loaded, list step,
  /// candidate examined, entry updated and fill inserted. The price the
  /// rent-or-buy refactorization rule compares replay debt against.
  std::size_t factorCost() const { return FactorOps; }

private:
  /// One family of element lists -- the rows or the columns of the active
  /// submatrix -- in one flat file. List I holds element ids in
  /// File[Beg[I], Beg[I] + Len[I]) with Cap[I] slots reserved, and moves to
  /// the end of the file with twice the room when a fill-in overflows it.
  /// Slot[E] is element E's index inside its list, so removal is O(1).
  struct ListFile {
    std::vector<int> File, Beg, Len, Cap, Slot;
    const int *begin(int I) const { return File.data() + Beg[I]; }
    const int *end(int I) const { return File.data() + Beg[I] + Len[I]; }
    void remove(int I, int E);
    /// Appends element \p E to list \p I; returns the ids copied by a
    /// relocation.
    std::size_t append(int I, int E);
  };

  /// Pivots every sparse column: singletons first, then Markowitz.
  bool pivotKernel();
  /// Whether element \p E, its row's only sparse entry, may pivot now.
  bool rowSingletonOk(int E);
  /// Applies the last stage, whose L entries start at \p L0, to the dense
  /// columns not yet pivoted.
  void updateDense(std::size_t L0);
  /// Markowitz threshold search of the kernel's lowest-count columns;
  /// returns the pivot element or -1 when none is acceptable.
  int markowitzPivot(int Left);
  void beginStage(int Row, int Pos, double Piv);

  bool Valid = false;
  int M = 0;
  std::size_t FactorOps = 0;

  /// Elimination stages: stage t pivoted row PivRow[t], position PivPos[t],
  /// pivot value PivVal[t]. L holds the unit-lower multipliers of stage t
  /// as (row, mult) pairs; U holds the pivot row's off-pivot entries as
  /// (position, value) pairs over positions pivoted at later stages.
  std::vector<int> PivRow, PivPos;
  std::vector<double> PivVal;
  std::vector<int> LStart, LRow;
  std::vector<double> LVal;
  std::vector<int> UStart, UPos;
  std::vector<double> UVal;

  // --- factor-time scratch, reused across calls. The active submatrix is
  // a pool of elements (row, position, value), each linked into its row's
  // and its position's list.
  std::vector<int> ERow, EPos;
  std::vector<double> EVal;
  ListFile Rows, Cols;
  /// Dense columns, kept out of the element pool and pivoted last: basis
  /// position DensePos[j] holds row-indexed values DenseVal[j*m, (j+1)*m),
  /// updated stage by stage. The first DenseDone have been pivoted.
  std::vector<int> DensePos;
  std::vector<double> DenseVal;
  std::size_t DenseDone = 0;
  std::vector<char> RowDone, ColDone;
  /// Column and row singleton candidates, in the order they appeared.
  std::vector<int> ColQueue, RowQueue;
  /// Kernel columns bucketed by active count in doubly-linked lists.
  std::vector<int> CountHead, CountOf, Next, Prev;
  /// Pivot-row scatter by position and the stage that wrote it; per-row
  /// tags of the positions an L row already holds.
  std::vector<double> Scatter;
  std::vector<int> StageTag, PosTag;

  // --- solve-time scratch
  mutable std::vector<double> Work;
};

} // namespace aqua::lp

#endif // AQUA_LP_BASISLU_H
