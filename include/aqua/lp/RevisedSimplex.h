//===- aqua/lp/RevisedSimplex.h - Bounded-variable revised simplex -*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded-variable revised simplex engine built for branch-and-bound.
///
/// Three properties distinguish it from the dense two-phase tableau in
/// Simplex.h:
///
///  * Finite upper bounds are handled *implicitly*: a nonbasic variable may
///    rest at either bound, so a bound contributes no tableau row. For the
///    IVol models -- where branching puts finite bounds on every volume
///    variable -- this roughly halves the basis dimension versus the dense
///    path, which materializes one row per finite upper bound.
///
///  * The constraint matrix is a shared, immutable sparse column-major copy
///    (SparseMatrix); per-solve state is only the bound arrays, the basis,
///    and a sparse LU factorization of the basis (BasisLU) maintained by
///    product-form eta updates with cheap periodic refactorization. The
///    RVol bases factor without fill, so FTRAN/BTRAN are O(m + nnz) and
///    the engine never materializes an m x m inverse.
///
///  * The engine is *restartable*: bounds can be changed between solves
///    (`setLower`/`setUpper`) and the previous optimal basis reused. A
///    bound change on a basis leaves reduced costs -- which depend only on
///    the basis -- untouched, so the parent's optimum stays dual feasible
///    and `reoptimizeDual()` typically needs a handful of pivots where a
///    cold solve needs hundreds (325 on enzyme_n6). This is the classic
///    warm-start that makes LP-based branch-and-bound tractable.
///
/// Cold solves start from a triangular crash basis rather than the
/// all-logical one (after Bixby, "Implementing the simplex method: the
/// initial basis", ORSA J. Computing 4(3), 1992): structurals are swapped
/// in for logicals along a lower triangle whose every step keeps the
/// start at least as feasible as the all-logical point, and the basis is
/// factored once. A composite phase-1 primal (minimize the total bound
/// violation of that basis, no artificial columns) and the bounded primal
/// phase 2 follow. All tolerances come from aqua/lp/Tolerances.h.
///
/// The engine reports `SolveStatus::NumericFail` instead of guessing when
/// pivoting stalls past the watchdog, exceeds the pivot safety cap, or the
/// factorization cannot be rebuilt. It is the only engine production runs:
/// `lp::solve` returns that status as is, and branch-and-bound ends its
/// search unproven. The dense tableau in Simplex.h runs only when selected
/// by name (`LpEngine::Dense`), and the aqua/check `engines` oracle
/// cross-checks the two on every generated model.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_LP_REVISEDSIMPLEX_H
#define AQUA_LP_REVISEDSIMPLEX_H

#include "aqua/lp/BasisLU.h"
#include "aqua/lp/Model.h"
#include "aqua/lp/Simplex.h"
#include "aqua/lp/SparseMatrix.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace aqua::lp {

/// Where a column currently lives.
enum class VarStatus : std::uint8_t {
  Basic,   ///< In the basis; value from the basic solution.
  AtLower, ///< Nonbasic at its (finite) lower bound.
  AtUpper, ///< Nonbasic at its (finite) upper bound.
  Free,    ///< Nonbasic with no finite bound; rests at zero.
};

/// A reusable basis snapshot: one status per column (structural columns
/// first, then one logical column per row) plus the basic column of each
/// row. Copy-cheap and shareable between branch-and-bound siblings.
///
/// RedCost and DevexW are optional warm-start payloads: reduced costs
/// depend only on the basis and the cost vector -- never on bounds -- so a
/// child node inheriting its parent's optimal basis can also inherit the
/// parent's reduced costs verbatim and skip the O(m^2) dual recomputation,
/// and the devex reference weights keep the pricing history across the
/// tree. Either vector may be empty (cold snapshot); installers must
/// validate sizes before trusting them.
struct Basis {
  std::vector<VarStatus> Status;
  std::vector<int> BasicCol;
  /// One reduced cost per column; empty when the snapshot was taken
  /// without valid dual state.
  std::vector<double> RedCost;
  /// Devex reference weights per column; empty on legacy snapshots.
  std::vector<double> DevexW;

  bool empty() const { return BasicCol.empty(); }
};

/// Bounded-variable revised simplex over one model. The model's rows and
/// objective are fixed at construction; variable bounds are mutable state,
/// which is exactly the degree of freedom branch-and-bound needs.
class RevisedSimplex {
public:
  /// Builds the standard-form instance. \p Cols may be shared across
  /// engines (one per branch-and-bound worker); when null a private copy
  /// is built from \p M.
  explicit RevisedSimplex(const Model &M,
                          std::shared_ptr<const SparseMatrix> Cols = nullptr);

  int numRows() const { return NumRows; }
  int numStructural() const { return NumStruct; }

  /// Current bounds of structural variable \p V.
  double lower(VarId V) const { return Lower[V]; }
  double upper(VarId V) const { return Upper[V]; }

  /// Overrides the bounds of structural variable \p V. Takes effect on the
  /// next solve/reoptimize call.
  void setLower(VarId V, double L) { Lower[V] = L; }
  void setUpper(VarId V, double U) { Upper[V] = U; }

  /// Restores \p V to the bounds the model was built with.
  void resetBounds(VarId V) {
    Lower[V] = RootLower[V];
    Upper[V] = RootUpper[V];
  }

  /// Cold solve: installs the crash basis (the all-logical one only if
  /// the crash cannot be factored), then primal phase 1 and phase 2.
  /// Every cold start -- lp::solve, presolve's reduced model,
  /// branch-and-bound roots, reoptimizeDual's fallbacks -- comes through
  /// here.
  SolveStatus solve(const SolveOptions &Opts = {});

  /// Warm solve from \p Start (typically the parent node's optimal basis):
  /// runs the dual simplex, which repairs primal feasibility after bound
  /// changes without disturbing dual feasibility. Falls back to a cold
  /// primal solve if the start basis is singular or dual-infeasible.
  SolveStatus reoptimizeDual(const Basis &Start,
                             const SolveOptions &Opts = {});

  /// Snapshot of the current basis (valid after any solve that returned
  /// Optimal; also after Infeasible for diagnostic reuse).
  Basis basis() const;

  /// Objective value in the model's direction (valid after Optimal).
  double objective() const { return Objective; }

  /// One value per structural variable (valid after Optimal).
  const std::vector<double> &values() const { return StructValues; }

  /// Simplex pivots performed by the most recent solve call.
  std::int64_t iterations() const { return Iterations; }

  /// Scatters tableau row \p P (row P of B^-1 A over all columns,
  /// structural then logical) into parallel (column, coefficient) arrays,
  /// skipping coefficients that are exactly zero. Valid after a solve that
  /// returned Optimal; the cut separator reads fractional rows through
  /// this.
  void tableauRow(int P, std::vector<int> &OutCols,
                  std::vector<double> &OutVals);

  /// Value of the basic variable at basis position \p P (valid after any
  /// solve; extract() keeps XB current on Optimal).
  double basicValue(int P) const { return XB[P]; }

  /// Column basic at position \p P.
  int basicCol(int P) const { return BasicCol[P]; }

  /// Sets the number of pivots between basis refactorizations (default
  /// 100). Each refactorization also rebuilds the maintained reduced
  /// costs, so this is the pricing drift-control interval too.
  void setRefactorInterval(int N) { RefactorInterval = N; }

  /// True when the most recent solve call ever switched to the Bland
  /// anti-cycling rule (either configured or forced by the stall
  /// watchdog).
  bool usedBland() const { return UsedBland; }

private:
  // --- setup
  /// Starts every cold solve from the crash basis, factored once; the
  /// all-logical basis only when that factor fails.
  void installColdBasis();
  /// Sets the all-logical statuses and BasicCol.
  void installLogicalBasis();
  /// Swaps structurals in for logicals of the all-logical basis along a
  /// lower triangle that never adds bound violation. Returns the number
  /// of structurals made basic.
  int crashStructurals();
  /// Nonbasic status at the column's finite bound (Free when it has none).
  VarStatus restingStatus(int Col) const;
  bool installBasis(const Basis &B);
  bool refactorize();
  /// Factors BasicCol into Base, timing it into lp.refactor_sec.
  bool factorBase();
  /// Empties the eta file and restarts the refactorization clocks.
  void clearEtas();
  void computeBasicValues();
  double nonbasicValue(int Col) const;
  double colLower(int Col) const;
  double colUpper(int Col) const;
  double columnDot(int Col, const double *Y) const;
  /// FTRAN: W = B^-1 * A_Col (base inverse, then the eta file). When \p
  /// Pat is non-null it receives the nonzero rows of W (the hypersparsity
  /// pattern the ratio test, XB update, and pivot update iterate instead
  /// of all m rows).
  void ftran(int Col, std::vector<double> &W,
             std::vector<int> *Pat = nullptr) const;
  /// Applies the eta file in pivot order to a dense vector \p V (the
  /// column-side transform FTRAN and computeBasicValues share).
  void applyEtas(std::vector<double> &V) const;
  /// BTRAN of a sparse row-space seed: applies the transposed eta file
  /// (newest first) to \p YVal -- whose nonzero positions are tracked in
  /// \p YPat with marks \p YMark -- then scatters Rho = y^T * B0^-1 into
  /// \p Rho with nonzero pattern \p RhoPat. Consumes the seed (YVal/YMark
  /// are zeroed, YPat cleared). Each transposed eta touches exactly one
  /// component, so the seed stays sparse: O(|etas| * |YPat| + m * |YPat|)
  /// total instead of the O(m^2) dense row extraction.
  void btran(std::vector<double> &YVal, std::vector<unsigned char> &YMark,
             std::vector<int> &YPat, std::vector<double> &Rho,
             std::vector<int> &RhoPat) const;
  /// BTRAN of the single row \p P of B^-1 into RhoVec/PatRho.
  void btranRow(int P);

  // --- shared pivot machinery
  void applyPivot(int LeaveRow, int EnterCol, const std::vector<double> &W,
                  const std::vector<int> &Pat);
  void computeDuals(const std::vector<double> &CostB,
                    std::vector<double> &Y) const;
  double reducedCost(int Col, const double *Y) const;
  /// Scatters one pivot row through the constraint matrix: AlphaR[j] =
  /// Rho . A_j for every column j reachable from the nonzero rows \p Pat
  /// of \p Rho (structural columns via the CSR mirror, logicals
  /// directly); AlphaTouched lists the columns written. Untouched columns
  /// have alpha exactly zero, so incremental reduced-cost updates skip
  /// them entirely.
  void gatherRowAlphas(const double *Rho, const std::vector<int> &Pat);

  // --- primal
  SolveStatus primal(const SolveOptions &Opts, bool Phase1);
  double infeasibilitySum() const;

  // --- dual
  /// True when reoptimizeDual may skip installBasis, the dual-feasibility
  /// validation, and the entry refresh: \p Start is exactly the basis the
  /// engine holds, the last dual run ended Optimal, and no nonbasic status
  /// needs a flip under the current bounds.
  bool plungeFastPathOk(const Basis &Start) const;
  /// With \p ReuseDualState the initial O(m^2) refresh is skipped: XB and
  /// DualRedCost are taken as current (the plunge fast path in
  /// reoptimizeDual maintains them incrementally across nodes).
  SolveStatus dual(const SolveOptions &Opts, bool ReuseDualState);

  void extract();

  const Model &M;
  std::shared_ptr<const SparseMatrix> Cols;
  int NumRows = 0;
  int NumStruct = 0;
  int NumCols = 0; // NumStruct + NumRows (logicals).
  int RefactorInterval = 100;

  /// Internal minimization costs per column (logicals cost zero).
  std::vector<double> Cost;
  /// Mutable structural bounds (branching state) and the pristine copies.
  std::vector<double> Lower, Upper;
  std::vector<double> RootLower, RootUpper;
  /// Logical-column bounds derived from row kinds (fixed).
  std::vector<double> LogLower, LogUpper;
  /// Row right-hand sides (fixed).
  std::vector<double> Rhs;

  std::vector<VarStatus> Status; // Per column.
  std::vector<int> BasicCol;     // Per row.
  std::vector<int> RowOfBasic;   // Per column; -1 when nonbasic.
  /// Sparse LU of the *base* basis B0 from the last refactorization. The
  /// current basis inverse is the product of the eta file applied on top:
  /// B^-1 = E_k ... E_1 B0^-1.
  BasisLU Base;
  /// One product-form eta per pivot since the last refactorization: the
  /// FTRAN column W of the entering variable, split into the pivot element
  /// (Piv = W[Row]) and the off-pivot nonzeros, packed as (index, value)
  /// pairs in EtaIdx/EtaVal[Begin, End) (Row excluded). Appending an eta
  /// is O(nnz(W)) and allocates nothing once the file has grown.
  struct Eta {
    int Row;
    double Piv;
    int Begin, End;
  };
  std::vector<Eta> Etas;
  std::vector<int> EtaIdx;
  std::vector<double> EtaVal;
  /// Row-wise view of the same entries for sparse BTRAN seeds: the newest
  /// entry of row I is EtaRowHead[I] (-1 if none) and EtaNext links each
  /// entry to the row's next older one. Cursor is BTRAN's per-seed-row
  /// position in those lists.
  std::vector<int> EtaNext, EtaRowHead;
  mutable std::vector<int> Cursor;
  /// Approximate flop count burned replaying the eta file since the last
  /// factorization reset. The pivot loops apply the rent-or-buy
  /// refactorization rule: once ReplayOps exceeds a small multiple of the
  /// last factor's counted work (Base.factorCost()), they refactorize --
  /// self-tuning against what the factorization actually cost.
  mutable std::size_t ReplayOps = 0;
  std::vector<double> XB; // Basic values per row.

  std::vector<double> WorkY, WorkW, WorkC;

  /// Maintained primal reduced costs (one per column, zero for basic
  /// columns), updated incrementally from the pivot row each iteration
  /// and rebuilt from the factorization on every refresh.
  std::vector<double> PrimalD;
  /// Devex reference weights (one per column). Persist across solves so
  /// branch-and-bound children inherit the parent's pricing history;
  /// reset only on a cold start.
  std::vector<double> DevexW;
  /// Pivot-row alpha scratch: values, touched-column list, touch marks.
  std::vector<double> AlphaR;
  std::vector<int> AlphaTouched;
  std::vector<unsigned char> AlphaMark;
  /// Hypersparsity patterns: FTRAN result, pivot row of B^-1, scaled
  /// pivot row inside applyPivot, accumulated dual-change rows.
  std::vector<int> PatW, PatRho, PatP, PatDy;
  /// BTRAN output scratch: the requested B^-1 row, pattern in PatRho.
  std::vector<double> RhoVec;
  /// Phase-1 violation state per row (-1 below lower, +1 above upper).
  std::vector<signed char> ViolState;
  /// Phase-1 dual-change accumulator (dense over rows, kept all-zero
  /// between uses) and its touch marks.
  std::vector<double> DyVal;
  std::vector<unsigned char> DyMark;
  /// Old-violation scratch aligned with PatW during one pivot.
  std::vector<double> ViolOld;

  double Objective = 0.0;
  std::vector<double> StructValues;
  std::int64_t Iterations = 0;
  /// Dual-simplex state carried across back-to-back warm reoptimizations
  /// (branch-and-bound plunges). Valid only while DualStateValid: the last
  /// dual run ended Optimal and the basis has not been disturbed since, so
  /// a child node that reuses the exact held basis can diff its bound
  /// changes against LastNonbasic and skip the per-node refresh.
  std::vector<double> DualRedCost;
  std::vector<double> LastNonbasic;
  bool DualStateValid = false;
  /// Set when the most recent solve call engaged the Bland rule.
  bool UsedBland = false;
  /// Pivots since the last full refactorization. Survives across solve
  /// calls: warm restarts that reuse the held factorization (plunging)
  /// must not reset the drift clock.
  int SinceRefactor = 0;
};

} // namespace aqua::lp

#endif // AQUA_LP_REVISEDSIMPLEX_H
