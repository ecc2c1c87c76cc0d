//===- RevisedSimplex.cpp - Bounded-variable revised simplex ----------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Implementation notes
// --------------------
// Standard computational form: every model row becomes an equality
//   a_i . x  +  s_i  =  rhs_i
// where s_i is the row's logical column with bounds derived from the row
// kind (LE: [0,inf), GE: (-inf,0], EQ: [0,0]). The basis always has
// dimension m = numRows; finite variable bounds never add rows.
//
// The basis is held as a sparse LU (BasisLU) plus a product-form eta file
// appended on every pivot; FTRAN/BTRAN replay the etas on top of the
// O(m + nnz) LU solves. The rent-or-buy rule refactorizes once eta replay
// has cost as much as the last factor's counted work (factorCost()), and
// the triangular-first LU keeps that count honest: a factor of enzyme_n6's
// optimal basis costs ~14 LU FTRANs (the Markowitz LU it replaced cost ~90
// while its count claimed about one). The rule re-factors every ~23
// pivots (33 times in an n6 solve, 30 before), and a solve spends about a
// tenth of its time factoring instead of about a third. The eta file
// stays short, per-pivot work stays output-sensitive, and no m x m array
// is ever materialized.
//
//===----------------------------------------------------------------------===//

#include "aqua/lp/RevisedSimplex.h"

#include "aqua/lp/Tolerances.h"
#include "aqua/obs/Metrics.h"
#include "aqua/obs/Timer.h"
#include "aqua/support/Fatal.h"

#include <algorithm>
#include <cmath>

using namespace aqua;
using namespace aqua::lp;

namespace {

/// Global-registry instruments, resolved once. Pivots are counted at the
/// pivot sites (one relaxed increment each) rather than flushed from the
/// member counter, so warm-start fallback chains never double- or
/// under-count.
struct SimplexMetrics {
  obs::Counter &Pivots = obs::metrics().counter("lp.pivots");
  obs::Counter &Refactorizations =
      obs::metrics().counter("lp.refactorizations");
  obs::Counter &ColdSolves = obs::metrics().counter("lp.cold_solves");
  obs::Counter &WarmReopts = obs::metrics().counter("lp.warm_reopts");
  obs::Counter &WarmFastPath = obs::metrics().counter("lp.warm_fast_path");
  obs::Counter &WarmColdFallbacks =
      obs::metrics().counter("lp.warm_cold_fallbacks");
  /// Full rebuilds of the maintained reduced-cost vector (entry, each
  /// refactorization, and drift-control backstops).
  obs::Counter &PricingFullRecomputes =
      obs::metrics().counter("lp.pricing_full_recomputes");
  /// Entering candidates whose maintained reduced cost disagreed with the
  /// factorization beyond tolerance and were repaired in place.
  obs::Counter &PricingDriftRepairs =
      obs::metrics().counter("lp.pricing_drift_repairs");
  /// Devex reference-framework resets (fresh cold-basis installs).
  obs::Counter &DevexResets = obs::metrics().counter("lp.devex_resets");
  /// Structurals the crash made basic, summed over cold solves (none when
  /// a solve fell back to the all-logical basis).
  obs::Counter &CrashStructurals =
      obs::metrics().counter("lp.crash_structurals");
  /// Crash bases that failed to factor; those solves start all-logical.
  obs::Counter &CrashFallbacks = obs::metrics().counter("lp.crash_fallbacks");
  /// FTRAN results with a sparse nonzero pattern (< 10% of m) vs dense;
  /// the hypersparse-vs-dense solve mix of the pivot loops.
  obs::Counter &FtranHypersparse =
      obs::metrics().counter("lp.ftran_hypersparse");
  obs::Counter &FtranDense = obs::metrics().counter("lp.ftran_dense");
  /// Reduced costs / devex weights inherited from a warm-start basis
  /// snapshot, skipping the O(m^2) dual recomputation.
  obs::Counter &WarmDualInherits =
      obs::metrics().counter("lp.warm_dual_inherits");
  /// Wall time of each basis factorization (refactorizations and
  /// cold-basis installs).
  obs::Histogram &RefactorSec = obs::metrics().histogram(
      "lp.refactor_sec", {1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
                          1e-2, 3e-2, 1e-1});
};

SimplexMetrics &met() {
  static SimplexMetrics M;
  return M;
}

} // namespace

const char *aqua::lp::lpPricingName(LpPricing P) {
  switch (P) {
  case LpPricing::Devex:
    return "devex";
  case LpPricing::Bland:
    return "bland";
  }
  AQUA_UNREACHABLE("bad LpPricing");
}

namespace {

/// Slack accepted on reduced-cost signs when validating a warm-start basis
/// for the dual simplex; wider than tol::Cost because the duals come from
/// a refactorized copy of a basis optimized elsewhere.
constexpr double DualFeasTol = 1e-7;

} // namespace

RevisedSimplex::RevisedSimplex(const Model &Model,
                               std::shared_ptr<const SparseMatrix> Shared)
    : M(Model), Cols(std::move(Shared)) {
  if (!Cols)
    Cols = std::make_shared<const SparseMatrix>(M);
  NumRows = M.numRows();
  NumStruct = M.numVars();
  NumCols = NumStruct + NumRows;

  double Sign = M.isMaximize() ? -1.0 : 1.0;
  Cost.assign(NumCols, 0.0);
  Lower.resize(NumStruct);
  Upper.resize(NumStruct);
  for (VarId V = 0; V < NumStruct; ++V) {
    Cost[V] = Sign * M.var(V).ObjCoef;
    Lower[V] = M.var(V).Lower;
    Upper[V] = M.var(V).Upper;
  }
  RootLower = Lower;
  RootUpper = Upper;

  LogLower.assign(NumRows, 0.0);
  LogUpper.assign(NumRows, 0.0);
  Rhs.assign(NumRows, 0.0);
  for (RowId R = 0; R < NumRows; ++R) {
    Rhs[R] = M.row(R).Rhs;
    switch (M.row(R).Kind) {
    case RowKind::LE:
      LogLower[R] = 0.0;
      LogUpper[R] = Infinity;
      break;
    case RowKind::GE:
      LogLower[R] = -Infinity;
      LogUpper[R] = 0.0;
      break;
    case RowKind::EQ:
      LogLower[R] = LogUpper[R] = 0.0;
      break;
    }
  }

  Status.assign(NumCols, VarStatus::AtLower);
  BasicCol.assign(NumRows, -1);
  RowOfBasic.assign(NumCols, -1);
  XB.assign(NumRows, 0.0);
  WorkY.assign(NumRows, 0.0);
  WorkW.assign(NumRows, 0.0);
  WorkC.assign(NumRows, 0.0);
  StructValues.assign(NumStruct, 0.0);

  PrimalD.assign(NumCols, 0.0);
  DevexW.assign(NumCols, 1.0);
  AlphaR.assign(NumCols, 0.0);
  AlphaMark.assign(NumCols, 0);
  AlphaTouched.reserve(NumCols);
  PatW.reserve(NumRows);
  PatRho.reserve(NumRows);
  PatP.reserve(NumRows);
  PatDy.reserve(NumRows);
  ViolState.assign(NumRows, 0);
  DyVal.assign(NumRows, 0.0);
  DyMark.assign(NumRows, 0);
  RhoVec.assign(NumRows, 0.0);
  EtaRowHead.assign(NumRows, -1);
}

double RevisedSimplex::colLower(int Col) const {
  return Col < NumStruct ? Lower[Col] : LogLower[Col - NumStruct];
}

double RevisedSimplex::colUpper(int Col) const {
  return Col < NumStruct ? Upper[Col] : LogUpper[Col - NumStruct];
}

double RevisedSimplex::nonbasicValue(int Col) const {
  switch (Status[Col]) {
  case VarStatus::AtLower:
    return colLower(Col);
  case VarStatus::AtUpper:
    return colUpper(Col);
  case VarStatus::Free:
    return 0.0;
  case VarStatus::Basic:
    break;
  }
  AQUA_UNREACHABLE("nonbasicValue on basic column");
}

double RevisedSimplex::columnDot(int Col, const double *Y) const {
  if (Col < NumStruct)
    return Cols->dotColumn(Col, Y);
  return Y[Col - NumStruct];
}

void RevisedSimplex::ftran(int Col, std::vector<double> &W,
                           std::vector<int> *Pat) const {
  W.assign(NumRows, 0.0);
  if (Col < NumStruct) {
    for (const SparseMatrix::Entry *E = Cols->colBegin(Col),
                                   *End = Cols->colEnd(Col);
         E != End; ++E)
      if (E->Value != 0.0)
        W[E->Row] += E->Value;
  } else {
    W[Col - NumStruct] = 1.0;
  }
  Base.ftran(W);
  applyEtas(W);
  if (!Pat)
    return;
  // One O(m) scan buys every downstream loop (ratio test, XB update,
  // pivot update) a walk over nnz(W) instead of m.
  Pat->clear();
  for (int I = 0; I < NumRows; ++I)
    if (W[I] != 0.0)
      Pat->push_back(I);
  if (10 * static_cast<int>(Pat->size()) < NumRows)
    met().FtranHypersparse.add();
  else
    met().FtranDense.add();
}

void RevisedSimplex::gatherRowAlphas(const double *Rho,
                                     const std::vector<int> &Pat) {
  for (int C : AlphaTouched) {
    AlphaR[C] = 0.0;
    AlphaMark[C] = 0;
  }
  AlphaTouched.clear();
  for (int I : Pat) {
    double RV = Rho[I];
    int LC = NumStruct + I; // Logical column of row I: alpha is Rho[I].
    if (!AlphaMark[LC]) {
      AlphaMark[LC] = 1;
      AlphaTouched.push_back(LC);
    }
    AlphaR[LC] += RV;
    for (const SparseMatrix::RowEntry *E = Cols->rowBegin(I),
                                      *End = Cols->rowEnd(I);
         E != End; ++E) {
      if (!AlphaMark[E->Col]) {
        AlphaMark[E->Col] = 1;
        AlphaTouched.push_back(E->Col);
      }
      AlphaR[E->Col] += RV * E->Value;
    }
  }
}

VarStatus RevisedSimplex::restingStatus(int Col) const {
  if (colLower(Col) != -Infinity)
    return VarStatus::AtLower;
  if (colUpper(Col) != Infinity)
    return VarStatus::AtUpper;
  return VarStatus::Free;
}

void RevisedSimplex::installLogicalBasis() {
  for (int C = 0; C < NumStruct; ++C)
    Status[C] = restingStatus(C);
  for (int R = 0; R < NumRows; ++R) {
    Status[NumStruct + R] = VarStatus::Basic;
    BasicCol[R] = NumStruct + R;
  }
}

int RevisedSimplex::crashStructurals() {
  // Candidates in Bixby's class order: free columns (which never want to
  // leave), then one-bounded, then boxed; fixed columns never enter.
  // Within a class the model's own column order: the volume formulations
  // list edge volumes in the order the DAG was built. On enzyme_n6 that
  // seats as many structurals as sparsest-first (435) but picks rows that
  // leave 325 pivots instead of 360.
  std::vector<std::pair<int, int>> Order; // (class, column)
  Order.reserve(NumStruct);
  for (int C = 0; C < NumStruct; ++C) {
    const bool HasL = Lower[C] != -Infinity, HasU = Upper[C] != Infinity;
    if (HasL && HasU && Lower[C] == Upper[C])
      continue;
    Order.push_back({static_cast<int>(HasL) + static_cast<int>(HasU), C});
  }
  std::sort(Order.begin(), Order.end());

  // The all-logical start: each structural at its resting value, each
  // logical holding its row's slack. Every pick keeps X and Slack exact.
  std::vector<double> X(NumStruct), Slack = Rhs;
  for (int C = 0; C < NumStruct; ++C) {
    X[C] = nonbasicValue(C);
    for (const SparseMatrix::Entry *E = Cols->colBegin(C),
                                   *End = Cols->colEnd(C);
         E != End; ++E)
      Slack[E->Row] -= E->Value * X[C];
  }
  auto violation = [&](int R, double S) {
    return S < LogLower[R] - tol::Feas   ? LogLower[R] - S
           : S > LogUpper[R] + tol::Feas ? S - LogUpper[R]
                                         : 0.0;
  };

  // The lower triangle. A pick may have no nonzero in a row an earlier
  // pick took, so the earlier picks' values never move. It moves off its
  // bound by the step that makes its pivot row tight, which sends that
  // row's logical to its finite bound: 0 for every row kind, the upper
  // bound of a GE row's (-inf, 0] logical. The step must keep the pick
  // within its own bounds and must not add to the total bound violation,
  // so the crash start is never less feasible than the all-logical one:
  // an infeasible model proves so in fewer phase-1 pivots, not more.
  // An entry under 1% of the column's largest is never the pivot. Among
  // the rows that qualify the one that removes the most violation wins,
  // then the largest entry; only the first few rows of a long column are
  // tried, which keeps the crash O(nnz).
  constexpr int MaxRowsTried = 8;
  std::vector<unsigned char> Took(NumRows, 0);
  int Taken = 0;
  for (const auto &[Class, C] : Order) {
    const SparseMatrix::Entry *Begin = Cols->colBegin(C),
                              *End = Cols->colEnd(C);
    double Gamma = 0.0;
    bool Blocked = false;
    for (const SparseMatrix::Entry *E = Begin; E != End && !Blocked; ++E) {
      Blocked = E->Value != 0.0 && Took[E->Row];
      Gamma = std::max(Gamma, std::fabs(E->Value));
    }
    if (Blocked)
      continue;
    int Row = -1, Tried = 0;
    double Step = 0.0, BestChange = 0.0, BestMag = 0.0;
    for (const SparseMatrix::Entry *P = Begin; P != End && Tried < MaxRowsTried;
         ++P) {
      const double Mag = std::fabs(P->Value);
      if (Mag == 0.0 || Mag < 0.01 * Gamma)
        continue;
      ++Tried;
      const double Delta = Slack[P->Row] / P->Value;
      if (X[C] + Delta < Lower[C] - tol::Feas ||
          X[C] + Delta > Upper[C] + tol::Feas)
        continue;
      double Change = -violation(P->Row, Slack[P->Row]);
      for (const SparseMatrix::Entry *E = Begin; E != End; ++E)
        if (E != P && E->Value != 0.0)
          Change += violation(E->Row, Slack[E->Row] - E->Value * Delta) -
                    violation(E->Row, Slack[E->Row]);
      if (Change > tol::Feas)
        continue;
      if (Row < 0 || Change < BestChange - tol::Feas ||
          (Change <= BestChange + tol::Feas && Mag > BestMag)) {
        Row = P->Row;
        Step = Delta;
        BestChange = Change;
        BestMag = Mag;
      }
    }
    if (Row < 0)
      continue;
    X[C] += Step;
    for (const SparseMatrix::Entry *E = Begin; E != End; ++E)
      Slack[E->Row] -= E->Value * Step;
    Slack[Row] = 0.0;
    Took[Row] = 1;
    Status[NumStruct + Row] = restingStatus(NumStruct + Row);
    Status[C] = VarStatus::Basic;
    BasicCol[Row] = C;
    ++Taken;
  }
  return Taken;
}

void RevisedSimplex::installColdBasis() {
  // Fresh start: the devex reference framework restarts with it.
  std::fill(DevexW.begin(), DevexW.end(), 1.0);
  met().DevexResets.add();
  installLogicalBasis();
  int Taken = crashStructurals();
  auto factorInstalled = [&] {
    std::fill(RowOfBasic.begin(), RowOfBasic.end(), -1);
    for (int R = 0; R < NumRows; ++R)
      RowOfBasic[BasicCol[R]] = R;
    return factorBase();
  };
  clearEtas();
  if (!factorInstalled()) {
    // A pivot the crash's relative test accepted is below the factor's
    // absolute one. The all-logical basis is the identity: m trivial
    // singleton pivots that cannot fail.
    met().CrashFallbacks.add();
    installLogicalBasis();
    Taken = 0;
    factorInstalled();
  }
  met().CrashStructurals.add(static_cast<std::uint64_t>(Taken));
}

bool RevisedSimplex::installBasis(const Basis &B) {
  if (static_cast<int>(B.Status.size()) != NumCols ||
      static_cast<int>(B.BasicCol.size()) != NumRows)
    return false;
  // Plunging fast path: when the incoming basis matrix equals the one the
  // engine already holds (a child reusing its parent's basis right after
  // the parent solved), the factorization is still valid -- skip it.
  bool SameBasis = Base.valid() && B.BasicCol == BasicCol;
  Status = B.Status;
  BasicCol = B.BasicCol;
  std::fill(RowOfBasic.begin(), RowOfBasic.end(), -1);
  for (int R = 0; R < NumRows; ++R) {
    int C = BasicCol[R];
    if (C < 0 || C >= NumCols || RowOfBasic[C] >= 0)
      return false;
    RowOfBasic[C] = R;
    if (Status[C] != VarStatus::Basic)
      return false;
  }
  // Sanitize nonbasic statuses against the *current* bounds: branching may
  // have given a finite bound to a column the parent held Free, or removed
  // nothing (bounds only tighten), but a stale status must never reference
  // an infinite bound.
  for (int C = 0; C < NumCols; ++C) {
    if (Status[C] == VarStatus::Basic)
      continue;
    double L = colLower(C), U = colUpper(C);
    switch (Status[C]) {
    case VarStatus::AtLower:
      if (L == -Infinity)
        Status[C] = U != Infinity ? VarStatus::AtUpper : VarStatus::Free;
      break;
    case VarStatus::AtUpper:
      if (U == Infinity)
        Status[C] = L != -Infinity ? VarStatus::AtLower : VarStatus::Free;
      break;
    case VarStatus::Free:
      if (L != -Infinity)
        Status[C] = VarStatus::AtLower;
      else if (U != Infinity)
        Status[C] = VarStatus::AtUpper;
      break;
    case VarStatus::Basic:
      break;
    }
  }
  return SameBasis || refactorize();
}

bool RevisedSimplex::refactorize() {
  if (NumRows == 0)
    return true;
  met().Refactorizations.add();
  // Sparse LU of the current basis. A duplicated logical or a singular
  // kernel surfaces as factor() returning false.
  if (!factorBase())
    return false;
  clearEtas();
  return true;
}

bool RevisedSimplex::factorBase() {
  WallTimer Timer;
  bool Ok = Base.factor(*Cols, NumStruct, BasicCol);
  met().RefactorSec.observe(Timer.seconds());
  return Ok;
}

void RevisedSimplex::clearEtas() {
  Etas.clear();
  EtaIdx.clear();
  EtaVal.clear();
  EtaNext.clear();
  std::fill(EtaRowHead.begin(), EtaRowHead.end(), -1);
  ReplayOps = 0;
  SinceRefactor = 0;
}

void RevisedSimplex::computeBasicValues() {
  // XB = B^-1 * (Rhs - sum_j A_j * x_j over nonbasic j with x_j != 0).
  WorkC = Rhs;
  for (int C = 0; C < NumCols; ++C) {
    if (Status[C] == VarStatus::Basic)
      continue;
    double X = nonbasicValue(C);
    if (X == 0.0)
      continue;
    if (C < NumStruct) {
      for (const SparseMatrix::Entry *E = Cols->colBegin(C),
                                     *End = Cols->colEnd(C);
           E != End; ++E)
        WorkC[E->Row] -= E->Value * X;
    } else {
      WorkC[C - NumStruct] -= X;
    }
  }
  XB = WorkC;
  Base.ftran(XB);
  applyEtas(XB);
}

void RevisedSimplex::computeDuals(const std::vector<double> &CostB,
                                  std::vector<double> &Y) const {
  // With an eta file in play the row-space seed passes through the
  // transposed etas (newest first) before hitting the base inverse.
  Y = CostB;
  for (auto It = Etas.rbegin(); It != Etas.rend(); ++It) {
    double Acc = Y[It->Row];
    for (int K = It->Begin; K < It->End; ++K)
      Acc -= Y[EtaIdx[K]] * EtaVal[K];
    Y[It->Row] = Acc / It->Piv;
  }
  Base.btran(Y);
}

double RevisedSimplex::reducedCost(int Col, const double *Y) const {
  return Cost[Col] - columnDot(Col, Y);
}

void RevisedSimplex::applyPivot(int LeaveRow, int EnterCol,
                                const std::vector<double> &W,
                                const std::vector<int> &Pat) {
  // Product-form update: record the FTRAN column as an eta instead of
  // touching the base inverse -- O(nnz(W)) appended to the packed eta
  // file. FTRAN/BTRAN replay the eta file on top of B0^-1; the periodic
  // refactorization absorbs it back into the base.
  Eta E;
  E.Row = LeaveRow;
  E.Piv = W[LeaveRow];
  E.Begin = E.End = static_cast<int>(EtaIdx.size());
  for (int I : Pat) {
    if (I == LeaveRow || std::fabs(W[I]) < tol::Zero)
      continue;
    EtaIdx.push_back(I);
    EtaVal.push_back(W[I]);
    EtaNext.push_back(EtaRowHead[I]);
    EtaRowHead[I] = E.End++;
  }
  Etas.push_back(E);
  int OldCol = BasicCol[LeaveRow];
  RowOfBasic[OldCol] = -1;
  BasicCol[LeaveRow] = EnterCol;
  RowOfBasic[EnterCol] = LeaveRow;
  Status[EnterCol] = VarStatus::Basic;
  ++SinceRefactor;
}

void RevisedSimplex::applyEtas(std::vector<double> &V) const {
  std::size_t Work = Etas.size();
  for (const Eta &E : Etas) {
    double T = V[E.Row];
    if (T == 0.0)
      continue;
    double Tp = T / E.Piv;
    V[E.Row] = Tp;
    for (int K = E.Begin; K < E.End; ++K)
      V[EtaIdx[K]] -= EtaVal[K] * Tp;
    Work += E.End - E.Begin;
  }
  ReplayOps += Work;
}

void RevisedSimplex::btran(std::vector<double> &YVal,
                           std::vector<unsigned char> &YMark,
                           std::vector<int> &YPat, std::vector<double> &Rho,
                           std::vector<int> &RhoPat) const {
  // y^T B^-1 = ((y^T E_k) E_k-1 ... E_1) B0^-1. A transposed eta changes
  // only component Row, so the seed gains at most one nonzero per eta.
  // The seed is usually far sparser than an eta (a couple of rows against
  // hundreds), so the replay walks the seed, not the etas: each seed row
  // keeps a cursor into its newest-first list of eta entries, and eta k
  // reads the row's entry only if the cursor sits inside k's range.
  std::size_t Work = 0;
  Cursor.clear();
  for (int I : YPat)
    Cursor.push_back(EtaRowHead[I]);
  for (auto It = Etas.rbegin(); It != Etas.rend(); ++It) {
    const Eta &E = *It;
    double Acc = YVal[E.Row];
    for (std::size_t P = 0; P < YPat.size(); ++P) {
      int &J = Cursor[P];
      while (J >= E.End) // A row added mid-replay starts at newer etas.
        J = EtaNext[J];
      if (J >= E.Begin) {
        Acc -= YVal[YPat[P]] * EtaVal[J];
        J = EtaNext[J];
      }
    }
    Acc /= E.Piv;
    if (YVal[E.Row] == 0.0 && Acc != 0.0 && !YMark[E.Row]) {
      YMark[E.Row] = 1;
      YPat.push_back(E.Row);
      Cursor.push_back(EtaRowHead[E.Row]);
    }
    YVal[E.Row] = Acc;
    Work += YPat.size();
  }
  // Rho = B0^-T applied to the accumulated seed -- one sparse-LU btran,
  // O(m + nnz(LU)) regardless of how many nonzeros the eta replay added.
  // Only the eta replay itself counts toward the rent-or-buy debt.
  ReplayOps += Work;
  std::fill(Rho.begin(), Rho.end(), 0.0);
  for (int P : YPat)
    Rho[P] = YVal[P];
  Base.btran(Rho);
  RhoPat.clear();
  for (int K = 0; K < NumRows; ++K)
    if (Rho[K] != 0.0)
      RhoPat.push_back(K);
  for (int P : YPat) {
    YVal[P] = 0.0;
    YMark[P] = 0;
  }
  YPat.clear();
}

void RevisedSimplex::btranRow(int P) {
  DyVal[P] = 1.0;
  DyMark[P] = 1;
  PatDy.clear();
  PatDy.push_back(P);
  btran(DyVal, DyMark, PatDy, RhoVec, PatRho);
}

double RevisedSimplex::infeasibilitySum() const {
  double Sum = 0.0;
  for (int R = 0; R < NumRows; ++R) {
    int C = BasicCol[R];
    double L = colLower(C), U = colUpper(C);
    if (XB[R] < L)
      Sum += L - XB[R];
    else if (XB[R] > U)
      Sum += XB[R] - U;
  }
  return Sum;
}

namespace {

/// Internal per-solve budget tracker. The safety cap bounds pivots even
/// when the caller asked for "unlimited": a cycling pivot sequence must
/// surface as NumericFail, never as a hang.
struct Budget {
  const SolveOptions &Opts;
  WallTimer Timer;
  std::int64_t SafetyCap;

  Budget(const SolveOptions &Opts, int Rows, int Cols)
      : Opts(Opts),
        SafetyCap(10000 + 500LL * (static_cast<std::int64_t>(Rows) + Cols)) {}

  /// Returns the status that should abort the loop, or Optimal to keep
  /// going.
  SolveStatus check(std::int64_t Iterations) {
    if (Opts.MaxIterations > 0 && Iterations >= Opts.MaxIterations)
      return SolveStatus::IterationLimit;
    if (Iterations >= SafetyCap)
      return SolveStatus::NumericFail;
    if (Opts.TimeLimitSec > 0.0 && (Iterations & 63) == 0 &&
        Timer.seconds() > Opts.TimeLimitSec)
      return SolveStatus::TimeLimit;
    return SolveStatus::Optimal;
  }
};

} // namespace

SolveStatus RevisedSimplex::primal(const SolveOptions &Opts, bool Phase1) {
  Budget B(Opts, NumRows, NumCols);
  bool UseBland = Opts.Pricing == LpPricing::Bland;
  int StallCount = 0;
  int RepairStreak = 0;
  double LastMerit = Infinity; // Phase-1 infeasibility or phase-2 objective.
  std::vector<double> &W = WorkW;

  // Everything the iteration needs is *maintained* across pivots: XB
  // (rank-one updates), the reduced costs PrimalD (pivot-row updates),
  // the phase-1 violation states, and the merit itself. Full recomputes
  // happen only here, after each periodic refactorization, and as the
  // drift-control backstop -- never per iteration.
  double Merit = 0.0;
  bool PricesFresh = false;

  // Exact tol-filtered phase-1 infeasibility from the current XB; O(m).
  auto phase1Merit = [&] {
    double Sum = 0.0;
    for (int R = 0; R < NumRows; ++R) {
      int C = BasicCol[R];
      double L = colLower(C), U = colUpper(C);
      if (XB[R] < L - tol::Feas)
        Sum += L - XB[R];
      else if (XB[R] > U + tol::Feas)
        Sum += XB[R] - U;
    }
    return Sum;
  };

  auto refresh = [&] {
    met().PricingFullRecomputes.add();
    computeBasicValues();
    Merit = 0.0;
    if (Phase1) {
      for (int R = 0; R < NumRows; ++R) {
        int C = BasicCol[R];
        double L = colLower(C), U = colUpper(C);
        if (XB[R] < L - tol::Feas) {
          ViolState[R] = -1;
          Merit += L - XB[R];
        } else if (XB[R] > U + tol::Feas) {
          ViolState[R] = 1;
          Merit += XB[R] - U;
        } else {
          ViolState[R] = 0;
        }
      }
    } else {
      for (int R = 0; R < NumRows; ++R)
        Merit += Cost[BasicCol[R]] * XB[R];
      for (int C = 0; C < NumCols; ++C)
        if (Status[C] != VarStatus::Basic && Cost[C] != 0.0)
          Merit += Cost[C] * nonbasicValue(C);
    }
    for (int R = 0; R < NumRows; ++R)
      WorkC[R] =
          Phase1 ? static_cast<double>(ViolState[R]) : Cost[BasicCol[R]];
    computeDuals(WorkC, WorkY);
    for (int C = 0; C < NumCols; ++C)
      PrimalD[C] = Status[C] == VarStatus::Basic
                       ? 0.0
                       : (Phase1 ? 0.0 : Cost[C]) -
                             columnDot(C, WorkY.data());
    PricesFresh = true;
  };
  refresh();

  // Applies the maintained-D corrections after phase-1 basic-cost changes
  // (rows whose violation state flipped): Dy = sum_p DeltaC_p * row p of
  // B^-1, then D_j -= Dy . A_j over the columns those rows touch.
  std::vector<std::pair<int, double>> ChangedRows;
  auto applyCostChanges = [&] {
    if (ChangedRows.empty())
      return;
    PatDy.clear();
    for (const auto &[P, DC] : ChangedRows) {
      if (!DyMark[P]) {
        DyMark[P] = 1;
        PatDy.push_back(P);
      }
      DyVal[P] += DC;
    }
    btran(DyVal, DyMark, PatDy, RhoVec, PatRho);
    gatherRowAlphas(RhoVec.data(), PatRho);
    for (int C : AlphaTouched)
      if (Status[C] != VarStatus::Basic)
        PrimalD[C] -= AlphaR[C];
    ChangedRows.clear();
  };

  // Recomputes violation state + merit contribution of the rows in PatW
  // after their XB moved (ViolOld holds the pre-move contributions) and
  // queues cost-change corrections. OldCostAtLeaveRow: the fixed-c value
  // the maintained D currently assumes for the column basic at LeaveRow
  // (0 right after a pivot brought a nonbasic column in; the stored state
  // on a bound flip). Pass LeaveRow = -1 for bound flips.
  auto updatePhase1Rows = [&](int LeaveRow) {
    for (size_t Idx = 0; Idx < PatW.size(); ++Idx) {
      int R = PatW[Idx];
      int C = BasicCol[R];
      double L = colLower(C), U = colUpper(C);
      double NV = 0.0;
      signed char NS = 0;
      if (XB[R] < L - tol::Feas) {
        NV = L - XB[R];
        NS = -1;
      } else if (XB[R] > U + tol::Feas) {
        NV = XB[R] - U;
        NS = 1;
      }
      Merit += NV - ViolOld[Idx];
      signed char AssumedCost = R == LeaveRow ? 0 : ViolState[R];
      if (NS != AssumedCost)
        ChangedRows.push_back({R, static_cast<double>(NS - AssumedCost)});
      ViolState[R] = NS;
    }
    applyCostChanges();
  };

  auto captureOldViols = [&] {
    ViolOld.resize(PatW.size());
    for (size_t Idx = 0; Idx < PatW.size(); ++Idx) {
      int R = PatW[Idx];
      int C = BasicCol[R];
      double L = colLower(C), U = colUpper(C);
      if (XB[R] < L - tol::Feas)
        ViolOld[Idx] = L - XB[R];
      else if (XB[R] > U + tol::Feas)
        ViolOld[Idx] = XB[R] - U;
      else
        ViolOld[Idx] = 0.0;
    }
  };

  for (;;) {
    if (SolveStatus S = B.check(Iterations); S != SolveStatus::Optimal)
      return S;

    if (Phase1 && Merit <= tol::Phase1) {
      // Confirm on an exact O(m) pass before ending the phase; the
      // maintained merit accumulates float dust across pivots.
      Merit = phase1Merit();
      if (Merit <= tol::Phase1)
        return SolveStatus::Optimal;
    }

    // Stall detection keys off the incrementally maintained merit -- no
    // full O(n + m) recompute per iteration. Degenerate plateaus scale
    // with the basis dimension (phase 1 on an enzyme_n12 model sits
    // thousands of pivots at constant infeasibility before breaking
    // through), so on large bases the watchdog scales the configured
    // threshold with m to tell "degenerate but progressing" from genuine
    // cycling; below 256 rows the configured value applies unscaled.
    const int Stall = Opts.StallThreshold * std::max(1, NumRows / 256);
    if (Merit < LastMerit - 1e-12) {
      StallCount = 0;
      if (Opts.Pricing != LpPricing::Bland)
        UseBland = false;
      LastMerit = Merit;
    } else {
      if (++StallCount > Stall)
        UseBland = true;
      if (StallCount > 4 * Stall)
        return SolveStatus::NumericFail;
    }
    if (UseBland)
      UsedBland = true;

    // Price from the maintained reduced costs. In phase 1 nonbasic costs
    // are zero, so PrimalD is -y . A_j either way.
    int Enter = -1;
    double EnterDir = 0.0, BestScore = 0.0;
    for (int C = 0; C < NumCols; ++C) {
      VarStatus St = Status[C];
      if (St == VarStatus::Basic)
        continue;
      double D = PrimalD[C];
      double Dir = 0.0;
      if (St == VarStatus::AtLower && D < -tol::Cost)
        Dir = 1.0;
      else if (St == VarStatus::AtUpper && D > tol::Cost)
        Dir = -1.0;
      else if (St == VarStatus::Free && std::fabs(D) > tol::Cost)
        Dir = D < 0.0 ? 1.0 : -1.0;
      if (Dir == 0.0)
        continue;
      if (UseBland) {
        Enter = C;
        EnterDir = Dir;
        break;
      }
      double Score = D * D / DevexW[C];
      if (Score > BestScore) {
        BestScore = Score;
        Enter = C;
        EnterDir = Dir;
      }
    }

    if (Enter < 0) {
      if (!PricesFresh) {
        // Maintained prices say optimal; verify against the factorization
        // before declaring it (drift control).
        refresh();
        continue;
      }
      if (Phase1)
        return SolveStatus::Infeasible; // Infeasibility minimized but > 0.
      return SolveStatus::Optimal;
    }

    ftran(Enter, W, &PatW);

    // Entering safeguard: the exact reduced cost from the factorization is
    // c_Enter - costB . W, one sparse dot over the FTRAN pattern. A
    // maintained value that drifted past tolerance is repaired in place;
    // if the repair kills the candidate's eligibility, re-price.
    double DTrue = Phase1 ? 0.0 : Cost[Enter];
    for (int I : PatW) {
      double CB =
          Phase1 ? static_cast<double>(ViolState[I]) : Cost[BasicCol[I]];
      if (CB != 0.0)
        DTrue -= CB * W[I];
    }
    bool Drifted = std::fabs(DTrue - PrimalD[Enter]) >
                   1e-7 * (1.0 + std::fabs(DTrue));
    PrimalD[Enter] = DTrue;
    if (Drifted) {
      met().PricingDriftRepairs.add();
      if (++RepairStreak >= 8) {
        // Pervasive drift: rebuild everything instead of repairing one
        // entry at a time.
        if (!refactorize())
          return SolveStatus::NumericFail;
        refresh();
        RepairStreak = 0;
      }
      continue; // Re-price with the repaired entry.
    }
    RepairStreak = 0;
    double DEnter = DTrue;

    // Bounded-variable ratio test over the FTRAN pattern (rows outside it
    // have W[R] == 0 and can never block). The entering column moves by
    // t >= 0 in direction EnterDir; basic row R changes by -t * Alpha
    // with Alpha = EnterDir * W[R].
    double EnterL = colLower(Enter), EnterU = colUpper(Enter);
    double OwnRange = (EnterL != -Infinity && EnterU != Infinity)
                          ? EnterU - EnterL
                          : Infinity;
    double BestT = OwnRange;
    int LeaveRow = -1;
    double LeavePivot = 0.0;
    bool LeaveAtLower = false;
    for (int R : PatW) {
      double Alpha = EnterDir * W[R];
      if (std::fabs(Alpha) <= tol::Pivot)
        continue;
      int C = BasicCol[R];
      double L = colLower(C), U = colUpper(C);
      double T = Infinity;
      bool AtL = false;
      if (Phase1 && XB[R] < L - tol::Feas) {
        // Infeasible below: blocks only when rising onto its lower bound.
        if (Alpha < 0.0) {
          T = (XB[R] - L) / Alpha;
          AtL = true;
        }
      } else if (Phase1 && XB[R] > U + tol::Feas) {
        // Infeasible above: blocks only when falling onto its upper bound.
        if (Alpha > 0.0) {
          T = (XB[R] - U) / Alpha;
          AtL = false;
        }
      } else if (Alpha > 0.0) {
        if (L != -Infinity) {
          T = (XB[R] - L) / Alpha;
          AtL = true;
        }
      } else {
        if (U != Infinity) {
          T = (XB[R] - U) / Alpha;
          AtL = false;
        }
      }
      if (T == Infinity)
        continue;
      if (T < 0.0)
        T = 0.0; // Degenerate: already at (or past) the bound.
      if (T < BestT - 1e-12 ||
          (T < BestT + 1e-12 &&
           (LeaveRow < 0 || std::fabs(Alpha) > std::fabs(LeavePivot)))) {
        BestT = T;
        LeaveRow = R;
        LeavePivot = Alpha;
        LeaveAtLower = AtL;
      }
    }

    if (LeaveRow < 0) {
      if (BestT == Infinity) {
        // No block anywhere. In phase 2 that is unboundedness; in phase 1
        // it cannot happen (the infeasibility would fall below zero), so
        // treat it as numeric trouble.
        return Phase1 ? SolveStatus::NumericFail : SolveStatus::Unbounded;
      }
      // Bound flip: the entering column traverses its whole range. The
      // basis is untouched, so the maintained reduced costs survive as-is
      // (modulo phase-1 state flips on the rows whose XB moved).
      Status[Enter] = Status[Enter] == VarStatus::AtLower ? VarStatus::AtUpper
                                                          : VarStatus::AtLower;
      double Delta = EnterDir * OwnRange;
      if (Phase1)
        captureOldViols();
      else
        Merit += DEnter * Delta;
      for (int R : PatW)
        XB[R] -= Delta * W[R];
      if (Phase1)
        updatePhase1Rows(/*LeaveRow=*/-1);
      ++Iterations;
      met().Pivots.add();
      PricesFresh = false;
    } else {
      int LeaveCol = BasicCol[LeaveRow];
      double EnterVal = nonbasicValue(Enter) + EnterDir * BestT;

      // Pivot-row alphas from the *pre-pivot* B^-1 row (BTRAN through the
      // eta file), gathered row-sparsely through the CSR mirror; they
      // drive both the reduced-cost update and the devex weight update.
      btranRow(LeaveRow);
      gatherRowAlphas(RhoVec.data(), PatRho);

      // Consistency check: the gathered alpha of the entering column and
      // the FTRAN pivot element are the same number computed two ways; a
      // mismatch means the factorization is inconsistent.
      if (std::fabs(AlphaR[Enter] - W[LeaveRow]) >
          1e-6 * (1.0 + std::fabs(W[LeaveRow]))) {
        if (!refactorize())
          return SolveStatus::NumericFail;
        refresh();
        continue;
      }

      double Theta = DEnter / W[LeaveRow];
      double WEnter = DevexW[Enter];
      double PivA = W[LeaveRow];

      if (Phase1)
        captureOldViols();
      else
        Merit += DEnter * EnterDir * BestT;
      for (int R : PatW)
        XB[R] -= EnterDir * BestT * W[R];

      // Incremental pricing: D_j -= theta * alpha_j over the touched
      // columns only; everything untouched has alpha exactly zero. Devex
      // reference weights ride the same loop.
      for (int C : AlphaTouched) {
        if (Status[C] == VarStatus::Basic)
          continue;
        if (C != Enter)
          PrimalD[C] -= Theta * AlphaR[C];
        double Rq = AlphaR[C] / PivA;
        double Cand = Rq * Rq * WEnter;
        if (Cand > DevexW[C])
          DevexW[C] = Cand;
      }

      applyPivot(LeaveRow, Enter, W, PatW);
      Status[LeaveCol] =
          LeaveAtLower ? VarStatus::AtLower : VarStatus::AtUpper;
      XB[LeaveRow] = EnterVal;
      PrimalD[Enter] = 0.0;
      PrimalD[LeaveCol] = -Theta;
      DevexW[LeaveCol] = std::max(WEnter / (PivA * PivA), 1.0);

      if (Phase1) {
        // The leaving column's own phase-1 cost drops from its old state
        // to zero (it is nonbasic now); its reduced cost shifts by the
        // same amount directly.
        double OldS = static_cast<double>(ViolState[LeaveRow]);
        if (OldS != 0.0)
          PrimalD[LeaveCol] -= OldS;
        updatePhase1Rows(LeaveRow);
      }

      ++Iterations;
      met().Pivots.add();
      PricesFresh = false;
      // Rent-or-buy factorization reset: once the work burned replaying
      // the eta file reaches the last factor's counted work -- the
      // break-even point of the ski-rental rule -- pay for a fresh factor.
      // The configured interval is only a drift-control ceiling.
      if (ReplayOps >= Base.factorCost() + static_cast<std::size_t>(NumRows) ||
          SinceRefactor >= std::max(1, RefactorInterval)) {
        if (!refactorize())
          return SolveStatus::NumericFail;
        refresh();
      }
    }
  }
}

SolveStatus RevisedSimplex::solve(const SolveOptions &Opts) {
  met().ColdSolves.add();
  Iterations = 0;
  UsedBland = Opts.Pricing == LpPricing::Bland;
  // Primal pivots rebuild the dual-state cache below only on success.
  DualStateValid = false;
  installColdBasis();
  SolveStatus S = primal(Opts, /*Phase1=*/true);
  if (S != SolveStatus::Optimal)
    return S;
  S = primal(Opts, /*Phase1=*/false);
  if (S == SolveStatus::Optimal) {
    // Phase 2 only declares Optimal with freshly verified prices, so the
    // maintained reduced costs are exact for this basis: publish them as
    // the dual-state cache so branch-and-bound children of a cold-solved
    // root take the plunge fast path instead of an O(m^2) validation.
    DualRedCost = PrimalD;
    LastNonbasic.assign(NumCols, 0.0);
    for (int C = 0; C < NumCols; ++C)
      if (Status[C] != VarStatus::Basic)
        LastNonbasic[C] = nonbasicValue(C);
    DualStateValid = true;
    extract();
  }
  return S;
}

bool RevisedSimplex::plungeFastPathOk(const Basis &Start) const {
  if (!DualStateValid || !Base.valid() || Start.empty() ||
      Start.BasicCol != BasicCol || Start.Status != Status)
    return false;
  // Every nonbasic status must still match its bounds. A mismatch (a bound
  // relaxed to infinity under an AtLower/AtUpper column, or a Free column
  // gaining a finite bound) forces a status flip, which changes that
  // column's dual-feasibility requirement -- only the slow path's
  // validation pass can vouch for the basis then. Branch-and-bound only
  // ever tightens bounds, so plunges never hit this.
  for (int C = 0; C < NumStruct; ++C) {
    switch (Status[C]) {
    case VarStatus::AtLower:
      if (Lower[C] == -Infinity)
        return false;
      break;
    case VarStatus::AtUpper:
      if (Upper[C] == Infinity)
        return false;
      break;
    case VarStatus::Free:
      if (Lower[C] != -Infinity || Upper[C] != Infinity)
        return false;
      break;
    case VarStatus::Basic:
      break;
    }
  }
  return true;
}

SolveStatus RevisedSimplex::reoptimizeDual(const Basis &Start,
                                           const SolveOptions &Opts) {
  met().WarmReopts.add();
  Iterations = 0;
  UsedBland = Opts.Pricing == LpPricing::Bland;

  // Plunge fast path: the child reuses the exact basis the engine already
  // holds from a dual solve that ended Optimal (branch-and-bound plunging
  // snapshots the basis right after the parent's solve). The LU, XB, and the
  // reduced costs are all still current, and reduced costs depend only on
  // the basis -- not on bounds -- so the only state the branching touched
  // is the resting value of the tightened nonbasic columns. Diff those
  // against LastNonbasic, adjust XB by one ftran per changed column, and
  // enter the dual loop directly, skipping installBasis, the
  // dual-feasibility validation, and the O(m^2) refresh. Any numeric drift
  // this lets through is caught by the dual stall watchdog (NumericFail ->
  // cold solve below) and by the periodic refactorization.
  if (plungeFastPathOk(Start)) {
    met().WarmFastPath.add();
    for (int C = 0; C < NumStruct; ++C) {
      if (Status[C] == VarStatus::Basic)
        continue;
      double NewVal = nonbasicValue(C);
      double Delta = NewVal - LastNonbasic[C];
      if (Delta == 0.0)
        continue;
      ftran(C, WorkW, &PatW);
      for (int R : PatW)
        XB[R] -= Delta * WorkW[R];
      LastNonbasic[C] = NewVal;
    }
    SolveStatus S = dual(Opts, /*ReuseDualState=*/true);
    if (S == SolveStatus::NumericFail) {
      met().WarmColdFallbacks.add();
      return solve(Opts);
    }
    if (S == SolveStatus::Optimal)
      extract();
    return S;
  }

  if (Start.empty() || !installBasis(Start)) {
    met().WarmColdFallbacks.add();
    return solve(Opts);
  }

  bool Inherited = false;
  if (Start.RedCost.size() == static_cast<size_t>(NumCols)) {
    // The snapshot carries its reduced costs (and devex weights).
    // Reduced costs depend only on basis and costs -- not bounds -- so
    // the parent's vector is exact here; the sign check below is the
    // same validation the recompute path does, minus its O(m^2) BTRAN.
    met().WarmDualInherits.add();
    DualRedCost = Start.RedCost;
    if (Start.DevexW.size() == static_cast<size_t>(NumCols))
      DevexW = Start.DevexW;
    for (int C = 0; C < NumCols; ++C) {
      if (Status[C] == VarStatus::Basic)
        continue;
      double D = DualRedCost[C];
      bool Bad = (Status[C] == VarStatus::AtLower && D < -DualFeasTol) ||
                 (Status[C] == VarStatus::AtUpper && D > DualFeasTol) ||
                 (Status[C] == VarStatus::Free && std::fabs(D) > DualFeasTol);
      if (Bad) {
        met().WarmColdFallbacks.add();
        return solve(Opts);
      }
    }
    computeBasicValues();
    LastNonbasic.assign(NumCols, 0.0);
    for (int C = 0; C < NumCols; ++C)
      if (Status[C] != VarStatus::Basic)
        LastNonbasic[C] = nonbasicValue(C);
    Inherited = true;
  } else {
    // Legacy snapshot without prices: validate dual feasibility the slow
    // way. A basis that was optimal before a bound change keeps its
    // reduced costs, so this only fails on stale snapshots or numeric
    // drift -- fall back to a cold solve.
    std::vector<double> CostB(NumRows, 0.0);
    for (int R = 0; R < NumRows; ++R)
      CostB[R] = Cost[BasicCol[R]];
    computeDuals(CostB, WorkY);
    for (int C = 0; C < NumCols; ++C) {
      if (Status[C] == VarStatus::Basic)
        continue;
      double D = reducedCost(C, WorkY.data());
      bool Bad = (Status[C] == VarStatus::AtLower && D < -DualFeasTol) ||
                 (Status[C] == VarStatus::AtUpper && D > DualFeasTol) ||
                 (Status[C] == VarStatus::Free && std::fabs(D) > DualFeasTol);
      if (Bad) {
        met().WarmColdFallbacks.add();
        return solve(Opts);
      }
    }
  }

  SolveStatus S = dual(Opts, /*ReuseDualState=*/Inherited);
  if (S == SolveStatus::NumericFail) {
    met().WarmColdFallbacks.add();
    return solve(Opts);
  }
  if (S == SolveStatus::Optimal)
    extract();
  return S;
}

SolveStatus RevisedSimplex::dual(const SolveOptions &Opts,
                                 bool ReuseDualState) {
  Budget B(Opts, NumRows, NumCols);
  std::vector<double> CostB(NumRows, 0.0);
  std::vector<double> &Y = WorkY;
  std::vector<double> &W = WorkW;
  std::vector<double> &RedCost = DualRedCost;
  int StallCount = 0;
  double LastViol = Infinity;

  // The cache is only valid again if this run ends Optimal with the basis
  // left untouched afterwards.
  DualStateValid = false;

  // Basic values and reduced costs are maintained *incrementally* across
  // pivots -- the O(m) rank-one updates below -- and recomputed from
  // scratch only here and after each periodic refactorization. This drops
  // two O(m^2) passes per pivot, which is what makes warm node throughput
  // in branch-and-bound scale. With ReuseDualState even the entry refresh
  // is skipped: the caller guarantees XB, RedCost, and LastNonbasic are
  // current for the held basis.
  auto Refresh = [&] {
    met().PricingFullRecomputes.add();
    computeBasicValues();
    for (int R = 0; R < NumRows; ++R)
      CostB[R] = Cost[BasicCol[R]];
    computeDuals(CostB, Y);
    for (int C = 0; C < NumCols; ++C) {
      if (Status[C] == VarStatus::Basic) {
        RedCost[C] = 0.0;
        continue;
      }
      RedCost[C] = reducedCost(C, Y.data());
      LastNonbasic[C] = nonbasicValue(C);
    }
  };
  if (!ReuseDualState) {
    RedCost.assign(NumCols, 0.0);
    LastNonbasic.assign(NumCols, 0.0);
    Refresh();
  }

  for (;;) {
    if (SolveStatus S = B.check(Iterations); S != SolveStatus::Optimal)
      return S;

    // Leaving: the basic variable with the largest bound violation.
    int LeaveRow = -1;
    double WorstViol = tol::Feas;
    bool Below = false;
    for (int R = 0; R < NumRows; ++R) {
      int C = BasicCol[R];
      double L = colLower(C), U = colUpper(C);
      double V = 0.0;
      bool IsBelow = false;
      if (XB[R] < L - tol::Feas) {
        V = L - XB[R];
        IsBelow = true;
      } else if (XB[R] > U + tol::Feas) {
        V = XB[R] - U;
      }
      if (V > WorstViol) {
        WorstViol = V;
        LeaveRow = R;
        Below = IsBelow;
      }
    }
    if (LeaveRow < 0) {
      DualStateValid = true;
      return SolveStatus::Optimal;
    }

    // Pivot-row alphas gathered row-sparsely: BTRAN the leaving row
    // through the eta file, then scatter its nonzeros through the CSR
    // mirror instead of one columnDot per nonbasic column. Columns
    // outside AlphaTouched have alpha exactly zero and can neither enter
    // nor see their reduced cost move.
    btranRow(LeaveRow);
    gatherRowAlphas(RhoVec.data(), PatRho);

    // Entering: dual ratio test over the pivot row. Eligibility depends on
    // which bound the leaving variable violates (see header notes); the
    // minimum ratio |d_j / alpha_j| keeps every other reduced cost dual
    // feasible.
    int Enter = -1;
    double BestRatio = Infinity, EnterAlpha = 0.0;
    for (int C : AlphaTouched) {
      VarStatus St = Status[C];
      if (St == VarStatus::Basic)
        continue;
      double A = AlphaR[C];
      if (std::fabs(A) <= tol::Pivot)
        continue;
      bool Eligible;
      if (Below)
        Eligible = (St == VarStatus::AtLower && A < 0.0) ||
                   (St == VarStatus::AtUpper && A > 0.0) ||
                   St == VarStatus::Free;
      else
        Eligible = (St == VarStatus::AtLower && A > 0.0) ||
                   (St == VarStatus::AtUpper && A < 0.0) ||
                   St == VarStatus::Free;
      if (!Eligible)
        continue;
      double Ratio = std::fabs(RedCost[C]) / std::fabs(A);
      if (Ratio < BestRatio - 1e-12 ||
          (Ratio < BestRatio + 1e-12 &&
           (Enter < 0 || std::fabs(A) > std::fabs(EnterAlpha)))) {
        BestRatio = Ratio;
        Enter = C;
        EnterAlpha = A;
      }
    }
    if (Enter < 0)
      return SolveStatus::Infeasible; // Farkas: no entering column exists.

    ftran(Enter, W, &PatW);
    if (std::fabs(W[LeaveRow]) <= tol::Pivot)
      return SolveStatus::NumericFail;
    // The gathered alpha and the FTRAN pivot element are the same number
    // computed two ways; a mismatch means the factorization drifted.
    if (std::fabs(AlphaR[Enter] - W[LeaveRow]) >
        1e-6 * (1.0 + std::fabs(W[LeaveRow])))
      return SolveStatus::NumericFail;

    int LeaveCol = BasicCol[LeaveRow];

    // Incremental primal update: pushing the entering variable by T lands
    // the leaving variable exactly on its violated bound.
    double VOut = Below ? colLower(LeaveCol) : colUpper(LeaveCol);
    double T = (XB[LeaveRow] - VOut) / W[LeaveRow];
    double EnterVal = nonbasicValue(Enter) + T;
    for (int R : PatW)
      XB[R] -= T * W[R];

    // Incremental dual update: y' = y + theta * rho_r zeroes the entering
    // reduced cost, shifts every other one by -theta * alpha_j, and leaves
    // the departing variable at -theta. Devex reference weights ride the
    // same sparse loop so a later primal or child solve inherits them.
    double Theta = RedCost[Enter] / AlphaR[Enter];
    double WEnter = DevexW[Enter];
    double PivA = W[LeaveRow];
    for (int C : AlphaTouched) {
      if (Status[C] == VarStatus::Basic)
        continue;
      if (C != Enter)
        RedCost[C] -= Theta * AlphaR[C];
      double Rq = AlphaR[C] / PivA;
      double Cand = Rq * Rq * WEnter;
      if (Cand > DevexW[C])
        DevexW[C] = Cand;
    }

    applyPivot(LeaveRow, Enter, W, PatW);
    Status[LeaveCol] = Below ? VarStatus::AtLower : VarStatus::AtUpper;
    XB[LeaveRow] = EnterVal;
    RedCost[Enter] = 0.0;
    RedCost[LeaveCol] = -Theta;
    DevexW[LeaveCol] = std::max(WEnter / (PivA * PivA), 1.0);
    LastNonbasic[LeaveCol] = VOut;
    ++Iterations;
    met().Pivots.add();
    // Same rent-or-buy factorization reset as the primal loop: refactor
    // once eta replay has burned the last factor's counted work.
    if (ReplayOps >= Base.factorCost() + static_cast<std::size_t>(NumRows) ||
        SinceRefactor >= std::max(1, RefactorInterval)) {
      if (!refactorize())
        return SolveStatus::NumericFail;
      Refresh();
    }

    // Stall watchdog: the worst violation must shrink over time; dual
    // degeneracy can plateau briefly, persistent plateaus are numeric
    // trouble and the caller's cold-solve fallback handles them.
    if (WorstViol >= LastViol - 1e-12) {
      if (++StallCount >
          4 * Opts.StallThreshold * std::max(1, NumRows / 256))
        return SolveStatus::NumericFail;
    } else {
      StallCount = 0;
      LastViol = WorstViol;
    }
  }
}

void RevisedSimplex::tableauRow(int P, std::vector<int> &OutCols,
                                std::vector<double> &OutVals) {
  btranRow(P);
  gatherRowAlphas(RhoVec.data(), PatRho);
  OutCols.clear();
  OutVals.clear();
  OutCols.reserve(AlphaTouched.size());
  OutVals.reserve(AlphaTouched.size());
  for (int C : AlphaTouched) {
    if (AlphaR[C] == 0.0)
      continue;
    OutCols.push_back(C);
    OutVals.push_back(AlphaR[C]);
  }
}

Basis RevisedSimplex::basis() const {
  Basis B;
  B.Status = Status;
  B.BasicCol = BasicCol;
  // Reduced costs depend only on the basis and costs, so a snapshot taken
  // while the dual-state cache is valid lets a warm child skip the O(m^2)
  // dual-feasibility recompute. Devex weights are heuristic state -- any
  // values work, inherited ones just price better.
  if (DualStateValid)
    B.RedCost = DualRedCost;
  B.DevexW = DevexW;
  return B;
}

void RevisedSimplex::extract() {
  computeBasicValues();
  for (int V = 0; V < NumStruct; ++V)
    StructValues[V] =
        Status[V] == VarStatus::Basic ? XB[RowOfBasic[V]] : nonbasicValue(V);
  // Clamp basic structurals onto their bounds within feasibility noise so
  // downstream exact checks (integral snapping, verification) see clean
  // values.
  for (int V = 0; V < NumStruct; ++V) {
    if (StructValues[V] < Lower[V] && StructValues[V] > Lower[V] - tol::Feas)
      StructValues[V] = Lower[V];
    if (StructValues[V] > Upper[V] && StructValues[V] < Upper[V] + tol::Feas)
      StructValues[V] = Upper[V];
  }
  Objective = M.objectiveValue(StructValues);
}
