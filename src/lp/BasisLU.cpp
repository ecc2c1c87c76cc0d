//===- BasisLU.cpp - Sparse LU basis factorization ---------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Triangular-first sparse LU (Suhl & Suhl, "Computing sparse LU
// factorizations for large-scale linear programming bases", ORSA J.
// Computing 1990):
//
//  0. Dense columns. A column in more than 2 * sqrt(nnz(B)) rows -- on
//     RVol bases, the volume-scale column in about half of them -- is set
//     aside as a row-indexed vector. Every stage hands it the pivot row's
//     value for U and applies its L multipliers to it, O(nnz(L)) with
//     direct addressing, and it pivots last on the rows left over.
//  1. The sparse columns pivot in one loop that always prefers, with no
//     search, a column singleton (its row becomes a row of U and leaves the
//     other columns, which may create new column singletons), then a row
//     singleton (the rest of its column becomes L multipliers and leaves
//     their rows, which may create new row singletons). Neither kind
//     updates a value or creates fill. A row that still has a dense entry
//     is not forced, so its entry must also pass the threshold below. On
//     RVol bases the singletons take every sparse column.
//  2. Whatever kernel remains runs right-looking Markowitz elimination:
//     candidates from the lowest column-count buckets, scored by
//     (rowlen-1)*(collen-1) and restricted to entries within a relative
//     threshold of their column's largest magnitude.
//
// The active submatrix is a pool of (row, position, value) elements, each
// linked into one row list and one column list by id. Both lists record
// the element's slot, so removing it is O(1), and candidate scoring reads
// values straight off the column list. A kernel stage finds the entries
// it updates by walking each L row against the pivot row scattered by
// position. Count buckets are doubly-linked lists, so a count change is
// O(1) too.
//
//===----------------------------------------------------------------------===//

#include "aqua/lp/BasisLU.h"

#include "aqua/lp/Tolerances.h"

#include <algorithm>
#include <cmath>

using namespace aqua;
using namespace aqua::lp;

namespace {

/// Kernel columns examined per pivot choice. More candidates buy slightly
/// less fill for more selection time; the kernels are small and nearly
/// fill-free, so a small panel wins.
constexpr int CandidateLimit = 8;

/// Relative magnitude threshold for a kernel entry to be pivot-eligible
/// within its column (classic Markowitz threshold pivoting). Column
/// singletons and rows with no other entry need none: the structure
/// forces them.
constexpr double PivotThreshold = 0.1;

/// Columns set aside as dense vectors, at most. A basis column is dense
/// when it holds more than 2 * sqrt(nnz(B)) entries and more than
/// MinDenseLen: on RVol bases that is the volume-scale column alone.
constexpr std::size_t MaxDense = 4;
constexpr int MinDenseLen = 16;

} // namespace

void BasisLU::ListFile::remove(int I, int E) {
  int S = Slot[E];
  int Last = File[Beg[I] + --Len[I]];
  File[Beg[I] + S] = Last;
  Slot[Last] = S;
}

std::size_t BasisLU::ListFile::append(int I, int E) {
  std::size_t Moved = 0;
  if (Len[I] == Cap[I]) {
    int NewBeg = static_cast<int>(File.size());
    Cap[I] = 2 * Cap[I] + 4;
    File.resize(File.size() + Cap[I]);
    std::copy_n(File.begin() + Beg[I], Len[I], File.begin() + NewBeg);
    Beg[I] = NewBeg;
    Moved = Len[I];
  }
  Slot[E] = Len[I];
  File[Beg[I] + Len[I]++] = E;
  return Moved;
}

void BasisLU::beginStage(int Row, int Pos, double Piv) {
  PivRow.push_back(Row);
  PivPos.push_back(Pos);
  PivVal.push_back(Piv);
  LStart.push_back(static_cast<int>(LRow.size()));
  UStart.push_back(static_cast<int>(UPos.size()));
  RowDone[Row] = 1;
  ColDone[Pos] = 1;
}

void BasisLU::updateDense(std::size_t L0) {
  // The stage just pivoted row PivRow.back() with L entries [L0, end):
  // each pending dense column gives U its pivot-row value and takes the
  // row operations, O(nnz(L)) per column with direct addressing.
  const int R0 = PivRow.back();
  for (std::size_t J = DenseDone; J < DensePos.size(); ++J) {
    double *D = DenseVal.data() + J * M;
    const double V = D[R0];
    ++FactorOps;
    if (V == 0.0)
      continue;
    UPos.push_back(DensePos[J]);
    UVal.push_back(V);
    for (std::size_t K = L0; K < LRow.size(); ++K)
      D[LRow[K]] -= LVal[K] * V;
    FactorOps += LRow.size() - L0;
  }
}

bool BasisLU::rowSingletonOk(int E) {
  // The row's only sparse entry is forced when the row has no dense entry
  // either. Otherwise the row is not really a singleton, and a tiny entry
  // taken as pivot would blow up L: it must pass the kernel's threshold.
  const int R = ERow[E];
  const double V = std::fabs(EVal[E]);
  bool Forced = true;
  for (std::size_t J = DenseDone; J < DensePos.size(); ++J)
    Forced = Forced && DenseVal[J * M + R] == 0.0;
  FactorOps += 1 + DensePos.size();
  if (Forced || V <= tol::Pivot)
    return V > tol::Pivot;
  double MaxV = 0.0;
  for (const int *F = Cols.begin(EPos[E]), *End = Cols.end(EPos[E]); F != End;
       ++F)
    MaxV = std::max(MaxV, std::fabs(EVal[*F]));
  FactorOps += Cols.Len[EPos[E]];
  return V >= PivotThreshold * MaxV;
}

bool BasisLU::factor(const SparseMatrix &A, int NumStruct,
                     const std::vector<int> &BasicCol) {
  Valid = false;
  M = static_cast<int>(BasicCol.size());
  PivRow.clear();
  PivPos.clear();
  PivVal.clear();
  LStart.clear();
  LRow.clear();
  LVal.clear();
  UStart.clear();
  UPos.clear();
  UVal.clear();
  RowDone.assign(M, 0);
  ColDone.assign(M, 0);

  // --- Load B into the element pool column by column, so the column file
  // starts as the identity over element ids. Dense columns go to DenseVal
  // instead and count as done for the sparse stages.
  std::size_t Total = 0;
  for (int C : BasicCol)
    Total += C >= NumStruct ? 1 : A.colSize(C);
  const int DenseLen = std::max(
      MinDenseLen, static_cast<int>(2.0 * std::sqrt(static_cast<double>(Total))));
  DensePos.clear();
  DenseVal.clear();
  DenseDone = 0;
  ERow.clear();
  EPos.clear();
  EVal.clear();
  Cols.Beg.resize(M);
  Cols.Len.resize(M);
  Cols.Cap.resize(M);
  for (int P = 0; P < M; ++P) {
    Cols.Beg[P] = static_cast<int>(ERow.size());
    Cols.Len[P] = Cols.Cap[P] = 0;
    int C = BasicCol[P];
    if (C >= NumStruct) {
      ERow.push_back(C - NumStruct);
      EPos.push_back(P);
      EVal.push_back(1.0);
    } else if (A.colSize(C) > DenseLen && DensePos.size() < MaxDense) {
      DensePos.push_back(P);
      DenseVal.resize(DensePos.size() * M, 0.0);
      double *D = DenseVal.data() + (DensePos.size() - 1) * M;
      for (const SparseMatrix::Entry *E = A.colBegin(C), *End = A.colEnd(C);
           E != End; ++E)
        D[E->Row] += E->Value;
      ColDone[P] = 1;
      continue;
    } else {
      for (const SparseMatrix::Entry *E = A.colBegin(C), *End = A.colEnd(C);
           E != End; ++E)
        if (E->Value != 0.0) {
          ERow.push_back(E->Row);
          EPos.push_back(P);
          EVal.push_back(E->Value);
        }
    }
    Cols.Len[P] = Cols.Cap[P] = static_cast<int>(ERow.size()) - Cols.Beg[P];
    if (Cols.Len[P] == 0)
      return false; // Structurally singular: empty basis column.
  }
  const int Nnz = static_cast<int>(ERow.size());
  Cols.File.resize(Nnz);
  Cols.Slot.resize(Nnz);
  for (int E = 0; E < Nnz; ++E) {
    Cols.File[E] = E;
    Cols.Slot[E] = E - Cols.Beg[EPos[E]];
  }
  // Row lists by counting sort. A row whose only entries are dense has an
  // empty list and is left for the dense block at the end.
  Rows.Beg.resize(M);
  Rows.Cap.assign(M, 0);
  Rows.Len.assign(M, 0);
  for (int E = 0; E < Nnz; ++E)
    ++Rows.Cap[ERow[E]];
  for (int R = 0, Off = 0; R < M; ++R) {
    Rows.Beg[R] = Off;
    Off += Rows.Cap[R];
  }
  Rows.File.resize(Nnz);
  Rows.Slot.resize(Nnz);
  for (int E = 0; E < Nnz; ++E) {
    int R = ERow[E];
    Rows.Slot[E] = Rows.Len[R];
    Rows.File[Rows.Beg[R] + Rows.Len[R]++] = E;
  }
  FactorOps = Total + 3 * static_cast<std::size_t>(Nnz) + 4 * M +
              DensePos.size() * M;

  // --- The sparse columns: singletons, then Markowitz on what is left.
  if (!pivotKernel())
    return false;

  // --- The dense columns pivot last, on the rows the sparse stages left,
  // by partial pivoting on their updated values.
  while (DenseDone < DensePos.size()) {
    const double *D = DenseVal.data() + DenseDone * M;
    int R0 = -1;
    double Big = tol::Pivot;
    for (int R = 0; R < M; ++R)
      if (!RowDone[R] && std::fabs(D[R]) > Big) {
        Big = std::fabs(D[R]);
        R0 = R;
      }
    FactorOps += M;
    if (R0 < 0)
      return false; // Numerically empty dense column.
    beginStage(R0, DensePos[DenseDone], D[R0]);
    const std::size_t L0 = LRow.size();
    for (int R = 0; R < M; ++R)
      if (!RowDone[R] && D[R] != 0.0) {
        LRow.push_back(R);
        LVal.push_back(D[R] / D[R0]);
      }
    ++DenseDone;
    updateDense(L0);
  }

  LStart.push_back(static_cast<int>(LRow.size()));
  UStart.push_back(static_cast<int>(UPos.size()));
  FactorOps += LVal.size() + UVal.size();
  Work.assign(M, 0.0);
  Valid = true;
  return true;
}

int BasisLU::markowitzPivot(int Left) {
  // Candidates come from the lowest-count buckets. Bucket 1 holds no
  // column here (column singletons are taken before any search) and
  // bucket 0 none ever (a column that empties returns singular).
  int Best = -1;
  std::size_t BestCost = static_cast<std::size_t>(-1);
  const int Want = std::min(CandidateLimit, Left);
  int Seen = 0;
  for (int C = 2; C <= M && Seen < Want; ++C) {
    ++FactorOps;
    // A count-c column can't beat a cost of (c-1)^2 from a lower bucket.
    const std::size_t Enough = static_cast<std::size_t>(C - 1) * (C - 1);
    for (int P = CountHead[C]; P >= 0 && Seen < Want; P = Next[P]) {
      ++Seen;
      double MaxV = 0.0;
      for (const int *F = Cols.begin(P), *End = Cols.end(P); F != End; ++F)
        MaxV = std::max(MaxV, std::fabs(EVal[*F]));
      if (MaxV <= tol::Pivot)
        return -1; // Numerically empty column: singular.
      for (const int *F = Cols.begin(P), *End = Cols.end(P); F != End; ++F) {
        double V = std::fabs(EVal[*F]);
        if (V < PivotThreshold * MaxV || V <= tol::Pivot)
          continue;
        std::size_t Cost = static_cast<std::size_t>(Rows.Len[ERow[*F]] - 1) *
                           static_cast<std::size_t>(C - 1);
        if (Cost < BestCost) {
          BestCost = Cost;
          Best = *F;
        }
      }
      FactorOps += 2 * static_cast<std::size_t>(C);
      if (Best >= 0 && BestCost <= Enough)
        return Best;
    }
  }
  return Best;
}

bool BasisLU::pivotKernel() {
  int Left = 0;
  for (int P = 0; P < M; ++P)
    Left += !ColDone[P];
  auto Link = [&](int P) {
    int C = Cols.Len[P];
    CountOf[P] = C;
    Prev[P] = -1;
    Next[P] = CountHead[C];
    if (Next[P] >= 0)
      Prev[Next[P]] = P;
    CountHead[C] = P;
  };
  auto Unlink = [&](int P) {
    if (Prev[P] >= 0)
      Next[Prev[P]] = Next[P];
    else
      CountHead[CountOf[P]] = Next[P];
    if (Next[P] >= 0)
      Prev[Next[P]] = Prev[P];
  };
  auto Fill = [&](int I, int Q, double V) {
    const int E = static_cast<int>(ERow.size());
    ERow.push_back(I);
    EPos.push_back(Q);
    EVal.push_back(V);
    Rows.Slot.push_back(0);
    Cols.Slot.push_back(0);
    FactorOps += 1 + Rows.append(I, E) + Cols.append(Q, E);
  };
  Scatter.resize(M);
  StageTag.assign(M, 0);
  PosTag.assign(M, 0);
  // Singletons, checked when popped: the columns and rows that start with
  // one sparse entry, then those that drop to one during elimination.
  ColQueue.clear();
  RowQueue.clear();
  for (int P = 0; P < M; ++P)
    if (!ColDone[P] && Cols.Len[P] == 1)
      ColQueue.push_back(P);
  for (int R = 0; R < M; ++R)
    if (Rows.Len[R] == 1)
      RowQueue.push_back(R);
  FactorOps += 5 * static_cast<std::size_t>(M);
  std::size_t ColHead = 0, RowHead = 0;
  // The count buckets only serve the Markowitz search, so they are built
  // when it first runs and kept up to date from then on.
  bool Bucketed = false;
  int Tag = 0;

  while (Left > 0) {
    // --- Pivot choice: a column singleton, else a row singleton, else
    // a Markowitz search. A column singleton is forced by the structure
    // and needs no threshold; rowSingletonOk decides for a row singleton.
    // On RVol bases the singletons take every sparse column, so the
    // search never runs.
    int Best = -1;
    while (Best < 0 && ColHead < ColQueue.size()) {
      const int P = ColQueue[ColHead++];
      if (!ColDone[P] && Cols.Len[P] == 1)
        Best = *Cols.begin(P);
    }
    while (Best < 0 && RowHead < RowQueue.size()) {
      const int R = RowQueue[RowHead++];
      if (!RowDone[R] && Rows.Len[R] == 1 && rowSingletonOk(*Rows.begin(R)))
        Best = *Rows.begin(R);
    }
    if (Best < 0) {
      if (!Bucketed) {
        CountHead.assign(M + 1, -1);
        CountOf.resize(M);
        Next.resize(M);
        Prev.resize(M);
        for (int P = 0; P < M; ++P)
          if (!ColDone[P])
            Link(P);
        FactorOps += 2 * static_cast<std::size_t>(M);
        Bucketed = true;
      }
      Best = markowitzPivot(Left);
    }
    if (Best < 0 || std::fabs(EVal[Best]) <= tol::Pivot)
      return false; // No acceptable pivot: singular.

    // --- Elimination. The pivot row becomes U and leaves its columns;
    // the rest of the pivot column becomes L and leaves its rows.
    const int R0 = ERow[Best], P0 = EPos[Best];
    const double Piv = EVal[Best];
    beginStage(R0, P0, Piv);
    if (Bucketed)
      Unlink(P0);
    --Left;
    const int Stage = static_cast<int>(PivRow.size());
    const std::size_t U0 = UPos.size(), L0 = LRow.size();
    for (const int *F = Cols.begin(P0), *End = Cols.end(P0); F != End; ++F) {
      if (*F == Best)
        continue;
      const int I = ERow[*F];
      LRow.push_back(I);
      LVal.push_back(EVal[*F] / Piv);
      Rows.remove(I, *F);
      if (Rows.Len[I] == 1)
        RowQueue.push_back(I); // Fill below may lengthen it again.
    }
    // The pivot row is scattered only when L rows will be walked against it.
    const bool Update = LRow.size() > L0;
    for (const int *F = Rows.begin(R0), *End = Rows.end(R0); F != End; ++F) {
      if (*F == Best)
        continue;
      const int Q = EPos[*F];
      UPos.push_back(Q);
      UVal.push_back(EVal[*F]);
      Cols.remove(Q, *F);
      if (Update) {
        Scatter[Q] = EVal[*F];
        StageTag[Q] = Stage;
      } else if (Cols.Len[Q] == 0) {
        return false; // Column Q lived only in the pivot row.
      } else if (Cols.Len[Q] == 1) {
        ColQueue.push_back(Q);
      }
    }
    const std::size_t U1 = UPos.size(), L1 = LRow.size();
    FactorOps += 1 + (U1 - U0) + (L1 - L0);

    // Subtract L x U from the remaining rows: each L row is walked against
    // the pivot row scattered by position, updating the entries it shares
    // with U; the U positions it lacks become fill. A singleton stage has
    // an empty L or an empty U and skips this.
    if (Update && U0 < U1) {
      for (std::size_t K = L0; K < L1; ++K) {
        const int I = LRow[K];
        const double Mult = LVal[K];
        ++Tag;
        for (const int *H = Rows.begin(I), *End = Rows.end(I); H != End;
             ++H) {
          const int Q = EPos[*H];
          if (StageTag[Q] == Stage) {
            EVal[*H] -= Mult * Scatter[Q];
            PosTag[Q] = Tag;
          }
        }
        FactorOps += Rows.Len[I] + (U1 - U0);
        for (std::size_t J = U0; J < U1; ++J)
          if (PosTag[UPos[J]] != Tag)
            Fill(I, UPos[J], -Mult * UVal[J]);
      }
    }

    updateDense(L0);
    for (std::size_t J = U0; J < U1; ++J) {
      const int Q = UPos[J];
      if (Update && Cols.Len[Q] == 1)
        ColQueue.push_back(Q); // Fill can't leave Q at 0 when L is not empty.
      if (Bucketed) {
        Unlink(Q);
        Link(Q);
      }
    }
  }
  return true;
}

void BasisLU::ftran(std::vector<double> &X) const {
  // Forward L pass on the row-indexed input, stage order.
  for (int T = 0; T < M; ++T) {
    double Xr = X[PivRow[T]];
    if (Xr == 0.0)
      continue;
    for (int I = LStart[T]; I < LStart[T + 1]; ++I)
      X[LRow[I]] -= LVal[I] * Xr;
  }
  // Stage gather, then backward U substitution into position indexing.
  // Rows and positions share the index space, so the gather must finish
  // before any position is written.
  for (int T = 0; T < M; ++T)
    Work[T] = X[PivRow[T]];
  for (int T = M - 1; T >= 0; --T) {
    double V = Work[T];
    for (int I = UStart[T]; I < UStart[T + 1]; ++I)
      V -= UVal[I] * X[UPos[I]];
    X[PivPos[T]] = V / PivVal[T];
  }
}

void BasisLU::btran(std::vector<double> &Y) const {
  // Forward U^T pass: each stage's solved value scatters into the later
  // positions its U row touches.
  for (int T = 0; T < M; ++T) {
    double W = Y[PivPos[T]] / PivVal[T];
    Work[T] = W;
    if (W == 0.0)
      continue;
    for (int I = UStart[T]; I < UStart[T + 1]; ++I)
      Y[UPos[I]] -= UVal[I] * W;
  }
  // Backward L^T pass into row indexing.
  for (int T = 0; T < M; ++T)
    Y[PivRow[T]] = Work[T];
  for (int T = M - 1; T >= 0; --T) {
    double Acc = Y[PivRow[T]];
    for (int I = LStart[T]; I < LStart[T + 1]; ++I)
      Acc -= LVal[I] * Y[LRow[I]];
    Y[PivRow[T]] = Acc;
  }
}
