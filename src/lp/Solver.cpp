//===- Solver.cpp - Presolve-enabled LP entry point -------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/lp/Solver.h"

#include "aqua/lp/RevisedSimplex.h"
#include "aqua/obs/Metrics.h"
#include "aqua/obs/Timer.h"
#include "aqua/obs/Trace.h"

#include <cstring>

using namespace aqua;
using namespace aqua::lp;

namespace {

/// FNV-1a over raw bytes; the shape hash needs stability within a build,
/// not across platforms (warm bases live in process memory and in the
/// solve store, both consumed by the same binary family).
struct ShapeHasher {
  std::uint64_t H = 1469598103934665603ULL;
  void bytes(const void *P, size_t N) {
    const unsigned char *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 1099511628211ULL;
    }
  }
  void add(std::uint64_t V) { bytes(&V, sizeof(V)); }
  void add(double V) {
    std::uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    add(Bits);
  }
};

/// Runs the selected engine on \p M. The revised engine is the only one
/// production runs; it reports NumericFail as is, and the dense tableau
/// runs only when a caller selects it by name.
Solution runSimplex(const Model &M, const SolverOptions &Opts,
                    SolveInfo *Info) {
  if (Opts.Engine == LpEngine::Dense)
    return solveSimplex(M, Opts.Simplex);

  const Basis *Warm = nullptr;
  if (Opts.CaptureBasis || Opts.WarmStart) {
    const std::uint64_t Shape = modelShapeHash(M);
    if (Info)
      Info->ShapeHash = Shape;
    if (Opts.WarmStart && Opts.WarmShapeHash == Shape)
      Warm = Opts.WarmStart.get();
  }

  // The engine's working set is O(nnz) -- the sparse LU plus the eta file
  // -- so no memory gate is needed: models the dense tableau would refuse
  // as TooLarge solve comfortably here. A warm basis that no longer
  // installs (singular, dual infeasible) degrades to a cold solve inside
  // the engine, never to a wrong answer.
  RevisedSimplex RS(M);
  Solution Sol;
  Sol.Status = Warm ? RS.reoptimizeDual(*Warm, Opts.Simplex)
                    : RS.solve(Opts.Simplex);
  Sol.Iterations = RS.iterations();
  if (Sol.Status == SolveStatus::Optimal) {
    Sol.Values = RS.values();
    Sol.Objective = RS.objective();
    if (Opts.CaptureBasis && Info)
      Info->OptBasis = std::make_shared<Basis>(RS.basis());
  }
  if (Info)
    Info->WarmStarted = Warm != nullptr;
  if (Warm)
    obs::metrics().counter("lp.warm_shape_repairs").add();
  return Sol;
}

} // namespace

std::uint64_t aqua::lp::modelShapeHash(const Model &M) {
  ShapeHasher H;
  H.bytes("aqua.lp.shape.v1", 16);
  H.add(std::uint64_t(M.isMaximize()));
  H.add(std::uint64_t(M.numVars()));
  for (int V = 0; V < M.numVars(); ++V)
    H.add(M.var(V).ObjCoef);
  H.add(std::uint64_t(M.numRows()));
  for (int R = 0; R < M.numRows(); ++R) {
    const Row &Rw = M.row(R);
    H.add(std::uint64_t(Rw.Kind));
    H.add(std::uint64_t(Rw.Terms.size()));
    for (const Term &T : Rw.Terms) {
      H.add(std::uint64_t(T.Var));
      H.add(T.Coef);
    }
  }
  return H.H;
}

Solution aqua::lp::solve(const Model &M, const SolverOptions &Opts,
                         SolveInfo *Info) {
  obs::SpanGuard Span("lp.solve", "lp");
  Span.arg("rows", M.numRows());
  Span.arg("vars", M.numVars());
  WallTimer Timer;
  if (!Opts.Presolve) {
    Solution Sol = runSimplex(M, Opts, Info);
    Sol.Seconds = Timer.seconds();
    Span.arg("status", solveStatusName(Sol.Status));
    if (Info)
      Span.arg("warm", Info->WarmStarted ? "1" : "0");
    return Sol;
  }

  Presolved P = Presolved::run(M);
  if (Info) {
    Info->Presolve = P.stats();
    Info->ReducedRows = P.reduced().numRows();
    Info->ReducedVars = P.reduced().numVars();
  }
  if (P.provenInfeasible()) {
    Solution Sol;
    Sol.Status = SolveStatus::Infeasible;
    Sol.Seconds = Timer.seconds();
    Span.arg("status", "infeasible_presolve");
    return Sol;
  }

  Solution Reduced = runSimplex(P.reduced(), Opts, Info);
  Solution Sol;
  Sol.Status = Reduced.Status;
  Sol.Iterations = Reduced.Iterations;
  Sol.Seconds = Timer.seconds();
  if (Reduced.Status == SolveStatus::Optimal) {
    Sol.Values = P.postsolve(Reduced.Values);
    Sol.Objective = M.objectiveValue(Sol.Values);
  }
  Span.arg("status", solveStatusName(Sol.Status));
  if (Info)
    Span.arg("warm", Info->WarmStarted ? "1" : "0");
  return Sol;
}
