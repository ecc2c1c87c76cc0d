//===- bench_scaling_sweep.cpp - Enzyme-N scaling sweep ---------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The Enzyme10 narrative as a sweep: the enzyme assay generalized to N
// dilutions per reagent (N^3 combination mixes). DAGSolve visits each node
// and edge twice -- linear time; LP's effort grows superlinearly with the
// formulation, which is how the paper motivates DAGSolve as the run-time
// option ("confirming that DAGSolve scales better than LP for large
// problem sizes").
//
// LP runs under a per-size time budget by default and is skipped once two
// consecutive sizes blow the budget; AQUAVOL_BENCH_FULL=1 removes caps.
//
// The sweep uses the mild-dilution variant of the assay (every dilution at
// most 1:9) so the LP is feasible and the simplex iterates to optimality
// -- the raw 1:999 series is LP-infeasible, which a solver proves quickly
// and which would understate LP's cost; the paper's 1211 s Enzyme10 run
// was an optimizing solve.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "aqua/assays/PaperAssays.h"
#include "aqua/core/DagSolve.h"
#include "aqua/core/Formulation.h"
#include "aqua/lp/BasisLU.h"
#include "aqua/lp/Presolve.h"
#include "aqua/lp/RevisedSimplex.h"

#include <cmath>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;
using namespace benchutil;

int main() {
  // A wide-capacity device (1000 nl reservoirs): with the paper's 100 nl
  // the big sweep sizes are LP-infeasible outright (27 dilutions exhaust
  // one diluent reservoir), which the solver proves quickly -- feasible
  // instances are what exercise an optimizing LP run.
  JsonReporter Json("scaling_sweep");
  MachineSpec Spec;
  Spec.MaxCapacityNl = 1000.0;
  double Budget = fullRun() ? 0.0 : 10.0;
  int Blown = 0;

  std::printf("Enzyme-N scaling sweep (N dilutions -> N^3 combinations)\n");
  std::printf("  %3s %7s %7s %9s %12s %14s %10s\n", "N", "nodes", "edges",
              "LP-cons", "DAGSolve", "LP", "pivots");

  for (int N : {2, 3, 4, 5, 6, 7, 8, 10, 12, 14}) {
    AssayGraph G = assays::buildEnzymeAssay(N, /*MaxRatioExp=*/1);
    TimingStats Dag = timedStats([&] { dagSolve(G, Spec); },
                                 N <= 6 ? 7 : 3);

    std::string LpStr = "skipped";
    std::string Pivots = "-";
    Formulation F = buildVolumeModel(G, Spec);
    BenchRecord &R = Json.add("enzyme_n" + std::to_string(N));
    R.param("n", std::to_string(N))
        .param("nodes", std::to_string(G.numNodes()))
        .param("edges", std::to_string(G.numEdges()))
        .param("lp_constraints", std::to_string(F.CountedConstraints))
        .metric("dagsolve_median_sec", Dag.MedianSec)
        .metric("dagsolve_p95_sec", Dag.P95Sec);
    if (Blown < 2) {
      lp::SolverOptions SOpts;
      SOpts.Simplex.TimeLimitSec = Budget;
      SOpts.CaptureBasis = true;
      lp::Solution Sol;
      lp::SolveInfo Info;
      // A shared host's speed swings for seconds at a time, so through
      // n10 lp_sec is the fastest of a few runs (CI compares n4-n6 with
      // this file).
      double Sec = lp::Infinity;
      bool Finished = false;
      for (int Rep = 0; Rep < (N <= 6 ? 5 : N <= 10 ? 3 : 1); ++Rep) {
        Sec = std::min(Sec, onceSeconds([&] {
                         Sol = lp::solve(F.Model, SOpts, &Info);
                       }));
        Finished = Sol.Status == lp::SolveStatus::Optimal ||
                   Sol.Status == lp::SolveStatus::Infeasible;
        if (!Finished)
          break; // A budget-truncated solve is not worth repeating.
      }
      if (Finished) {
        LpStr = fmtSeconds(Sec) + " (" +
                lp::solveStatusName(Sol.Status) + ")";
        Blown = 0;
      } else {
        LpStr = std::string("> ") + fmtSeconds(Budget) + " budget";
        ++Blown;
      }
      Pivots = std::to_string(Sol.Iterations);
      R.param("lp_status", lp::solveStatusName(Sol.Status))
          .param("lp_pricing", lp::lpPricingName(SOpts.Simplex.Pricing))
          .metric("lp_sec", Sec)
          .metric("lp_pivots", static_cast<double>(Sol.Iterations));
      if (Sol.Iterations > 0)
        R.metric("lp_usec_per_pivot", Sec * 1e6 / Sol.Iterations);
      if (Info.OptBasis) {
        // One refactorization of the optimal basis of the presolved model
        // the simplex ran on: the price the rent-or-buy rule pays.
        lp::Presolved P = lp::Presolved::run(F.Model);
        lp::SparseMatrix A(P.reduced());
        lp::BasisLU LU;
        TimingStats Lu = timedStats(
            [&] {
              LU.factor(A, P.reduced().numVars(), Info.OptBasis->BasicCol);
            },
            21);
        R.metric("lu_factor_usec", Lu.MedianSec * 1e6)
            .metric("lu_factor_cost", static_cast<double>(LU.factorCost()))
            .metric("lu_nnz", static_cast<double>(LU.luNnz()));
      }
    } else {
      R.param("lp_status", "skipped");
    }
    std::printf("  %3d %7d %7d %9d %12s %14s %10s\n", N, G.numNodes(),
                G.numEdges(), F.CountedConstraints,
                fmtSeconds(Dag.MedianSec).c_str(), LpStr.c_str(),
                Pivots.c_str());
  }

  // Per-pivot growth from n4 to n10, the ratio CI gates. One ratio of two
  // lp_sec rows spread 6.3-16.6 over eight sweeps on a shared VM, because
  // the host changed speed between the two rows. Here the sizes alternate
  // in rounds a second long -- n4 the fastest of 5 solves, n10 one solve
  // -- so a change of host speed mostly hits both sides of a round, and
  // the median round is reported with the spread of all of them.
  {
    auto PerPivotUsec = [&](const lp::Model &Model, int Reps) {
      double Best = lp::Infinity;
      for (int Rep = 0; Rep < Reps; ++Rep) {
        lp::Solution Sol;
        double Sec = onceSeconds([&] { Sol = lp::solve(Model, {}); });
        if (Sol.Status != lp::SolveStatus::Optimal || Sol.Iterations == 0)
          return lp::Infinity;
        Best = std::min(Best, Sec * 1e6 / Sol.Iterations);
      }
      return Best;
    };
    Formulation F4 = buildVolumeModel(assays::buildEnzymeAssay(4, 1), Spec);
    Formulation F10 = buildVolumeModel(assays::buildEnzymeAssay(10, 1), Spec);
    constexpr int Rounds = 9;
    std::vector<double> Ratios;
    for (int Round = 0; Round < Rounds; ++Round) {
      const double R10 = PerPivotUsec(F10.Model, 1);
      const double R4 = PerPivotUsec(F4.Model, 5);
      // A size that is not solved to optimality writes a null ratio.
      Ratios.push_back(std::isfinite(R10) && std::isfinite(R4)
                           ? R10 / R4
                           : lp::Infinity);
    }
    std::sort(Ratios.begin(), Ratios.end());
    const double Median = Ratios[Rounds / 2];
    Json.add("growth_n10_n4")
        .param("rounds", std::to_string(Rounds))
        .metric("usec_per_pivot_ratio", Median)
        .metric("ratio_q1", Ratios[Rounds / 4])
        .metric("ratio_q3", Ratios[3 * Rounds / 4])
        .metric("ratio_min", Ratios.front())
        .metric("ratio_max", Ratios.back());
    std::printf("\nPer-pivot growth n10/n4: median %.1fx over %d "
                "interleaved rounds (range %.1f-%.1f)\n",
                Median, Rounds, Ratios.front(), Ratios.back());
  }

  std::printf("\nShape check: DAGSolve's time grows linearly in nodes+edges "
              "(~N^3); LP grows\nmuch faster in wall time per instance, "
              "reproducing the paper's Enzyme10 gap\n(1.57 s vs >20 min on "
              "their hardware).\n");
  return 0;
}
