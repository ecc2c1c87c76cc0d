//===- bench_ilp_vs_lp.cpp - Section 4.3 ILP vs LP reproduction ------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the paper's closing Section 4.3 comparison: solving IVol
// directly as an ILP versus the RVol LP + rounding. The paper (with
// lp_solve 5.5): "Though the ILP solver achieved similar execution times
// as the LP solver for the glucose assay, the ILP solver ran for hours
// without generating a solution for the enzyme assay, whereas the LP
// solver completed in 0.73 seconds."
//
// Our branch-and-bound runs under a time budget by default; the
// reproduced shape is ILP ~ LP on Glucose and budget exhaustion on the
// enzyme-scale instance. BENCH_ilp_vs_lp.json records, per assay, the LP
// and ILP time, status, nodes and pivots.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "aqua/assays/PaperAssays.h"
#include "aqua/core/Formulation.h"
#include "aqua/core/Manager.h"
#include "aqua/lp/BranchAndBound.h"

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;
using namespace benchutil;

namespace {

double ilpBudgetSec() {
  if (const char *Env = std::getenv("AQUAVOL_BENCH_BUDGET_SEC"))
    if (double V = std::atof(Env); V > 0.0)
      return V;
  return fullRun() ? 3600.0 : 10.0;
}

void runCase(JsonReporter &Json, const char *Name, const AssayGraph &G,
             double BudgetSec) {
  MachineSpec Spec;

  LPVolumeResult LP;
  double LpSec = onceSeconds([&] { LP = solveRVolLP(G, Spec); });

  FormulationOptions IntF;
  IntF.UnitNl = Spec.LeastCountNl;
  Formulation F = buildVolumeModel(G, Spec, IntF);

  lp::IntOptions BB;
  BB.TimeLimitSec = BudgetSec;
  lp::IntSolution Ilp;
  double IlpSec =
      onceSeconds([&] { Ilp = lp::solveInteger(F.Model, {}, BB); });

  std::printf("  %-10s LP: %10s (%s)   ILP: %10s (%s, %lld nodes%s)\n", Name,
              fmtSeconds(LpSec).c_str(),
              lp::solveStatusName(LP.Solution.Status),
              fmtSeconds(IlpSec).c_str(), lp::solveStatusName(Ilp.Status),
              static_cast<long long>(Ilp.Nodes),
              Ilp.HasIncumbent ? ", incumbent found" : ", no solution");

  Json.add(Name)
      .param("budget_sec", std::to_string(BudgetSec))
      .param("vars", std::to_string(F.Model.numVars()))
      .param("rows", std::to_string(F.Model.numRows()))
      .param("lp_status", lp::solveStatusName(LP.Solution.Status))
      .param("lp_pricing",
             lp::lpPricingName(lp::SolverOptions{}.Simplex.Pricing))
      .param("ilp_status", lp::solveStatusName(Ilp.Status))
      .metric("lp_sec", LpSec)
      .metric("lp_pivots", static_cast<double>(LP.Solution.Iterations))
      .metric("ilp_sec", IlpSec)
      .metric("ilp_nodes", static_cast<double>(Ilp.Nodes))
      .metric("ilp_pivots", static_cast<double>(Ilp.LpPivots));
}

} // namespace

int main() {
  JsonReporter Json("ilp_vs_lp");
  double Budget = ilpBudgetSec();
  std::printf("Section 4.3: IVol as ILP vs RVol as LP (ILP budget %.0f s)\n",
              Budget);
  runCase(Json, "Glucose", assays::buildGlucoseAssay(), Budget);
  runCase(Json, "Fig2", assays::buildFigure2Example(), Budget);
  // The raw enzyme IVol is infeasible (both solvers prove it instantly);
  // the paper's hours-long ILP run corresponds to the feasible,
  // transformed assay, where branch-and-bound's tree explodes.
  runCase(Json, "Enzyme/raw", assays::buildEnzymeAssay(4), Budget);
  {
    core::ManagerResult VM =
        core::manageVolumes(assays::buildEnzymeAssay(4), MachineSpec{});
    if (VM.Feasible)
      runCase(Json, "Enzyme/xf", VM.Graph, Budget);
  }
  std::printf("\nShape check (paper): ILP is tolerable on the small glucose "
              "assay but fails to\nproduce a proven solution on the enzyme "
              "assay within any reasonable budget,\nwhile LP finishes in "
              "well under a second.\n");
  Json.write();
  return 0;
}
