//===- bench_table2_runtimes.cpp - Table 2 reproduction (run times) -------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the run-time columns of Table 2: DAGSolve vs LP wall time
// and the LP constraint counts, for Glucose, Glycomics, Enzyme and
// Enzyme10.
//
// Absolute times are not comparable with the paper's 750 MHz Pentium III;
// the reproduced *shape* is (1) DAGSolve is orders of magnitude faster
// than LP on every assay, and (2) LP's time explodes with assay size
// (Enzyme10) while DAGSolve stays linear. Enzyme10's LP runs under a time
// budget by default; set AQUAVOL_BENCH_FULL=1 to run it to completion.
//
// Constraint-count note: our DAG keeps incubate/sense nodes explicit, so
// the counted formulations are somewhat larger than the paper's (which
// appears to fold unary operations into their producers); the growth trend
// across assays is the comparable quantity.
//
// A second section times *execution* of the managed programs on the
// aqua/vm bytecode interpreter.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "aqua/assays/PaperAssays.h"
#include "aqua/codegen/Codegen.h"
#include "aqua/core/DagSolve.h"
#include "aqua/core/Formulation.h"
#include "aqua/core/Partition.h"
#include "aqua/service/Pipeline.h"
#include "aqua/vm/Compiler.h"
#include "aqua/vm/VM.h"


using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;
using namespace benchutil;

namespace {

struct Row {
  const char *Name;
  double DagSec = 0.0;
  double LpSec = -1.0; // -1: hit the budget.
  std::int64_t LpIters = 0;
  int Constraints = 0;
  const char *PaperDag;
  const char *PaperLp;
  const char *PaperCons;
};

void printRow(const Row &R) {
  std::string Lp = R.LpSec >= 0.0 ? fmtSeconds(R.LpSec) : "> budget";
  std::string Ratio =
      R.LpSec >= 0.0 && R.DagSec > 0.0
          ? std::to_string(static_cast<long long>(R.LpSec / R.DagSec)) + "x"
          : "-";
  std::printf("  %-10s %12s %12s %9s %8d   | paper: %8s %9s %6s\n", R.Name,
              fmtSeconds(R.DagSec).c_str(), Lp.c_str(), Ratio.c_str(),
              R.Constraints, R.PaperDag, R.PaperLp, R.PaperCons);
}

/// LP options: constrained inputs of a partition plan become node upper
/// bounds, approximating the paper's per-partition LP total.
FormulationOptions glycomicsLPOptions(const PartitionPlan &Plan,
                                      const MachineSpec &Spec) {
  FormulationOptions FOpts;
  for (const auto &CI : Plan.Inputs) {
    double Ub = CI.FromInputPort ? CI.Share.toDouble() * Spec.MaxCapacityNl
                                 : Spec.MaxCapacityNl;
    FOpts.NodeUpperBoundNl.push_back({CI.Node, Ub});
  }
  return FOpts;
}

/// Times managed execution of \p Raw on the VM (program prepared and
/// compiled outside the timed region). Returns {median wall seconds,
/// instructions per run}, or {-1, 0} when management fails.
std::pair<double, std::uint64_t> timeManagedRun(const AssayGraph &Raw) {
  service::CompileArtifact A = service::compileGraph(Raw, {}, {}, {});
  if (!A.Ok)
    return {-1.0, 0};
  vm::CompileOptions CO;
  CO.Graph = &A.VM.Graph;
  auto Prog = vm::compile(A.Program, CO);
  if (!Prog.ok())
    return {-1.0, 0};
  vm::SimResult S;
  vm::Interp I;
  I.bind(*Prog);
  double Sec = medianSeconds(
      [&] {
        I.reset({});
        I.run();
        S = I.finish();
      },
      9);
  return {Sec, static_cast<std::uint64_t>(S.InstructionsExecuted)};
}

} // namespace

int main() {
  MachineSpec Spec;
  double Budget = fullRun() ? 0.0 : 15.0;
  JsonReporter Json("table2_runtimes");
  auto solverRecord = [&Json](const Row &R) {
    Json.add(std::string(R.Name) + "/solve")
        .param("assay", R.Name)
        .metric("dagsolve_sec", R.DagSec)
        .metric("lp_sec", R.LpSec)
        .metric("lp_constraints", R.Constraints);
  };

  std::printf("Table 2 (run-time columns): DAGSolve vs LP\n");
  std::printf("  %-10s %12s %12s %9s %8s   | %s\n", "assay", "DAGSolve",
              "LP", "LP/DAG", "LP-cons",
              "paper (750 MHz PIII): DAGSolve, LP, cons");

  // ----- Glucose.
  {
    AssayGraph G = assays::buildGlucoseAssay();
    Row R{"Glucose", 0, 0, 0, 0, "~0 s", "0.08 s", "49"};
    R.DagSec = medianSeconds([&] { dagSolve(G, Spec); }, 9);
    LPVolumeResult LP;
    R.LpSec = medianSeconds([&] { LP = solveRVolLP(G, Spec); }, 9);
    R.LpIters = LP.Solution.Iterations;
    R.Constraints = LP.CountedConstraints;
    printRow(R);
    solverRecord(R);
  }

  // ----- Glycomics: partitioned; Vnorms at compile time, dispensing per
  // partition; LP over the partitioned graph with constrained inputs.
  {
    AssayGraph G = assays::buildGlycomicsAssay();
    auto Plan = buildPartitionPlan(G, Spec).unwrap();
    Row R{"Glycomics", 0, 0, 0, 0, "0.003 s", "0.28 s", "84"};
    R.DagSec = medianSeconds([&] {
      auto P2 = buildPartitionPlan(G, Spec).unwrap();
      std::vector<double> Avail(P2.Inputs.size(), -1.0);
      for (size_t I = 0; I < P2.Inputs.size(); ++I)
        if (!P2.Inputs[I].FromInputPort)
          Avail[I] = 50.0;
      for (size_t P = 0; P < P2.Parts.size(); ++P)
        dispensePartition(P2, static_cast<int>(P), Avail, Spec);
    }, 9);
    FormulationOptions FOpts = glycomicsLPOptions(Plan, Spec);
    LPVolumeResult LP;
    R.LpSec = medianSeconds(
        [&] { LP = solveRVolLP(Plan.Graph, Spec, FOpts); }, 9);
    R.Constraints = LP.CountedConstraints;
    printRow(R);
    solverRecord(R);
  }

  // ----- Enzyme (4 dilutions). LP is infeasible on the raw assay (that is
  // the Figure 14 storyline); Table 2 measures solver effort, so we time
  // the solve to its (in)feasibility verdict, like the paper's run.
  {
    AssayGraph G = assays::buildEnzymeAssay(4);
    Row R{"Enzyme", 0, 0, 0, 0, "0.016 s", "0.73 s", "872"};
    R.DagSec = medianSeconds([&] { dagSolve(G, Spec); }, 9);
    LPVolumeResult LP;
    R.LpSec = medianSeconds([&] { LP = solveRVolLP(G, Spec); }, 5);
    R.Constraints = LP.CountedConstraints;
    printRow(R);
    solverRecord(R);
  }

  // ----- Enzyme10.
  {
    AssayGraph G = assays::buildEnzymeAssay(10);
    Row R{"Enzyme10", 0, 0, 0, 0, "1.57 s", "1211 s", "11258"};
    R.DagSec = medianSeconds([&] { dagSolve(G, Spec); }, 3);
    lp::SolverOptions SOpts;
    SOpts.Simplex.TimeLimitSec = Budget;
    LPVolumeResult LP;
    double Sec = onceSeconds([&] { LP = solveRVolLP(G, Spec, {}, SOpts); });
    R.Constraints = LP.CountedConstraints;
    bool Finished = LP.Solution.Status == lp::SolveStatus::Optimal ||
                    LP.Solution.Status == lp::SolveStatus::Infeasible;
    R.LpSec = Finished ? Sec : -1.0;
    printRow(R);
    solverRecord(R);
    if (!Finished)
      std::printf("    (Enzyme10 LP stopped at the %.0f s budget with "
                  "status '%s' after %lld pivots;\n     set "
                  "AQUAVOL_BENCH_FULL=1 to run it to completion -- minutes "
                  "of runtime, which is the paper's point)\n",
                  Budget, lp::solveStatusName(LP.Solution.Status),
                  static_cast<long long>(LP.Solution.Iterations));
    else if (LP.Solution.Status == lp::SolveStatus::Infeasible)
      std::printf("    (the raw Enzyme10 is LP-infeasible on a 100 nl "
                  "device -- proven quickly;\n     the wide-capacity row "
                  "below shows an optimizing run like the paper's)\n");
  }

  // ----- Enzyme10 on a wide-capacity device (1000 nl): the LP is feasible
  // and the simplex must optimize, reproducing the paper's minutes-long
  // solve; DAGSolve is unaffected.
  {
    MachineSpec Wide;
    Wide.MaxCapacityNl = 1000.0;
    AssayGraph G = assays::buildEnzymeAssay(10, /*MaxRatioExp=*/1);
    Row R{"Enz10/wide", 0, 0, 0, 0, "1.57 s", "1211 s", "11258"};
    R.DagSec = medianSeconds([&] { dagSolve(G, Wide); }, 3);
    lp::SolverOptions SOpts;
    SOpts.Simplex.TimeLimitSec = Budget;
    LPVolumeResult LP;
    double Sec = onceSeconds([&] { LP = solveRVolLP(G, Wide, {}, SOpts); });
    R.Constraints = LP.CountedConstraints;
    R.LpSec = LP.Solution.Status == lp::SolveStatus::Optimal ? Sec : -1.0;
    printRow(R);
    solverRecord(R);
    if (R.LpSec < 0.0)
      std::printf("    (optimizing LP exceeded the %.0f s budget after "
                  "%lld pivots; AQUAVOL_BENCH_FULL=1 runs it out)\n",
                  Budget, static_cast<long long>(LP.Solution.Iterations));
  }

  // ----- Managed execution on the bytecode VM.
  std::printf("\nManaged execution:\n");
  std::printf("  %-10s %12s %14s\n", "assay", "vm", "instr/run");
  {
    struct ExecCase {
      const char *Name;
      int Dilutions; // 0 = glucose.
    };
    ExecCase ExecCases[] = {{"Glucose", 0}, {"Enzyme", 4}};
    for (const ExecCase &C : ExecCases) {
      AssayGraph G = C.Dilutions == 0 ? assays::buildGlucoseAssay()
                                      : assays::buildEnzymeAssay(C.Dilutions);
      auto [Sec, N] = timeManagedRun(G);
      Json.add(std::string(C.Name) + "/exec")
          .param("assay", C.Name)
          .metric("median_sec", Sec)
          .metric("instructions", static_cast<double>(N))
          .metric("instr_per_sec",
                  Sec > 0.0 ? static_cast<double>(N) / Sec : 0.0);
      std::printf("  %-10s %12s %14llu\n", C.Name,
                  Sec >= 0.0 ? fmtSeconds(Sec).c_str() : "-",
                  static_cast<unsigned long long>(N));
    }
  }

  std::printf("\nShape check: DAGSolve is consistently orders of magnitude "
              "faster than LP,\nand the gap widens with assay size "
              "(the paper's ~80x average and Enzyme10 blow-up).\n");
  Json.write();
  return 0;
}
