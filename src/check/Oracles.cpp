//===- Oracles.cpp - Multi-oracle differential engine ---------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/check/Oracles.h"

#include "aqua/check/Reference.h"
#include "aqua/codegen/Codegen.h"
#include "aqua/core/Cascading.h"
#include "aqua/core/DagSolve.h"
#include "aqua/core/Formulation.h"
#include "aqua/core/Rounding.h"
#include "aqua/core/Verify.h"
#include "aqua/ir/Canonical.h"
#include "aqua/lang/Lower.h"
#include "aqua/lp/BranchAndBound.h"
#include "aqua/service/ArtifactCodec.h"
#include "aqua/service/CompileService.h"
#include "aqua/service/Pipeline.h"
#include "aqua/service/RequestKey.h"
#include "aqua/store/Env.h"
#include "aqua/support/StringUtils.h"
#include "aqua/vm/Compiler.h"
#include "aqua/vm/VM.h"

#include <algorithm>
#include <cmath>
#include <map>

using namespace aqua;
using namespace aqua::check;
using namespace aqua::ir;

const char *aqua::check::oracleName(Oracle O) {
  switch (O) {
  case Oracle::Frontend:
    return "frontend";
  case Oracle::Graph:
    return "graph";
  case Oracle::Solvers:
    return "solvers";
  case Oracle::Assignment:
    return "assignment";
  case Oracle::Rounding:
    return "rounding";
  case Oracle::Simulation:
    return "simulation";
  case Oracle::Metamorphic:
    return "metamorphic";
  case Oracle::Cache:
    return "cache";
  case Oracle::Engines:
    return "engines";
  case Oracle::Presolve:
    return "presolve";
  case Oracle::Vm:
    return "vm";
  case Oracle::Store:
    return "store";
  case Oracle::Cuts:
    return "cuts";
  }
  return "?";
}

Expected<unsigned> aqua::check::parseOracleFilter(std::string_view List) {
  unsigned Mask = 0;
  for (const std::string &Part : split(List, ',')) {
    std::string_view Name = trim(Part);
    if (Name.empty())
      continue;
    bool Found = false;
    for (unsigned I = 0; I < NumOracles; ++I) {
      if (Name == oracleName(static_cast<Oracle>(I))) {
        Mask |= 1u << I;
        Found = true;
        break;
      }
    }
    if (!Found)
      return Expected<unsigned>::error(
          format("unknown oracle '%.*s'", static_cast<int>(Name.size()),
                 Name.data()));
  }
  return Mask;
}

std::string CaseReport::str() const {
  std::string Out;
  for (const Failure &F : Failures)
    Out += format("%s: %s\n", oracleName(F.O), F.Message.c_str());
  return Out;
}

namespace {

//===----------------------------------------------------------------------===//
// Exact fraction arithmetic with an overflow poison bit
//===----------------------------------------------------------------------===//

/// A fraction in 128-bit integers. Unlike aqua::Rational (whose overflow is
/// fatal by design), an overflow here only *poisons* the value: deep
/// composition recursions on adversarial graphs can exceed any fixed-width
/// type, and the right response in a test oracle is to skip the exact
/// comparison, not to abort the harness.
struct Frac {
  __int128 N = 0;
  __int128 D = 1;
  bool Bad = false;

  static __int128 absv(__int128 V) { return V < 0 ? -V : V; }

  static __int128 gcd(__int128 A, __int128 B) {
    A = absv(A);
    B = absv(B);
    while (B) {
      __int128 T = A % B;
      A = B;
      B = T;
    }
    return A;
  }

  /// Magnitude ceiling keeping every product of two reduced operands
  /// representable in __int128.
  static constexpr __int128 limit() { return __int128(1) << 62; }

  void reduce() {
    if (Bad)
      return;
    if (D < 0) {
      N = -N;
      D = -D;
    }
    __int128 G = gcd(N, D);
    if (G > 1) {
      N /= G;
      D /= G;
    }
    if (absv(N) >= limit() || D >= limit())
      Bad = true;
  }

  static Frac ratio(std::int64_t Num, std::int64_t Den) {
    Frac F;
    F.N = Num;
    F.D = Den;
    F.reduce();
    return F;
  }

  friend Frac operator+(Frac A, Frac B) {
    Frac R;
    if (A.Bad || B.Bad) {
      R.Bad = true;
      return R;
    }
    R.N = A.N * B.D + B.N * A.D;
    R.D = A.D * B.D;
    R.reduce();
    return R;
  }

  friend Frac operator*(Frac A, Frac B) {
    Frac R;
    if (A.Bad || B.Bad) {
      R.Bad = true;
      return R;
    }
    R.N = A.N * B.N;
    R.D = A.D * B.D;
    R.reduce();
    return R;
  }

  friend bool operator==(const Frac &A, const Frac &B) {
    return !A.Bad && !B.Bad && A.N == B.N && A.D == B.D;
  }

  double toDouble() const {
    return static_cast<double>(N) / static_cast<double>(D);
  }
};

/// Exact composition vector: input-fluid name -> fraction of the volume.
using Composition = std::map<std::string, Frac>;

/// Predicts the exact composition of every live node of \p G in one
/// topological pass. \p Weight returns the relative contribution of an
/// in-edge (the assay fraction, or the rounded integer edge volume);
/// contributions are normalized per node. Returns false when overflow
/// poisoned any fraction or a node had zero total weight.
template <typename WeightFn>
bool predictCompositions(const AssayGraph &G, WeightFn Weight,
                         std::map<NodeId, Composition> &Out) {
  for (NodeId N : G.topologicalOrder()) {
    const Node &Nd = G.node(N);
    Composition C;
    const std::vector<EdgeId> &In = G.inEdges(N);
    if (In.empty()) {
      C[Nd.Name] = Frac::ratio(1, 1);
    } else {
      Frac Total = Frac::ratio(0, 1);
      for (EdgeId E : In)
        Total = Total + Weight(E);
      if (Total.Bad || Total.N == 0)
        return false;
      // C = sum_e (Weight(e)/Total) * C[src(e)].
      Frac InvTotal;
      InvTotal.N = Total.D;
      InvTotal.D = Total.N;
      InvTotal.reduce();
      for (EdgeId E : In) {
        Frac Share = Weight(E) * InvTotal;
        for (const auto &[Name, F] : Out[G.edge(E).Src]) {
          Frac Add = F * Share;
          auto It = C.find(Name);
          if (It == C.end())
            C[Name] = Add;
          else
            It->second = It->second + Add;
        }
      }
    }
    for (const auto &[Name, F] : C)
      if (F.Bad)
        return false;
    Out[N] = std::move(C);
  }
  return true;
}

/// The sensed-result name of a Sense node ("sense_R3_1" -> "R3_1"), the
/// same stripping codegen applies for the AIS operand.
std::string senseResultName(const Node &Nd) {
  return startsWith(Nd.Name, "sense_") ? Nd.Name.substr(6) : Nd.Name;
}

/// Exact composition predictions at every live Sense node, keyed by the
/// sensed-result name. Returns false on overflow.
template <typename WeightFn>
bool predictSenseCompositions(const AssayGraph &G, WeightFn Weight,
                              std::map<std::string, Composition> &Out) {
  std::map<NodeId, Composition> ByNode;
  if (!predictCompositions(G, Weight, ByNode))
    return false;
  for (NodeId N : G.liveNodes())
    if (G.node(N).Kind == NodeKind::Sense)
      Out[senseResultName(G.node(N))] = ByNode[N];
  return true;
}

/// Compares two exact sense-composition predictions for equality.
bool sameSenseCompositions(const std::map<std::string, Composition> &A,
                           const std::map<std::string, Composition> &B,
                           std::string &Diff) {
  if (A.size() != B.size()) {
    Diff = format("sense count %zu vs %zu", A.size(), B.size());
    return false;
  }
  for (const auto &[Name, CompA] : A) {
    auto It = B.find(Name);
    if (It == B.end()) {
      Diff = format("sense '%s' missing", Name.c_str());
      return false;
    }
    const Composition &CompB = It->second;
    if (CompA.size() != CompB.size()) {
      Diff = format("sense '%s': %zu vs %zu constituents", Name.c_str(),
                    CompA.size(), CompB.size());
      return false;
    }
    for (const auto &[Fluid, FA] : CompA) {
      auto FB = CompB.find(Fluid);
      if (FB == CompB.end() || !(FA == FB->second)) {
        Diff = format("sense '%s': fraction of '%s' differs", Name.c_str(),
                      Fluid.c_str());
        return false;
      }
    }
  }
  return true;
}

/// Rebuilds \p G's live subgraph with node and edge insertion order
/// reversed -- a structure-preserving permutation the canonical fingerprint
/// must be blind to.
AssayGraph permuteGraph(const AssayGraph &G) {
  AssayGraph P;
  std::vector<NodeId> Live = G.liveNodes();
  std::vector<NodeId> Map(G.numNodeSlots(), InvalidNode);
  for (auto It = Live.rbegin(); It != Live.rend(); ++It) {
    const Node &Nd = G.node(*It);
    NodeId New = P.addNode(Nd.Kind, Nd.Name);
    Node &Copy = P.node(New);
    Copy.OutFraction = Nd.OutFraction;
    Copy.UnknownVolume = Nd.UnknownVolume;
    Copy.NoExcess = Nd.NoExcess;
    Copy.ExcessShare = Nd.ExcessShare;
    Copy.Params = Nd.Params;
    Map[*It] = New;
  }
  std::vector<EdgeId> LiveE = G.liveEdges();
  for (auto It = LiveE.rbegin(); It != LiveE.rend(); ++It) {
    const Edge &E = G.edge(*It);
    P.addEdge(Map[E.Src], Map[E.Dst], E.Fraction);
  }
  return P;
}

//===----------------------------------------------------------------------===//
// The per-case engine
//===----------------------------------------------------------------------===//

class Engine {
public:
  Engine(const CheckOptions &Opts) : Opts(Opts) {}

  bool on(Oracle O) const { return Opts.Oracles & oracleBit(O); }

  void fail(Oracle O, std::string Msg) {
    R.Failures.push_back(Failure{O, std::move(Msg)});
  }

  CaseReport run(std::string_view Source, const GenProgram *Skeleton) {
    auto Lowered = lang::compileAssay(Source);
    if (!Lowered.ok()) {
      if (on(Oracle::Frontend))
        fail(Oracle::Frontend, Lowered.message());
      return std::move(R);
    }
    R.FrontendOk = true;
    const AssayGraph &G = Lowered->Graph;
    R.Nodes = G.numNodes();
    R.Edges = G.numEdges();

    if (on(Oracle::Graph)) {
      if (Status S = G.verify(); !S.ok())
        fail(Oracle::Graph, format("lowered graph: %s", S.message().c_str()));
    }

    // The pipeline aquad serves, run once; the oracles below cross-check
    // its artifact against the layers it is built from.
    const service::CompileArtifact A =
        service::compileGraph(G, Opts.Spec, Opts.Manage, Opts.Layout);
    R.Managed = A.Managed;
    R.Feasible = A.VM.Feasible;
    R.Method = A.VM.Method;

    lp::Solution LPSol;
    bool LPOptimal = false;
    if (R.Managed && on(Oracle::Solvers))
      LPOptimal = checkSolvers(G, LPSol);

    if (R.Managed && on(Oracle::Engines))
      checkEngines(G);

    if (R.Managed && on(Oracle::Cuts))
      checkCuts(G);

    if (R.Managed && on(Oracle::Presolve))
      checkPresolve(G);

    if (on(Oracle::Solvers) && LPOptimal && !R.Feasible)
      fail(Oracle::Solvers,
           "plain LP on the untransformed graph is Optimal but the "
           "manager hierarchy reports infeasible");
    if (R.Feasible)
      checkManaged(A.VM);

    if (on(Oracle::Simulation) || on(Oracle::Vm))
      checkSimulation(G, A);

    if (on(Oracle::Metamorphic))
      checkMetamorphic(G);

    if (on(Oracle::Store))
      checkStore(Source);

    if (Skeleton)
      checkSkeleton(Source, G, A.VM, *Skeleton);

    return std::move(R);
  }

private:
  /// DAGSolve vs LP vs ILP dominance on the untransformed graph. Returns
  /// whether the plain LP was Optimal; fills \p LPSol.
  bool checkSolvers(const AssayGraph &G, lp::Solution &LPSol) {
    core::DagSolveResult DS = core::dagSolve(G, Opts.Spec);

    core::FormulationOptions FOpts;
    core::Formulation F = core::buildVolumeModel(G, Opts.Spec, FOpts);
    LPSol = lp::solve(F.Model, Opts.Manage.LPOptions);
    bool LPOptimal = LPSol.Status == lp::SolveStatus::Optimal;

    if (DS.Feasible) {
      // DAGSolve solves a *more constrained* RVol: its solution must be a
      // feasible point of the LP, so the LP cannot be infeasible and its
      // optimum must dominate DAGSolve's objective value.
      if (!LPOptimal) {
        fail(Oracle::Solvers,
             format("DAGSolve is feasible but the Figure 3 LP is %s",
                    lp::solveStatusName(LPSol.Status)));
        return LPOptimal;
      }
      std::vector<double> Point(F.Model.numVars(), 0.0);
      int Mapped = 0;
      for (NodeId N : G.liveNodes())
        if (F.NodeVar[N] >= 0) {
          Point[F.NodeVar[N]] = DS.Volumes.NodeVolumeNl[N];
          ++Mapped;
        }
      for (EdgeId E : G.liveEdges())
        if (F.EdgeVar[E] >= 0) {
          Point[F.EdgeVar[E]] = DS.Volumes.EdgeVolumeNl[E];
          ++Mapped;
        }
      double Tol = Opts.Tolerance *
                   std::max(1.0, DS.Volumes.maxNodeVolumeNl(G));
      if (Mapped == F.Model.numVars()) {
        double Viol = F.Model.maxViolation(Point);
        if (Viol > Tol)
          fail(Oracle::Solvers,
               format("DAGSolve point violates the LP model by %g nl", Viol));
        double DSObj = F.Model.objectiveValue(Point);
        if (DSObj > LPSol.Objective + Tol)
          fail(Oracle::Solvers,
               format("DAGSolve objective %.9g exceeds LP optimum %.9g",
                      DSObj, LPSol.Objective));
      }
      if (on(Oracle::Assignment)) {
        core::VerifyOptions VO;
        VO.RatioTolerance = 1e-6;
        auto Violations =
            core::verifyAssignment(G, DS.Volumes, Opts.Spec, VO);
        if (!Violations.empty())
          fail(Oracle::Assignment,
               format("DAGSolve assignment: %s",
                      core::violationsToString(Violations).c_str()));
      }
    }

    if (LPOptimal && on(Oracle::Assignment)) {
      core::VolumeAssignment LPV =
          core::extractAssignment(G, F, LPSol, FOpts);
      core::VerifyOptions VO;
      VO.ToleranceNl = 1e-5;
      VO.RatioTolerance = 1e-5;
      auto Violations = core::verifyAssignment(G, LPV, Opts.Spec, VO);
      if (!Violations.empty())
        fail(Oracle::Assignment,
             format("LP assignment: %s",
                    core::violationsToString(Violations).c_str()));
    }

    // The IVol ILP on small graphs: its optimum, scaled back to nl, can
    // never exceed the RVol LP optimum (integrality only restricts).
    if (G.numEdges() <= Opts.MaxIlpEdges) {
      core::FormulationOptions IOpts;
      IOpts.UnitNl = Opts.Spec.LeastCountNl;
      core::Formulation FI = core::buildVolumeModel(G, Opts.Spec, IOpts);
      lp::IntOptions IO;
      IO.MaxNodes = Opts.IlpMaxNodes;
      IO.TimeLimitSec = Opts.IlpTimeLimitSec;
      lp::IntSolution IS = lp::solveInteger(FI.Model, {}, IO);
      if (IS.Status == lp::SolveStatus::Optimal) {
        R.RanIlp = true;
        if (!LPOptimal)
          fail(Oracle::Solvers,
               format("IVol ILP is Optimal but the RVol LP is %s",
                      lp::solveStatusName(LPSol.Status)));
        else {
          double IlpNl = IS.Objective * Opts.Spec.LeastCountNl;
          double Tol =
              Opts.Tolerance * std::max(1.0, std::fabs(LPSol.Objective));
          if (IlpNl > LPSol.Objective + Tol)
            fail(Oracle::Solvers,
                 format("ILP objective %.9g nl exceeds LP optimum %.9g nl",
                        IlpNl, LPSol.Objective));
        }
      }
    }
    return LPOptimal;
  }

  /// Solver-vs-solver differential oracle: the same model handed to both
  /// LP engines (dense tableau vs bounded revised simplex) and, on small
  /// graphs, to the production branch-and-bound and the plain depth-first
  /// reference (check::referenceSolveInteger) must produce the same status
  /// and, when Optimal, the same optimum. This is the equivalence gate for
  /// the warm solver core: any divergence is a bug in one of the engines.
  void checkEngines(const AssayGraph &G) {
    core::FormulationOptions FOpts;
    core::Formulation F = core::buildVolumeModel(G, Opts.Spec, FOpts);

    lp::SolverOptions DenseOpts = Opts.Manage.LPOptions;
    DenseOpts.Engine = lp::LpEngine::Dense;
    lp::SolverOptions RevisedOpts = Opts.Manage.LPOptions;
    RevisedOpts.Engine = lp::LpEngine::Revised;
    lp::Solution DS = lp::solve(F.Model, DenseOpts);
    lp::Solution RS = lp::solve(F.Model, RevisedOpts);

    auto Decisive = [](lp::SolveStatus S) {
      return S == lp::SolveStatus::Optimal ||
             S == lp::SolveStatus::Infeasible ||
             S == lp::SolveStatus::Unbounded;
    };
    // Budget statuses (iteration/time limits) are not comparable verdicts;
    // only cross-check runs where both engines reached a conclusion.
    if (Decisive(DS.Status) && Decisive(RS.Status)) {
      if (DS.Status != RS.Status)
        fail(Oracle::Engines,
             format("LP engines disagree: dense tableau is %s, revised "
                    "simplex is %s",
                    lp::solveStatusName(DS.Status),
                    lp::solveStatusName(RS.Status)));
      else if (DS.Status == lp::SolveStatus::Optimal) {
        double Tol =
            Opts.Tolerance * std::max(1.0, std::fabs(DS.Objective));
        if (std::fabs(DS.Objective - RS.Objective) > Tol)
          fail(Oracle::Engines,
               format("LP optima diverge: dense tableau %.9g vs revised "
                      "simplex %.9g",
                      DS.Objective, RS.Objective));
      }
    }

    if (G.numEdges() > Opts.MaxIlpEdges)
      return;
    core::FormulationOptions IOpts;
    IOpts.UnitNl = Opts.Spec.LeastCountNl;
    core::Formulation FI = core::buildVolumeModel(G, Opts.Spec, IOpts);
    lp::IntOptions IO;
    IO.MaxNodes = Opts.IlpMaxNodes;
    IO.TimeLimitSec = Opts.IlpTimeLimitSec;
    lp::IntSolution WS = lp::solveInteger(FI.Model, {}, IO);
    lp::IntSolution RefInt = referenceSolveInteger(FI.Model, {}, IO);
    if (Decisive(WS.Status) && Decisive(RefInt.Status)) {
      if (WS.Status != RefInt.Status)
        fail(Oracle::Engines,
             format("B&B disagrees with the reference: warm is %s, "
                    "reference is %s",
                    lp::solveStatusName(WS.Status),
                    lp::solveStatusName(RefInt.Status)));
      else if (WS.Status == lp::SolveStatus::Optimal) {
        double Tol =
            Opts.Tolerance * std::max(1.0, std::fabs(RefInt.Objective));
        if (std::fabs(WS.Objective - RefInt.Objective) > Tol)
          fail(Oracle::Engines,
               format("ILP optima diverge: warm %.9g vs reference %.9g "
                      "units",
                      WS.Objective, RefInt.Objective));
      }
    }
  }

  /// The ILP search accelerators must be pure speedups: cutting planes,
  /// pseudocost/reliability branching, and cut-and-branch restarts change
  /// the search order and the relaxation tightness, never the verdict or
  /// the optimum. Separately, a shape-matched warm basis repair of the
  /// RVol LP under a perturbed capacity must agree with the cold solve of
  /// the same perturbed model.
  void checkCuts(const AssayGraph &G) {
    auto Decisive = [](lp::SolveStatus S) {
      return S == lp::SolveStatus::Optimal ||
             S == lp::SolveStatus::Infeasible ||
             S == lp::SolveStatus::Unbounded;
    };

    if (G.numEdges() <= Opts.MaxIlpEdges) {
      core::FormulationOptions IOpts;
      IOpts.UnitNl = Opts.Spec.LeastCountNl;
      core::Formulation FI = core::buildVolumeModel(G, Opts.Spec, IOpts);
      lp::IntOptions Base;
      Base.MaxNodes = Opts.IlpMaxNodes;
      Base.TimeLimitSec = Opts.IlpTimeLimitSec;
      Base.RestartNodes = 0;
      lp::IntOptions NoCuts = Base;
      NoCuts.CutRounds = 0;
      lp::IntOptions NoPseudo = Base;
      NoPseudo.Reliable = 0; // Plain most-fractional branching.
      // The reference runs without restarts; this side restarts every 4
      // nodes once it holds an incumbent.
      lp::IntOptions Restart = Base;
      Restart.RestartNodes = 4;

      lp::IntSolution Ref = lp::solveInteger(FI.Model, {}, Base);
      auto Agree = [&](const lp::IntOptions &O, const char *What) {
        lp::IntSolution S = lp::solveInteger(FI.Model, {}, O);
        if (!Decisive(Ref.Status) || !Decisive(S.Status))
          return;
        if (S.Status != Ref.Status) {
          fail(Oracle::Cuts,
               format("%s changes the ILP verdict: %s vs %s", What,
                      lp::solveStatusName(Ref.Status),
                      lp::solveStatusName(S.Status)));
          return;
        }
        if (Ref.Status != lp::SolveStatus::Optimal)
          return;
        double Tol = Opts.Tolerance * std::max(1.0, std::fabs(Ref.Objective));
        if (std::fabs(S.Objective - Ref.Objective) > Tol)
          fail(Oracle::Cuts,
               format("%s changes the ILP optimum: %.9g vs %.9g units", What,
                      Ref.Objective, S.Objective));
      };
      Agree(NoCuts, "disabling root cuts");
      Agree(NoPseudo, "disabling pseudocost branching");
      Agree(Restart, "cut-and-branch restarts");
    }

    // Warm-miss repair: a basis captured on the RVol LP, replayed against
    // the same structure under a perturbed capacity, must repair to the
    // same answer the cold solve finds. The capacity only moves rhs/bound
    // data, so the shape hash is expected to match; a mismatch (different
    // presolve decisions) legitimately degrades to a cold solve and the
    // cross-check still holds.
    core::Formulation F0 = core::buildVolumeModel(G, Opts.Spec);
    lp::SolverOptions Capture = Opts.Manage.LPOptions;
    Capture.Engine = lp::LpEngine::Revised;
    Capture.CaptureBasis = true;
    lp::SolveInfo DonorInfo;
    lp::Solution Donor = lp::solve(F0.Model, Capture, &DonorInfo);
    if (Donor.Status != lp::SolveStatus::Optimal || !DonorInfo.OptBasis)
      return;

    core::MachineSpec Perturbed = Opts.Spec;
    Perturbed.MaxCapacityNl *= 0.875;
    core::Formulation F1 = core::buildVolumeModel(G, Perturbed);
    lp::SolverOptions Cold = Opts.Manage.LPOptions;
    Cold.Engine = lp::LpEngine::Revised;
    lp::SolverOptions Warm = Cold;
    Warm.WarmStart = DonorInfo.OptBasis;
    Warm.WarmShapeHash = DonorInfo.ShapeHash;
    Warm.CaptureBasis = true;
    lp::Solution SCold = lp::solve(F1.Model, Cold);
    lp::SolveInfo WarmInfo;
    lp::Solution SWarm = lp::solve(F1.Model, Warm, &WarmInfo);
    if (!Decisive(SCold.Status) || !Decisive(SWarm.Status))
      return;
    if (SCold.Status != SWarm.Status) {
      fail(Oracle::Cuts,
           format("warm basis repair changes the LP verdict under a "
                  "perturbed capacity: cold %s vs warm %s",
                  lp::solveStatusName(SCold.Status),
                  lp::solveStatusName(SWarm.Status)));
      return;
    }
    if (SCold.Status == lp::SolveStatus::Optimal) {
      double Tol = Opts.Tolerance * std::max(1.0, std::fabs(SCold.Objective));
      if (std::fabs(SWarm.Objective - SCold.Objective) > Tol)
        fail(Oracle::Cuts,
             format("warm basis repair diverges from the cold solve: "
                    "%.9g vs %.9g",
                    SCold.Objective, SWarm.Objective));
    }
  }

  /// Presolve and pricing are pure reformulations of the same LP: solving
  /// with the reduction rules on vs off, and pricing with devex vs
  /// Bland's rule, must reach the same status and optimum, and the
  /// postsolved solution must satisfy the *original* model's constraints.
  void checkPresolve(const AssayGraph &G) {
    core::FormulationOptions FOpts;
    core::Formulation F = core::buildVolumeModel(G, Opts.Spec, FOpts);

    lp::SolverOptions On = Opts.Manage.LPOptions;
    On.Engine = lp::LpEngine::Revised;
    On.Presolve = true;
    lp::SolverOptions Off = On;
    Off.Presolve = false;
    lp::SolverOptions Bland = On;
    Bland.Simplex.Pricing = lp::LpPricing::Bland;

    lp::Solution SOn = lp::solve(F.Model, On);
    lp::Solution SOff = lp::solve(F.Model, Off);
    lp::Solution SBland = lp::solve(F.Model, Bland);

    auto Decisive = [](lp::SolveStatus S) {
      return S == lp::SolveStatus::Optimal ||
             S == lp::SolveStatus::Infeasible ||
             S == lp::SolveStatus::Unbounded;
    };
    auto Agree = [&](const lp::Solution &A, const lp::Solution &B,
                     const char *What) {
      if (!Decisive(A.Status) || !Decisive(B.Status))
        return;
      if (A.Status != B.Status) {
        fail(Oracle::Presolve,
             format("%s change the verdict: %s vs %s", What,
                    lp::solveStatusName(A.Status),
                    lp::solveStatusName(B.Status)));
        return;
      }
      if (A.Status != lp::SolveStatus::Optimal)
        return;
      double Tol = Opts.Tolerance * std::max(1.0, std::fabs(A.Objective));
      if (std::fabs(A.Objective - B.Objective) > Tol)
        fail(Oracle::Presolve,
             format("%s change the optimum: %.9g vs %.9g", What,
                    A.Objective, B.Objective));
    };
    Agree(SOn, SOff, "presolve reductions");
    Agree(SOn, SBland, "devex vs Bland pivot orders");

    if (SOn.Status == lp::SolveStatus::Optimal) {
      double Viol = F.Model.maxViolation(SOn.Values);
      if (Viol > Opts.Tolerance)
        fail(Oracle::Presolve,
             format("postsolved solution violates the original model by "
                    "%.3g",
                    Viol));
    }
  }

  /// Figure 3 verification of the manager's answer plus the exact integer
  /// invariants of conservation-aware rounding.
  void checkManaged(const core::ManagerResult &VM) {
    if (on(Oracle::Graph)) {
      if (Status S = VM.Graph.verify(); !S.ok())
        fail(Oracle::Graph,
             format("transformed graph: %s", S.message().c_str()));
    }

    if (on(Oracle::Assignment)) {
      core::VerifyOptions VO;
      VO.RatioTolerance = 1e-6;
      auto Violations =
          core::verifyAssignment(VM.Graph, VM.Volumes, Opts.Spec, VO);
      if (!Violations.empty())
        fail(Oracle::Assignment,
             format("manager assignment (%s): %s",
                    VM.Method == core::SolveMethod::DagSolve ? "DAGSolve"
                                                             : "LP",
                    core::violationsToString(Violations).c_str()));
    }

    if (!on(Oracle::Rounding))
      return;
    const AssayGraph &G = VM.Graph;
    const core::IntegerAssignment &IVol = VM.Rounded;
    std::int64_t Cap = Opts.Spec.capacityUnits();

    if (!IVol.Underflow) {
      for (EdgeId E : G.liveEdges())
        if (IVol.EdgeUnits[E] < 1)
          fail(Oracle::Rounding,
               format("edge %d has %lld units without an underflow flag", E,
                      static_cast<long long>(IVol.EdgeUnits[E])));
    }

    // Independent anchor against the real-valued solve: nearest-rounding
    // never adds more than half a unit, and conservation trimming only
    // subtracts. An edge above Real+0.5 or far below Real is a rounding
    // bug, regardless of how self-consistent the rest of the artifact is.
    for (EdgeId E : G.liveEdges()) {
      double Real = Opts.Spec.toUnits(VM.Volumes.EdgeVolumeNl[E]);
      double Diff = static_cast<double>(IVol.EdgeUnits[E]) - Real;
      if (Diff > 0.5 + 1e-6 || Diff < -2.5)
        fail(Oracle::Rounding,
             format("edge %d rounded to %lld units but the real-valued "
                    "solve gives %.6f units",
                    E, static_cast<long long>(IVol.EdgeUnits[E]), Real));
    }
    for (NodeId N : G.liveNodes()) {
      const Node &Nd = G.node(N);
      const std::vector<EdgeId> &In = G.inEdges(N);
      std::int64_t InSum = 0;
      for (EdgeId E : In)
        InSum += IVol.EdgeUnits[E];

      if (!IVol.Overflow && IVol.NodeUnits[N] > Cap)
        fail(Oracle::Rounding,
             format("node %d holds %lld units over the %lld-unit capacity "
                    "without an overflow flag",
                    N, static_cast<long long>(IVol.NodeUnits[N]),
                    static_cast<long long>(Cap)));

      // Exact recomputation of the node's output units from its (final)
      // in-edge units -- Rational arithmetic, no tolerance.
      if (!In.empty()) {
        std::int64_t Expect =
            (Nd.OutFraction == Rational(1) || Nd.UnknownVolume)
                ? InSum
                : (Nd.OutFraction * Rational(InSum)).roundNearest();
        if (IVol.NodeUnits[N] != Expect)
          fail(Oracle::Rounding,
               format("node %d (%s): %lld units, exact recomputation gives "
                      "%lld",
                      N, Nd.Name.c_str(),
                      static_cast<long long>(IVol.NodeUnits[N]),
                      static_cast<long long>(Expect)));
      }

      // Integer conservation: real (non-excess) uses never draw more than
      // the producer's integer volume.
      if (!IVol.Underflow) {
        std::int64_t Demand = 0;
        for (EdgeId E : G.outEdges(N))
          if (G.node(G.edge(E).Dst).Kind != NodeKind::Excess)
            Demand += IVol.EdgeUnits[E];
        if (Demand > IVol.NodeUnits[N])
          fail(Oracle::Rounding,
               format("node %d (%s): integer demand %lld exceeds the %lld "
                      "units produced",
                      N, Nd.Name.c_str(), static_cast<long long>(Demand),
                      static_cast<long long>(IVol.NodeUnits[N])));
      }
    }

    // The reported ratio error must match an independent recomputation.
    auto [MaxErr, MeanErr] = core::mixRatioErrorPct(G, IVol);
    if (std::fabs(MaxErr - IVol.MaxRatioErrorPct) > 1e-9 ||
        std::fabs(MeanErr - IVol.MeanRatioErrorPct) > 1e-9)
      fail(Oracle::Rounding, "reported mix-ratio error does not match "
                             "recomputation");
  }

  /// Checks the VM's result \p Vm against the tree-walking reference run
  /// of \p Prog under the same options, bit for bit.
  void checkVmEquivalence(const codegen::AISProgram &Prog,
                          const vm::CompileOptions &CO,
                          const vm::RunOptions &RO, const vm::SimResult &Vm) {
    vm::SimResult Sim = referenceSimulate(Prog, CO, RO);

    auto mismatch = [&](const char *What, const std::string &Detail) {
      fail(Oracle::Vm, format("VM diverges from reference on %s: %s", What,
                              Detail.c_str()));
    };
    if (Vm.Completed != Sim.Completed || Vm.Error != Sim.Error)
      return mismatch("outcome",
                      format("ref completed=%d error='%s', vm completed=%d "
                             "error='%s'",
                             Sim.Completed, Sim.Error.c_str(), Vm.Completed,
                             Vm.Error.c_str()));
    if (Vm.Regenerations != Sim.Regenerations ||
        Vm.UnderflowEvents != Sim.UnderflowEvents ||
        Vm.OverflowEvents != Sim.OverflowEvents ||
        Vm.SubLeastCountMoves != Sim.SubLeastCountMoves ||
        Vm.InstructionsExecuted != Sim.InstructionsExecuted)
      return mismatch("counters",
                      format("ref regen/under/over/sublc/instr "
                             "%d/%d/%d/%d/%d, vm %d/%d/%d/%d/%d",
                             Sim.Regenerations, Sim.UnderflowEvents,
                             Sim.OverflowEvents, Sim.SubLeastCountMoves,
                             Sim.InstructionsExecuted, Vm.Regenerations,
                             Vm.UnderflowEvents, Vm.OverflowEvents,
                             Vm.SubLeastCountMoves, Vm.InstructionsExecuted));
    if (Vm.FluidSeconds != Sim.FluidSeconds ||
        Vm.DeliveredNl != Sim.DeliveredNl || Vm.WasteNl != Sim.WasteNl)
      return mismatch("totals",
                      format("ref sec/delivered/waste %.17g/%.17g/%.17g, vm "
                             "%.17g/%.17g/%.17g",
                             Sim.FluidSeconds, Sim.DeliveredNl, Sim.WasteNl,
                             Vm.FluidSeconds, Vm.DeliveredNl, Vm.WasteNl));
    if (Vm.InputDrawnNl != Sim.InputDrawnNl)
      return mismatch("input accounting",
                      format("%zu vs %zu ports or differing draws",
                             Sim.InputDrawnNl.size(), Vm.InputDrawnNl.size()));
    if (Vm.Senses.size() != Sim.Senses.size())
      return mismatch("sense count", format("ref %zu, vm %zu",
                                            Sim.Senses.size(),
                                            Vm.Senses.size()));
    for (std::size_t I = 0; I < Sim.Senses.size(); ++I) {
      const vm::SenseReading &A = Sim.Senses[I];
      const vm::SenseReading &B = Vm.Senses[I];
      if (A.Name != B.Name || A.VolumeNl != B.VolumeNl ||
          A.Composition != B.Composition)
        return mismatch("sense reading",
                        format("'%s' (index %zu) differs in name, volume, "
                               "or composition",
                               A.Name.c_str(), I));
    }
  }

  /// Runs the generated AIS on the VM and cross-checks sensed compositions
  /// against the exact prediction.
  void checkSimulation(const AssayGraph &Lowered,
                       const service::CompileArtifact &A) {
    bool ManagedRun = R.Managed && R.Feasible;
    const AssayGraph *G = ManagedRun ? &A.VM.Graph : &Lowered;
    // An infeasible assay has no managed program; its relative one runs.
    Expected<codegen::AISProgram> Prog =
        R.Managed && !R.Feasible ? codegen::generateAIS(Lowered, Opts.Layout)
        : A.Ok ? Expected<codegen::AISProgram>(A.Program)
               : Expected<codegen::AISProgram>::error(A.Error);
    if (!Prog.ok())
      return; // Resource exhaustion is a legitimate compile outcome.

    vm::CompileOptions CO;
    CO.Spec = Opts.Spec;
    CO.Graph = G;
    vm::RunOptions RO;
    RO.FixedSeparationYield = Opts.FixedYield;
    auto BC = vm::compile(*Prog, CO);
    if (!BC.ok()) {
      fail(on(Oracle::Vm) ? Oracle::Vm : Oracle::Simulation,
           format("bytecode compile failed: %s", BC.message().c_str()));
      return;
    }
    vm::SimResult S = vm::run(*BC, RO);
    R.Simulated = true;

    // Bytecode-VM oracle: bit-for-bit SimResult equality against the
    // tree-walking reference under the same options, completed or not --
    // error strings, counters, volumes and sense readings all exact.
    if (on(Oracle::Vm))
      checkVmEquivalence(*Prog, CO, RO, S);
    if (!on(Oracle::Simulation))
      return;

    if (!S.Completed) {
      // A relative run moves unmetered part-ratios, so a consumer can
      // legitimately demand more than a yield-lossy producer is able to
      // regenerate; exhaustion is a valid outcome there. Managed runs are
      // metered by the solved volumes and must always complete.
      if (!ManagedRun &&
          S.Error.find("regeneration exhausted") != std::string::npos)
        return;
      fail(Oracle::Simulation,
           format("%s run did not complete: %s",
                  ManagedRun ? "managed" : "relative", S.Error.c_str()));
      return;
    }

    // Every sense in the DAG must have produced exactly one reading.
    std::map<std::string, const vm::SenseReading *> Readings;
    for (const vm::SenseReading &Rd : S.Senses) {
      if (Readings.count(Rd.Name)) {
        fail(Oracle::Simulation,
             format("duplicate reading for sense '%s'", Rd.Name.c_str()));
        return;
      }
      Readings[Rd.Name] = &Rd;
    }
    for (NodeId N : G->liveNodes()) {
      if (G->node(N).Kind != NodeKind::Sense)
        continue;
      if (!Readings.count(senseResultName(G->node(N)))) {
        fail(Oracle::Simulation,
             format("sense '%s' produced no reading",
                    senseResultName(G->node(N)).c_str()));
        return;
      }
    }

    // Exact composition cross-check, valid only for clean runs: any
    // clipped, skipped, or partially-short transfer legitimately perturbs
    // downstream ratios.
    if (S.UnderflowEvents || S.OverflowEvents || S.SubLeastCountMoves)
      return;
    std::map<std::string, Composition> Predicted;
    bool Exact =
        ManagedRun
            ? predictSenseCompositions(
                  *G,
                  [&](EdgeId E) {
                    return Frac::ratio(A.VM.Rounded.EdgeUnits[E], 1);
                  },
                  Predicted)
            // A relative run fills the consuming unit to capacity at the
            // part ratio and meters each part to the least count, so its
            // weights are the metered units, not the unrounded fractions.
            : predictSenseCompositions(
                  *G,
                  [&](EdgeId E) {
                    const Rational &F = G->edge(E).Fraction;
                    double PartNl = Opts.Spec.MaxCapacityNl *
                                    static_cast<double>(F.numerator()) /
                                    static_cast<double>(F.denominator());
                    return Frac::ratio(
                        std::llround(PartNl / Opts.Spec.LeastCountNl), 1);
                  },
                  Predicted);
    if (!Exact)
      return; // Fraction overflow: no exact prediction available.
    R.ExactComposition = true;

    // The prediction is exact; the tolerance below only covers the
    // VM's double-precision accumulation, not algorithmic slack.
    const double Tol = 1e-9;
    for (const auto &[Name, Comp] : Predicted) {
      const vm::SenseReading *Rd = Readings[Name];
      for (const auto &[Fluid, F] : Comp) {
        auto It = Rd->Composition.find(Fluid);
        double Got = It == Rd->Composition.end() ? 0.0 : It->second;
        if (std::fabs(Got - F.toDouble()) > Tol) {
          fail(Oracle::Simulation,
               format("sense '%s': fraction of '%s' is %.12f, exact "
                      "prediction %.12f",
                      Name.c_str(), Fluid.c_str(), Got, F.toDouble()));
          return;
        }
      }
      for (const auto &[Fluid, Got] : Rd->Composition)
        if (!Comp.count(Fluid) && Got > Tol) {
          fail(Oracle::Simulation,
               format("sense '%s': unexpected constituent '%s' (%.12f)",
                      Name.c_str(), Fluid.c_str(), Got));
          return;
        }
    }
  }

  /// Structure-level metamorphic checks on the lowered graph.
  void checkMetamorphic(const AssayGraph &G) {
    CanonicalForm Canon = ir::canonicalize(G);

    // Insertion-order permutation: fingerprint and canonical listing must
    // be bit-identical.
    AssayGraph P = permuteGraph(G);
    CanonicalForm PCanon = ir::canonicalize(P);
    if (PCanon.Hash != Canon.Hash)
      fail(Oracle::Metamorphic,
           "insertion-order permutation changed the canonical fingerprint");
    else if (ir::buildCanonicalGraph(P, PCanon).str() !=
             ir::buildCanonicalGraph(G, Canon).str())
      fail(Oracle::Metamorphic,
           "insertion-order permutation changed the canonical listing");

    auto ExactFraction = [](const AssayGraph &H) {
      return [&H](EdgeId E) {
        const Rational &F = H.edge(E).Fraction;
        return Frac::ratio(F.numerator(), F.denominator());
      };
    };
    std::map<std::string, Composition> Base;
    if (!predictSenseCompositions(G, ExactFraction(G), Base))
      return; // Overflow: composition-invariance checks unavailable.

    // Binarize every k-ary mix: the rewrite is volumetrically exact, so
    // sensed compositions may not move at all.
    {
      AssayGraph B = G;
      bool Applied = false;
      for (NodeId N : G.liveNodes()) {
        if (B.node(N).Kind != NodeKind::Mix || B.inEdges(N).size() <= 2)
          continue;
        auto Res = core::binarizeMix(B, N);
        if (!Res.ok()) {
          fail(Oracle::Metamorphic,
               format("binarizeMix failed on node %d: %s", N,
                      Res.message().c_str()));
          return;
        }
        Applied = true;
      }
      if (Applied)
        checkRewrite(B, Base, "binarize");
    }

    // Cascade every extreme two-input mix.
    {
      AssayGraph C = G;
      bool Applied = false;
      for (NodeId N : G.liveNodes()) {
        if (C.node(N).Kind != NodeKind::Mix || C.inEdges(N).size() != 2)
          continue;
        std::vector<EdgeId> In = C.inEdges(N);
        Rational F0 = C.edge(In[0]).Fraction;
        Rational F1 = C.edge(In[1]).Fraction;
        Rational Small = F0 < F1 ? F0 : F1;
        // Reduced parts: Small = s/(s+l) with gcd(s, s+l) = 1.
        std::int64_t S = Small.numerator();
        std::int64_t L = Small.denominator() - S;
        int Stages = core::chooseCascadeStages(
            S, L, Opts.Manage.CascadeSkewThreshold,
            Opts.Manage.MaxCascadeStages);
        if (Stages < 2)
          continue;
        auto Res = core::cascadeMix(C, N, Stages);
        if (!Res.ok()) {
          fail(Oracle::Metamorphic,
               format("cascadeMix(%d stages) failed on node %d: %s", Stages,
                      N, Res.message().c_str()));
          return;
        }
        Applied = true;
      }
      if (Applied)
        checkRewrite(C, Base, "cascade");
    }
  }

  /// Shared tail of the binarize/cascade checks: the rewritten graph still
  /// verifies and predicts identical sense compositions.
  void checkRewrite(const AssayGraph &H,
                    const std::map<std::string, Composition> &Base,
                    const char *What) {
    if (Status S = H.verify(); !S.ok()) {
      fail(Oracle::Metamorphic,
           format("%s rewrite broke graph invariants: %s", What,
                  S.message().c_str()));
      return;
    }
    std::map<std::string, Composition> After;
    if (!predictSenseCompositions(
            H,
            [&H](EdgeId E) {
              const Rational &F = H.edge(E).Fraction;
              return Frac::ratio(F.numerator(), F.denominator());
            },
            After))
      return;
    std::string Diff;
    if (!sameSenseCompositions(Base, After, Diff))
      fail(Oracle::Metamorphic,
           format("%s rewrite changed exact compositions: %s", What,
                  Diff.c_str()));
  }

  /// Persistence round trip: solve once through a service writing to an
  /// in-memory store, then reload through a *second* service on the same
  /// store (fresh L1, so the artifact must come back through the codec and
  /// the store's checksummed records) and demand bit-identity.
  void checkStore(std::string_view Source) {
    store::MemEnv Env;
    service::ServiceOptions SO;
    SO.Threads = 1;
    SO.StoreDir = "check-store";
    SO.StoreEnv = &Env;

    service::CompileRequest Req;
    Req.Name = "store-oracle";
    Req.Source = std::string(Source);
    Req.Spec = Opts.Spec;
    Req.Manage = Opts.Manage;
    Req.Layout = Opts.Layout;

    service::CompileResponse R1;
    {
      service::CompileService Svc(SO);
      if (!Svc.store()) {
        fail(Oracle::Store, "service failed to open the in-memory store");
        return;
      }
      R1 = Svc.compileNow(Req);
    }
    if (!R1.Artifact) {
      fail(Oracle::Store, "service returned no artifact for a program the "
                          "front end accepts");
      return;
    }

    // The codec alone must be a lossless involution on re-encode.
    std::string Encoded = service::encodeArtifact(*R1.Artifact);
    auto Decoded = service::decodeArtifact(Encoded);
    if (!Decoded.ok()) {
      fail(Oracle::Store, format("artifact fails to decode its own "
                                 "encoding: %s",
                                 Decoded.message().c_str()));
      return;
    }
    if (service::encodeArtifact(*Decoded) != Encoded) {
      fail(Oracle::Store,
           "encode(decode(encode(artifact))) != encode(artifact)");
      return;
    }

    // A fresh service on the same store must serve the key from its L2.
    service::CompileService Svc2(SO);
    service::CompileResponse R2 = Svc2.compileNow(Req);
    if (!R2.Artifact) {
      fail(Oracle::Store, "restarted service returned no artifact");
      return;
    }
    if (!R2.CacheHit || !R2.CacheHitL2) {
      fail(Oracle::Store,
           format("restarted service did not serve from the store "
                  "(hit=%d, l2=%d)",
                  R2.CacheHit ? 1 : 0, R2.CacheHitL2 ? 1 : 0));
      return;
    }
    if (R2.Key != R1.Key)
      fail(Oracle::Store, "restarted service produced a different "
                          "request fingerprint");

    // Bit-identity of the reloaded artifact, checked three ways: the full
    // encoding, the rendered AIS program, and the exact assignments.
    if (service::encodeArtifact(*R2.Artifact) != Encoded)
      fail(Oracle::Store, "reloaded artifact's encoding differs from the "
                          "in-memory solve's");
    if (R2.Artifact->Program.str() != R1.Artifact->Program.str())
      fail(Oracle::Store, "reloaded artifact renders different AIS text");
    if (R2.Artifact->VM.Rounded.NodeUnits != R1.Artifact->VM.Rounded.NodeUnits ||
        R2.Artifact->VM.Rounded.EdgeUnits != R1.Artifact->VM.Rounded.EdgeUnits)
      fail(Oracle::Store, "reloaded artifact's integer volumes differ");
    if (R2.Artifact->VM.Volumes.NodeVolumeNl !=
            R1.Artifact->VM.Volumes.NodeVolumeNl ||
        R2.Artifact->VM.Volumes.EdgeVolumeNl !=
            R1.Artifact->VM.Volumes.EdgeVolumeNl ||
        R2.Artifact->Metered.NodeVolumeNl !=
            R1.Artifact->Metered.NodeVolumeNl ||
        R2.Artifact->Metered.EdgeVolumeNl !=
            R1.Artifact->Metered.EdgeVolumeNl)
      fail(Oracle::Store, "reloaded artifact's volume assignments differ");
  }

  /// Checks that need the generator's statement skeleton: uniform ratio
  /// scaling and service-cache coherence.
  void checkSkeleton(std::string_view Source, const AssayGraph &G,
                     const core::ManagerResult &VM, const GenProgram &P) {
    // Uniformly scaling every plain mix's ratios preserves all fractions,
    // so the lowered graph -- and its fingerprint -- must be identical.
    GenProgram Scaled = P;
    bool AnyScaled = false;
    for (GenStmt &S : Scaled.Stmts) {
      if (S.K != GenStmt::Kind::Mix)
        continue;
      for (std::int64_t &Ratio : S.Ratios)
        Ratio *= 3;
      AnyScaled = true;
    }
    std::string ScaledSource;
    if (AnyScaled && on(Oracle::Metamorphic)) {
      ScaledSource = Scaled.render();
      auto Relowered = lang::compileAssay(ScaledSource);
      if (!Relowered.ok()) {
        fail(Oracle::Metamorphic,
             format("ratio-scaled program fails to compile: %s",
                    Relowered.message().c_str()));
      } else if (ir::fingerprintGraph(Relowered->Graph) !=
                 ir::fingerprintGraph(G)) {
        fail(Oracle::Metamorphic,
             "uniform ratio scaling changed the canonical fingerprint");
      }
    }

    if (!on(Oracle::Cache))
      return;
    service::ServiceOptions SO;
    SO.Threads = 1;
    service::CompileService Svc(SO);
    service::CompileRequest Req;
    Req.Name = P.Name;
    Req.Source = std::string(Source);
    Req.Spec = Opts.Spec;
    Req.Manage = Opts.Manage;
    Req.Layout = Opts.Layout;

    service::CompileResponse R1 = Svc.compileNow(Req);
    service::CompileResponse R2 = Svc.compileNow(Req);
    if (!R1.Artifact || !R2.Artifact) {
      fail(Oracle::Cache, "service returned no artifact for a program the "
                          "front end accepts");
      return;
    }
    if (!R2.CacheHit)
      fail(Oracle::Cache, "identical resubmission missed the solve cache");
    else if (R2.Artifact.get() != R1.Artifact.get())
      fail(Oracle::Cache,
           "cache hit returned a different artifact object than the "
           "original solve");
    if (R2.Key != R1.Key)
      fail(Oracle::Cache, "identical resubmission produced a different "
                          "request fingerprint");

    // The service's solve (memo, cache, warm-start donor) must agree with
    // a direct compileGraph bit for bit.
    if (R.Managed && R1.Artifact->Managed) {
      if (R1.Artifact->VM.Feasible != VM.Feasible)
        fail(Oracle::Cache, "service and direct pipeline disagree on "
                            "feasibility");
      else if (VM.Feasible &&
               (R1.Artifact->VM.Rounded.NodeUnits != VM.Rounded.NodeUnits ||
                R1.Artifact->VM.Rounded.EdgeUnits != VM.Rounded.EdgeUnits))
        fail(Oracle::Cache, "service artifact's integer volumes differ "
                            "from the direct pipeline's");
    }

    if (AnyScaled) {
      service::CompileRequest ScaledReq = Req;
      ScaledReq.Source = ScaledSource;
      service::CompileResponse R3 = Svc.compileNow(ScaledReq);
      if (R3.Key != R1.Key)
        fail(Oracle::Cache, "ratio-scaled program keyed differently despite "
                            "an identical canonical graph");
      else if (!R3.CacheHit || R3.Artifact.get() != R1.Artifact.get())
        fail(Oracle::Cache, "ratio-scaled resubmission did not reuse the "
                            "cached artifact");
    }
  }

  const CheckOptions &Opts;
  CaseReport R;
};

} // namespace

CaseReport aqua::check::checkSource(std::string_view Source,
                                    const CheckOptions &Opts) {
  Engine E(Opts);
  return E.run(Source, nullptr);
}

CaseReport aqua::check::checkProgram(const GenProgram &P,
                                     const CheckOptions &Opts) {
  CheckOptions Local = Opts;
  Local.FixedYield = P.fixedYield();
  Engine E(Local);
  return E.run(P.render(), &P);
}
