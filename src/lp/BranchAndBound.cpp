//===- BranchAndBound.cpp - ILP via branch-and-bound -------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// One shared Model and one shared sparse column copy; nodes are compact
// bound-delta paths plus a shared_ptr to the parent's optimal basis. Each
// node applies its deltas onto one RevisedSimplex and dual-reoptimizes from
// the parent basis -- usually a handful of pivots instead of a cold
// two-phase solve of a Model copy. The search plunges depth-first into the
// child nearest the fractional LP value (the engine already holds the
// parent basis and factorization) while the other child goes to a
// best-bound-ordered pool. Best-bound ties pop by tree-position id and
// equal-objective incumbents are tie-broken lexicographically, so the
// reported solution is a function of the model alone.
//
// Root cutting planes and cut-and-branch restarts wrap the tree search;
// reliability branching picks the branch variable.
//
//===----------------------------------------------------------------------===//

#include "aqua/lp/BranchAndBound.h"

#include "aqua/lp/Branching.h"
#include "aqua/lp/Cuts.h"
#include "aqua/lp/RevisedSimplex.h"
#include "aqua/lp/Tolerances.h"
#include "aqua/obs/Metrics.h"
#include "aqua/obs/Timer.h"
#include "aqua/obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <queue>
#include <vector>

using namespace aqua;
using namespace aqua::lp;

namespace {

/// A value within IntTol of an integer counts as integral.
constexpr double IntTol = tol::Integrality;
/// Maximum cut-and-branch restarts.
constexpr int MaxRestarts = 3;
/// Strong-branch at most this many unreliable candidates per node.
constexpr int StrongCandidates = 4;
/// Dual-simplex pivot cap per strong-branch probe.
constexpr std::int64_t StrongIterations = 60;
/// Consecutive depth-first plunge steps before both children go back to
/// the best-bound pool (a diving restart, keeping the search from drifting
/// into one deep subtree).
constexpr int PlungeLimit = 40;

/// Global-registry instruments, resolved once.
struct BbMetrics {
  obs::Counter &Solves = obs::metrics().counter("lp.bb.solves");
  obs::Counter &Nodes = obs::metrics().counter("lp.bb.nodes");
  obs::Counter &Pruned = obs::metrics().counter("lp.bb.pruned");
  obs::Counter &Incumbents = obs::metrics().counter("lp.bb.incumbents");
  obs::Counter &CutsGenerated = obs::metrics().counter("lp.cuts_generated");
  obs::Counter &CutsActive = obs::metrics().counter("lp.cuts_active");
  obs::Counter &CutRounds = obs::metrics().counter("lp.cut_rounds");
  obs::Counter &PseudocostInits =
      obs::metrics().counter("ilp.pseudocost_inits");
  obs::Counter &StrongBranches =
      obs::metrics().counter("ilp.strong_branches");
  obs::Counter &Restarts = obs::metrics().counter("ilp.restarts");
};

BbMetrics &met() {
  static BbMetrics M;
  return M;
}

//===----------------------------------------------------------------------===//
// Tree search
//===----------------------------------------------------------------------===//

/// A pending subproblem.
struct WarmNode {
  /// Parent's LP bound in internal (maximize) sign; root uses +infinity.
  double Bound = Infinity;
  /// Deterministic tree-position id: root 1, down child 2i, up child 2i+1
  /// (saturating at 62 levels). Best-bound ties pop the smaller id first,
  /// independent of push order.
  std::uint64_t Id = 1;
  std::vector<BoundChange> Path;
  std::shared_ptr<const Basis> Warm;
  /// The branching decision that created this node (-1 for the root and
  /// for re-solved nodes): once the node's LP bound is known, the parent's
  /// bound degradation per unit of BranchFrac feeds the pseudocost table.
  int BranchVar = -1;
  bool BranchUp = false;
  double BranchFrac = 1.0;
};

struct WarmNodeOrder {
  bool operator()(const WarmNode &A, const WarmNode &B) const {
    if (A.Bound != B.Bound)
      return A.Bound < B.Bound; // Larger bound pops first.
    return A.Id > B.Id;         // Then smaller id.
  }
};

std::uint64_t childId(std::uint64_t Parent, bool Up) {
  if (Parent >= (std::uint64_t(1) << 62))
    return Parent; // Saturate: ties deeper than 62 levels stay stable.
  return 2 * Parent + (Up ? 1 : 0);
}

/// One tree search over a fixed (possibly cut-strengthened) model.
struct WarmSearch {
  const Model &M;
  const std::vector<bool> &IsInteger;
  const IntOptions &Opts;
  double Sign;
  std::shared_ptr<const SparseMatrix> Cols;
  WallTimer Timer;

  bool BudgetHit = false;
  bool Unbounded = false;
  bool CapHit = false; // Restart node cap tripped.
  /// A node's LP ended NumericFail: the search stops unproven, with the
  /// node neither pruned nor branched.
  bool NumericFail = false;

  /// Pseudocost table shared with the caller (it survives restarts).
  PseudocostTable &PT;
  /// Internal node budget for cut-and-branch restarts, counted in this
  /// search's own nodes; 0 disables. Only trips once an incumbent exists
  /// -- restarting without one has nothing to tighten with.
  std::int64_t NodeCap = 0;
  /// Wall-clock seconds and nodes already spent (root cutting, earlier
  /// restarts) before this search started; budget checks add them to
  /// Timer and Nodes, so the budgets bound the whole solve.
  double TimeOffset = 0.0;
  std::int64_t NodeOffset = 0;

  std::int64_t Nodes = 0;
  std::int64_t Pivots = 0;

  /// Incumbent bound in internal sign.
  double IncBound = -Infinity;
  bool HasInc = false;
  double IncObjective = 0.0;
  std::vector<double> IncValues;

  WarmSearch(const Model &M, const std::vector<bool> &IsInteger,
             const IntOptions &Opts, PseudocostTable &PT)
      : M(M), IsInteger(IsInteger), Opts(Opts),
        Sign(M.isMaximize() ? 1.0 : -1.0),
        Cols(std::make_shared<const SparseMatrix>(M)), PT(PT) {}

  double elapsed() { return TimeOffset + Timer.seconds(); }

  bool overBudget() {
    if (Opts.MaxNodes > 0 && NodeOffset + Nodes >= Opts.MaxNodes)
      return true;
    if (Opts.TimeLimitSec > 0.0 && elapsed() > Opts.TimeLimitSec)
      return true;
    return false;
  }

  /// True once the restart node cap is exceeded with an incumbent in hand.
  bool overCap() {
    return NodeCap > 0 && Nodes >= NodeCap && IncBound > -Infinity;
  }

  /// Offers an integral solution. Strict improvements replace the
  /// incumbent; ties within the prune tolerance keep the lexicographically
  /// smaller value vector, so the answer does not depend on the order the
  /// tree reaches equal optima.
  void offerIncumbent(double Internal, double Obj, std::vector<double> Vals) {
    bool Take;
    if (!HasInc || Internal > IncBound + tol::Prune)
      Take = true;
    else if (Internal < IncBound - tol::Prune)
      Take = false;
    else
      Take = std::lexicographical_compare(Vals.begin(), Vals.end(),
                                          IncValues.begin(), IncValues.end());
    if (!Take)
      return;
    met().Incumbents.add();
    HasInc = true;
    IncObjective = Obj;
    IncValues = std::move(Vals);
    IncBound = std::max(IncBound, Internal);
  }

  void run(WarmNode Root);
};

/// Searches the tree below \p Root: pops pool nodes best-bound first and
/// plunges each subtree depth-first until the pool drains or a budget, the
/// restart cap, unboundedness or a numeric failure stops the search.
void WarmSearch::run(WarmNode Root) {
  RevisedSimplex Engine(M, Cols);
  // Node reoptimizations run a handful of dual pivots each; the
  // refactorization clock ticks across nodes, so the default interval
  // would spend most of the search rebuilding B^-1. Drift from the
  // product-form updates is caught by the per-node dual-feasibility
  // validation (which falls back to a cold solve), so a long interval is
  // safe here.
  Engine.setRefactorInterval(2000);
  std::vector<BoundChange> Applied; // Engine's current bound overrides.
  std::priority_queue<WarmNode, std::vector<WarmNode>, WarmNodeOrder> Pool;
  Pool.push(std::move(Root));

  while (!Pool.empty()) {
    WarmNode Node = Pool.top();
    Pool.pop();
    bool HaveNode = true;
    int ChainLen = 0; // Consecutive inline plunge steps since the pop.
    while (HaveNode) {
      HaveNode = false;
      if (overBudget()) {
        BudgetHit = true;
        return;
      }
      if (overCap()) {
        CapHit = true;
        return;
      }
      // Fathom against the incumbent before spending any pivots.
      if (Node.Bound <= IncBound + tol::Prune) {
        met().Pruned.add();
        continue;
      }

      ++Nodes;
      met().Nodes.add();

      // Swap the engine onto this node's bounds.
      for (const BoundChange &C : Applied)
        Engine.resetBounds(C.Var);
      Applied = Node.Path;
      for (const BoundChange &C : Applied) {
        if (C.IsUpper)
          Engine.setUpper(C.Var, C.Bound);
        else
          Engine.setLower(C.Var, C.Bound);
      }

      // Children inherit the configured pricing rule along with the
      // parent's reduced costs and devex weights from the warm basis.
      SolveOptions RO = Opts.LP.Simplex;
      if (Opts.TimeLimitSec > 0.0)
        RO.TimeLimitSec = std::max(Opts.TimeLimitSec - elapsed(), 1e-3);

      SolveStatus St =
          Engine.reoptimizeDual(Node.Warm ? *Node.Warm : Basis{}, RO);
      Pivots += Engine.iterations();

      if (St == SolveStatus::Infeasible)
        continue;
      if (St == SolveStatus::Unbounded) {
        Unbounded = true;
        return;
      }
      if (St == SolveStatus::NumericFail) {
        // The node's bound is unknown, so it can be neither pruned nor
        // branched on: stop unproven, keeping the incumbent.
        NumericFail = true;
        return;
      }
      if (St != SolveStatus::Optimal) {
        // Budget expired inside the LP.
        BudgetHit = true;
        return;
      }

      const double Obj = Engine.objective();
      const std::vector<double> &Vals = Engine.values();
      double Bound = Sign * Obj;
      // The parent predicted this branch's degradation when it plunged;
      // feed the realized one back into the pseudocost table.
      if (Node.BranchVar >= 0 && Node.Bound < Infinity) {
        double Deg = std::max(0.0, Node.Bound - Bound);
        if (PT.record(Node.BranchVar, Node.BranchUp,
                      Deg / std::max(Node.BranchFrac, 1e-9)))
          met().PseudocostInits.add();
      }
      if (Bound <= IncBound + tol::Prune) {
        met().Pruned.add();
        continue;
      }

      std::vector<BranchCandidate> Cands =
          fractionalCandidates(Vals, IsInteger, IntTol);
      if (Cands.empty()) {
        std::vector<double> Snapped = Vals;
        for (size_t I = 0; I < Snapped.size(); ++I)
          if (IsInteger[I])
            Snapped[I] = std::round(Snapped[I]);
        offerIncumbent(Bound, Obj, std::move(Snapped));
        continue;
      }

      // Strong-branch probes reuse the engine, clobbering Engine.values()
      // and the held basis; snapshot both first. Children warm-start from
      // the node's optimal basis either way.
      std::vector<double> NodeVals = Vals;
      auto NodeBasis = std::make_shared<const Basis>(Engine.basis());

      int BranchVar;
      if (Opts.Reliable > 0) {
        // Reliability branching: initialize the pseudocosts of the most
        // fractional unreliable candidates with pivot-capped dual-simplex
        // probes, then pick by the product-rule score.
        int Probed = 0;
        bool NodeChanged = false;
        for (const BranchCandidate &C : Cands) {
          if (Probed >= StrongCandidates)
            break;
          if (PT.reliability(C.Var) >= Opts.Reliable)
            continue;
          ++Probed;
          const double SaveL = Engine.lower(C.Var);
          const double SaveU = Engine.upper(C.Var);
          const double Fl = std::floor(NodeVals[C.Var]);
          for (int Dir = 0; Dir < 2 && !NodeChanged; ++Dir) {
            const bool Up = Dir == 1;
            met().StrongBranches.add();
            if (Up)
              Engine.setLower(C.Var, Fl + 1.0);
            else
              Engine.setUpper(C.Var, Fl);
            SolveOptions PRO = RO;
            PRO.MaxIterations = StrongIterations;
            SolveStatus PS = Engine.reoptimizeDual(*NodeBasis, PRO);
            Pivots += Engine.iterations();
            if (PS == SolveStatus::Optimal) {
              double Deg = std::max(0.0, Bound - Sign * Engine.objective());
              double F = Up ? Fl + 1.0 - NodeVals[C.Var]
                            : NodeVals[C.Var] - Fl;
              if (PT.record(C.Var, Up, Deg / std::max(F, 1e-9)))
                met().PseudocostInits.add();
            } else if (PS == SolveStatus::Infeasible) {
              // The probe proved this side empty, so its complement is
              // valid for the whole node: tighten and re-solve the node.
              Node.Path.push_back(Up ? BoundChange{C.Var, true, Fl}
                                     : BoundChange{C.Var, false, Fl + 1.0});
              NodeChanged = true;
            }
            if (Up)
              Engine.setLower(C.Var, SaveL);
            else
              Engine.setUpper(C.Var, SaveU);
          }
          if (NodeChanged)
            break;
        }
        if (NodeChanged) {
          Node.Warm = NodeBasis;
          Node.BranchVar = -1; // Parent degradation already recorded.
          HaveNode = true;
          continue;
        }
        BranchVar = Cands.front().Var;
        double BestScore = -1.0;
        for (const BranchCandidate &C : Cands) {
          double Score = pseudocostScore(PT.estimate(C.Var, true),
                                         PT.estimate(C.Var, false), C.Frac);
          if (Score > BestScore) {
            BestScore = Score;
            BranchVar = C.Var;
          }
        }
      } else {
        BranchVar = Cands.front().Var; // Most fractional.
      }

      double Val = NodeVals[BranchVar];
      double Floor = std::floor(Val), Ceil = std::ceil(Val);
      double CurLower = Engine.lower(BranchVar);
      double CurUpper = Engine.upper(BranchVar);

      auto MakeChild = [&](bool Up) {
        WarmNode C;
        C.Bound = Bound;
        C.Id = childId(Node.Id, Up);
        C.Path = Node.Path;
        C.Path.push_back(Up ? BoundChange{BranchVar, false, Ceil}
                            : BoundChange{BranchVar, true, Floor});
        C.Warm = NodeBasis;
        C.BranchVar = BranchVar;
        C.BranchUp = Up;
        C.BranchFrac = Up ? Ceil - Val : Val - Floor;
        return C;
      };

      bool DownOk = Floor >= CurLower;
      bool UpOk = Ceil <= CurUpper;
      bool PlungeUp = Val - Floor >= 0.5; // Dive toward the LP value.
      if (DownOk && UpOk) {
        if (ChainLen + 1 >= PlungeLimit) {
          // Diving restart: the chain is deep enough that best-bound
          // selection should re-aim the search; park both children.
          Pool.push(MakeChild(false));
          Pool.push(MakeChild(true));
        } else {
          Pool.push(MakeChild(!PlungeUp));
          Node = MakeChild(PlungeUp);
          HaveNode = true;
          ++ChainLen;
        }
      } else if (DownOk || UpOk) {
        Node = MakeChild(UpOk);
        HaveNode = true;
        ++ChainLen;
      }
      // Neither child in range: the node is fathomed.
    }
  }
}

//===----------------------------------------------------------------------===//
// Root cutting planes and cut-and-branch restarts
//===----------------------------------------------------------------------===//

/// What the tree search inherits from the root cutting-plane loop.
struct RootResult {
  SolveStatus Status = SolveStatus::NumericFail;
  /// Optimal basis of the final cut-strengthened model (null on failure).
  std::shared_ptr<const Basis> Warm;
  double Objective = 0.0; // Model direction.
  std::int64_t Pivots = 0;
  bool Integral = false;
  std::vector<double> Values;
};

/// \p Base plus one LE row per pool cut, in pool order.
Model modelWithCuts(const Model &Base, const CutPool &Pool) {
  Model T = Base;
  int I = 0;
  for (const Cut &C : Pool.cuts())
    T.addRow("cut" + std::to_string(I++), RowKind::LE, C.Rhs, C.Terms);
  return T;
}

/// Remaps \p Old -- a basis of Base + OldCuts cut rows -- onto Base plus
/// the aged pool (\p NewCuts rows): structural and base-row entries are
/// unchanged, surviving cut logicals move by \p OldToNew (sized OldCuts;
/// -1 = retired), and the logicals of rows not sourced from a survivor
/// enter basic with zero reduced cost. A retired cut's row was slack at
/// the optimum, so its logical was basic (a unit column of the basis);
/// deleting the row/column pair keeps the basis square and nonsingular,
/// and a slack-basic new row has a zero dual, so extending the reduced
/// costs with zeros preserves dual feasibility -- the warm start the dual
/// simplex wants.
Basis remapCutBasis(const Basis &Old, int NumStruct, int NumBase,
                    const std::vector<int> &OldToNew, int NewCuts) {
  const int OldCuts = static_cast<int>(OldToNew.size());
  const int OldCols = NumStruct + NumBase + OldCuts;
  const int NewCols = NumStruct + NumBase + NewCuts;
  const bool HaveRed = Old.RedCost.size() == static_cast<size_t>(OldCols);
  const bool HaveDev = Old.DevexW.size() == static_cast<size_t>(OldCols);

  Basis N;
  N.Status.assign(NewCols, VarStatus::Basic);
  if (HaveRed)
    N.RedCost.assign(NewCols, 0.0);
  if (HaveDev)
    N.DevexW.assign(NewCols, 1.0);
  std::vector<bool> Sourced(NewCuts, false);
  auto MapCol = [&](int C) {
    if (C < NumStruct + NumBase)
      return C;
    const int I = OldToNew[C - NumStruct - NumBase];
    return I < 0 ? -1 : NumStruct + NumBase + I;
  };
  for (int C = 0; C < OldCols; ++C) {
    const int NC = MapCol(C);
    if (NC < 0)
      continue;
    if (NC >= NumStruct + NumBase)
      Sourced[NC - NumStruct - NumBase] = true;
    N.Status[NC] = Old.Status[C];
    if (HaveRed)
      N.RedCost[NC] = Old.RedCost[C];
    if (HaveDev)
      N.DevexW[NC] = Old.DevexW[C];
  }

  N.BasicCol.reserve(NumBase + NewCuts);
  for (int C : Old.BasicCol) {
    const int NC = MapCol(C);
    if (NC >= 0)
      N.BasicCol.push_back(NC);
  }
  for (int I = 0; I < NewCuts; ++I)
    if (!Sourced[I])
      N.BasicCol.push_back(NumStruct + NumBase + I);
  return N;
}

/// The root cutting-plane loop: solves \p Base + pool, then alternates
/// separation (GMI from the tableau, divisor cuts from the rows) with
/// warm dual reoptimization of the grown model, aging out cuts that stay
/// slack. On return \p Tree holds the final cut-strengthened model the
/// tree search runs on. The loop stops when a round separates nothing,
/// the round cap is hit, the root goes integral, or the bound stops
/// moving.
RootResult rootCutLoop(const Model &Base, const std::vector<bool> &IsInteger,
                       const IntOptions &Opts, double Sign, CutPool &Pool,
                       Model &Tree, double Elapsed) {
  const int NumStruct = Base.numVars();
  const int NumBase = Base.numRows();
  RootResult Out;
  WallTimer Timer;

  SolveOptions RO = Opts.LP.Simplex;
  auto SetTime = [&] {
    if (Opts.TimeLimitSec > 0.0)
      RO.TimeLimitSec =
          std::max(Opts.TimeLimitSec - Elapsed - Timer.seconds(), 1e-3);
  };

  Tree = modelWithCuts(Base, Pool);
  auto Engine = std::make_unique<RevisedSimplex>(Tree);
  SetTime();
  SolveStatus RS = Engine->solve(RO);
  Out.Pivots += Engine->iterations();

  CutOptions CO;
  double PrevBound = Infinity;
  for (int Round = 0; Round < Opts.CutRounds; ++Round) {
    if (RS != SolveStatus::Optimal)
      break;
    if (fractionalCandidates(Engine->values(), IsInteger, IntTol)
            .empty())
      break;
    met().CutRounds.add();

    const int OldCuts = Pool.size();
    int Added =
        separateGomory(Tree, IsInteger, *Engine, CO, Pool) +
        separateDivisor(Tree, IsInteger, Engine->values(), CO, Pool);
    if (Added == 0)
      break;
    met().CutsGenerated.add(static_cast<std::uint64_t>(Added));

    // Age out stale cuts: slack of cut I at the current optimum. Newly
    // admitted cuts are violated here (slack < 0), so scoring them as
    // tight keeps their age at zero.
    std::vector<double> Slack(Pool.size(), 0.0);
    for (int I = 0; I < OldCuts; ++I) {
      const Cut &C = Pool.cuts()[I];
      double Act = 0.0;
      for (const Term &T : C.Terms)
        Act += T.Coef * Engine->values()[T.Var];
      Slack[I] = C.Rhs - Act;
    }
    std::vector<int> Map;
    Pool.age(Slack, CO.MaxSlackAge, &Map);
    Map.resize(OldCuts);

    Basis Warm = remapCutBasis(Engine->basis(), NumStruct, NumBase, Map,
                               Pool.size());
    Tree = modelWithCuts(Base, Pool);
    Engine = std::make_unique<RevisedSimplex>(Tree);
    SetTime();
    RS = Engine->reoptimizeDual(Warm, RO);
    Out.Pivots += Engine->iterations();
    if (RS != SolveStatus::Optimal)
      break;

    const double Bound = Sign * Engine->objective();
    if (PrevBound - Bound < 1e-9 * (1.0 + std::fabs(Bound)))
      break; // Tailing off: the cuts stopped moving the bound.
    PrevBound = Bound;
  }
  met().CutsActive.add(static_cast<std::uint64_t>(Pool.size()));

  Out.Status = RS;
  if (RS == SolveStatus::Optimal) {
    Out.Warm = std::make_shared<const Basis>(Engine->basis());
    Out.Objective = Engine->objective();
    Out.Values = Engine->values();
    Out.Integral =
        fractionalCandidates(Out.Values, IsInteger, IntTol).empty();
  }
  return Out;
}

/// Reduced-cost bound tightening at a restart: any improving solution
/// satisfies internal-objective >= RootBound - Gap with Gap = RootBound -
/// IncBound, and moving a nonbasic integer variable delta off its resting
/// bound costs |reduced cost| * delta of root bound -- so delta <= Gap /
/// |d| bounds the variable's range in every improving solution (the
/// volume least-count lattice makes the floor/ceil rounding exact).
/// Tightens \p Lo / \p Up in place; returns how many bounds moved.
int reducedCostTighten(const Basis &B, double RootBound, double IncBound,
                       const std::vector<bool> &IsInteger,
                       std::vector<double> &Lo, std::vector<double> &Up) {
  const int N = static_cast<int>(Lo.size());
  if (B.RedCost.size() < static_cast<size_t>(N))
    return 0;
  const double Gap = RootBound - IncBound;
  if (!std::isfinite(Gap) || Gap < 0.0)
    return 0;
  int Moved = 0;
  for (int J = 0; J < N; ++J) {
    if (!IsInteger[J])
      continue;
    const double D = B.RedCost[J];
    if (B.Status[J] == VarStatus::AtLower && D > 1e-9 &&
        std::isfinite(Lo[J])) {
      const double NewUp = std::floor(Lo[J] + Gap / D + IntTol);
      if (NewUp < Up[J] - 0.5) {
        Up[J] = std::max(NewUp, Lo[J]);
        ++Moved;
      }
    } else if (B.Status[J] == VarStatus::AtUpper && D < -1e-9 &&
               std::isfinite(Up[J])) {
      const double NewLo = std::ceil(Up[J] - Gap / -D - IntTol);
      if (NewLo > Lo[J] + 0.5) {
        Lo[J] = std::min(NewLo, Up[J]);
        ++Moved;
      }
    }
  }
  return Moved;
}

IntSolution solveIntegerWarm(const Model &M,
                             const std::vector<bool> &IsInteger,
                             const IntOptions &Opts) {
  WallTimer Timer;
  const double Sign = M.isMaximize() ? 1.0 : -1.0;
  PseudocostTable PT(M.numVars());
  CutPool Pool;

  // Bound overlay: reduced-cost fixing at restarts accumulates here and
  // is baked into the next restart's base model.
  std::vector<double> Lo(M.numVars()), Up(M.numVars());
  for (int J = 0; J < M.numVars(); ++J) {
    Lo[J] = M.var(J).Lower;
    Up[J] = M.var(J).Upper;
  }

  IntSolution Result;
  bool HasInc = false;
  double IncObj = 0.0, IncBound = -Infinity;
  std::vector<double> IncVals;
  std::int64_t Nodes = 0, Pivots = 0;

  auto Snap = [&](std::vector<double> V) {
    for (size_t I = 0; I < V.size(); ++I)
      if (IsInteger[I])
        V[I] = std::round(V[I]);
    return V;
  };
  auto Finish = [&](SolveStatus St) {
    Result.Status = St;
    Result.HasIncumbent = HasInc;
    if (HasInc) {
      Result.Objective = IncObj;
      Result.Values = IncVals;
    }
    Result.Nodes = Nodes;
    Result.LpPivots = Pivots;
    Result.Seconds = Timer.seconds();
    return Result;
  };

  bool CutsOn = Opts.CutRounds > 0;
  int Restarts = 0;
  for (;;) {
    Model Base = M;
    for (int J = 0; J < M.numVars(); ++J) {
      Base.tightenLower(J, Lo[J]);
      Base.tightenUpper(J, Up[J]);
    }

    Model Tree;
    RootResult Root;
    std::shared_ptr<const Basis> RootWarm;
    if (CutsOn) {
      Root = rootCutLoop(Base, IsInteger, Opts, Sign, Pool, Tree,
                         Timer.seconds());
      Pivots += Root.Pivots;
      switch (Root.Status) {
      case SolveStatus::Optimal:
        RootWarm = Root.Warm;
        break;
      case SolveStatus::Infeasible:
        // With no incumbent the ILP is infeasible outright; with one, the
        // overlay only excludes non-improving solutions, so an infeasible
        // root proves the incumbent optimal.
        return Finish(HasInc ? SolveStatus::Optimal
                             : SolveStatus::Infeasible);
      case SolveStatus::Unbounded:
        return Finish(SolveStatus::Unbounded);
      case SolveStatus::NumericFail:
        // Cut machinery lost the root; run the plain warm search.
        CutsOn = false;
        Tree = Base;
        break;
      default: // Iteration or time budget died inside the root LP.
        return Finish(SolveStatus::TimeLimit);
      }
      if (Root.Status == SolveStatus::Optimal && Root.Integral) {
        // The root relaxation decided the problem; it counts as the one
        // node the tree search would otherwise have processed.
        ++Nodes;
        const double Bound = Sign * Root.Objective;
        if (!HasInc || Bound > IncBound + tol::Prune) {
          HasInc = true;
          IncObj = Root.Objective;
          IncBound = Bound;
          IncVals = Snap(Root.Values);
        }
        return Finish(SolveStatus::Optimal);
      }
    } else {
      Tree = Base;
    }

    WarmSearch S(Tree, IsInteger, Opts, PT);
    S.TimeOffset = Timer.seconds();
    S.NodeOffset = Nodes;
    if (CutsOn && Opts.RestartNodes > 0 && Restarts < MaxRestarts)
      S.NodeCap = Opts.RestartNodes;
    if (HasInc) {
      S.HasInc = true;
      S.IncObjective = IncObj;
      S.IncValues = IncVals;
      S.IncBound = IncBound;
    }

    WarmNode RootNode;
    RootNode.Warm = RootWarm;
    S.run(std::move(RootNode));

    Nodes += S.Nodes;
    Pivots += S.Pivots;
    if (S.HasInc) {
      HasInc = true;
      IncObj = S.IncObjective;
      IncVals = std::move(S.IncValues);
      IncBound = S.IncBound;
    }

    if (S.Unbounded)
      return Finish(SolveStatus::Unbounded);
    if (S.BudgetHit)
      return Finish(SolveStatus::TimeLimit);
    if (S.NumericFail)
      return Finish(SolveStatus::NumericFail);
    if (!S.CapHit)
      return Finish(HasInc ? SolveStatus::Optimal
                           : SolveStatus::Infeasible);

    // Node cap tripped with an incumbent in hand: tighten what the root's
    // reduced costs allow, re-cut, and restart the search (incumbent and
    // pseudocosts carry over; the node counter does too, so MaxNodes
    // bounds the whole solve and each restart gets at most RestartNodes
    // fresh nodes).
    ++Restarts;
    met().Restarts.add();
    if (Root.Warm)
      reducedCostTighten(*Root.Warm, Sign * Root.Objective, IncBound,
                         IsInteger, Lo, Up);
  }
}

} // namespace

IntSolution aqua::lp::solveInteger(const Model &M,
                                   const std::vector<bool> &IsIntegerIn,
                                   const IntOptions &Opts) {
  AQUA_TRACE_SPAN("lp.bb", "lp");
  met().Solves.add();
  std::vector<bool> IsInteger = IsIntegerIn;
  if (IsInteger.empty())
    IsInteger.assign(M.numVars(), true);
  assert(static_cast<int>(IsInteger.size()) == M.numVars() &&
         "integrality mask size mismatch");

  // The search works on the unreduced model (native bound handling
  // replaces per-node presolve), but presolve's bound propagation proves
  // root infeasibility orders of magnitude faster than a phase-1 solve on
  // an enzyme-scale model -- run it once as a pure feasibility screen.
  if (Opts.LP.Presolve) {
    WallTimer Timer;
    Presolved P = Presolved::run(M);
    if (P.provenInfeasible()) {
      IntSolution Result;
      Result.Status = SolveStatus::Infeasible;
      Result.Seconds = Timer.seconds();
      return Result;
    }
  }

  return solveIntegerWarm(M, IsInteger, Opts);
}
