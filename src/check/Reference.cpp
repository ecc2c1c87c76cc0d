//===- Reference.cpp - Tree-walking reference simulator -------------------------===//
//
// Part of AquaVol. MIT license.
//
// The AquaCore machine model walked directly over AIS instructions, with
// string-keyed fluid maps. It is the `vm` oracle's reference: vm::Interp
// ports this code onto flat arrays and must match it bit for bit. At the
// end, the `engines` oracle's branch-and-bound reference.
//
//===----------------------------------------------------------------------===//

#include "aqua/check/Reference.h"

#include "aqua/lp/Branching.h"
#include "aqua/lp/Tolerances.h"
#include "aqua/obs/Timer.h"
#include "aqua/support/Fatal.h"
#include "aqua/support/Random.h"
#include "aqua/support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <set>

using namespace aqua;
using namespace aqua::check;
using namespace aqua::codegen;
using namespace aqua::ir;
using vm::SenseReading;
using vm::SimResult;

Fluid Fluid::pure(std::string Name, double VolumeNl) {
  Fluid F;
  F.VolumeNl = VolumeNl;
  F.Composition[std::move(Name)] = 1.0;
  return F;
}

void Fluid::add(const Fluid &Other) {
  if (Other.empty())
    return;
  double Total = VolumeNl + Other.VolumeNl;
  for (auto &[Name, Frac] : Composition)
    Frac = Frac * VolumeNl / Total;
  for (const auto &[Name, Frac] : Other.Composition)
    Composition[Name] += Frac * Other.VolumeNl / Total;
  VolumeNl = Total;
}

Fluid Fluid::take(double TakeNl) {
  TakeNl = std::clamp(TakeNl, 0.0, VolumeNl);
  Fluid Out;
  Out.VolumeNl = TakeNl;
  Out.Composition = Composition;
  VolumeNl -= TakeNl;
  if (VolumeNl <= 1e-12) {
    VolumeNl = 0.0;
    Composition.clear();
  }
  return Out;
}

double Fluid::fractionOf(const std::string &Name) const {
  auto It = Composition.find(Name);
  return It == Composition.end() ? 0.0 : It->second;
}

namespace {

/// Dense key for a location.
int locKey(const Loc &L) {
  return (static_cast<int>(L.Kind) << 20) | (L.Index << 4) |
         static_cast<int>(L.Sub);
}

class Machine {
public:
  Machine(const AISProgram &Program, const vm::CompileOptions &CO,
          const vm::RunOptions &RO)
      : Prog(Program), Spec(CO.Spec), Graph(CO.Graph), Opts(RO),
        Rng(RO.Seed) {
    planRelativeMoves();
    for (size_t I = 0; I < Prog.Instrs.size(); ++I) {
      NodeId N = Prog.Instrs[I].Node;
      if (N != InvalidNode)
        NodeInstrs[N].push_back(static_cast<int>(I));
    }
  }

  SimResult run() {
    for (size_t I = 0; I < Prog.Instrs.size() && Result.Error.empty(); ++I)
      exec(static_cast<int>(I), /*Depth=*/0);
    Result.Completed = Result.Error.empty();
    return std::move(Result);
  }

private:
  void fail(int Idx, const std::string &Msg) {
    if (Result.Error.empty())
      Result.Error = format("instr %d (%s): %s", Idx,
                            Prog.Instrs[Idx].str().c_str(), Msg.c_str());
  }

  double quantize(double VolNl) const {
    double Lc = Spec.LeastCountNl;
    return std::round(VolNl / Lc) * Lc;
  }

  Fluid &at(const Loc &L) { return Contents[locKey(L)]; }

  /// Computes the planned absolute volume of every relative move: the
  /// consuming unit is filled to capacity at the requested part ratio (the
  /// naive no-volume-management policy).
  void planRelativeMoves() {
    Planned.assign(Prog.Instrs.size(), -1.0);
    std::vector<char> Done(Prog.Instrs.size(), 0);
    for (size_t I = 0; I < Prog.Instrs.size(); ++I) {
      const Instruction &In = Prog.Instrs[I];
      if (In.Op != Opcode::Move || In.RelParts <= 0 || Done[I])
        continue;
      // Gather the group of part-moves into the same unit up to the unit's
      // operation instruction.
      std::vector<size_t> Group;
      std::int64_t Total = 0;
      for (size_t J = I; J < Prog.Instrs.size(); ++J) {
        const Instruction &C = Prog.Instrs[J];
        bool SameUnit = C.Dst.Kind == In.Dst.Kind && C.Dst.Index == In.Dst.Index;
        if (C.Op == Opcode::Move && SameUnit && C.RelParts > 0) {
          Group.push_back(J);
          Total += C.RelParts;
          continue;
        }
        if (SameUnit && C.Op != Opcode::Move && C.Op != Opcode::MoveAbs &&
            C.Op != Opcode::Input)
          break; // The consuming operation.
      }
      for (size_t J : Group) {
        Planned[J] = Spec.MaxCapacityNl *
                     static_cast<double>(Prog.Instrs[J].RelParts) /
                     static_cast<double>(Total);
        Done[J] = 1;
      }
    }
  }

  /// Re-executes the production of the value written by instruction
  /// \p WriterIdx. Returns false when regeneration is impossible.
  bool regenerate(int WriterIdx, int Depth) {
    if (Depth > 24)
      return false;
    const Instruction &W = Prog.Instrs[WriterIdx];
    ++Result.Regenerations;

    if (W.Op == Opcode::Input) {
      exec(WriterIdx, Depth + 1);
      return true;
    }
    if (!Graph || W.Node == InvalidNode)
      return false;

    // Re-execute the backward slice of the producing node, in program
    // order. Functional-unit contents are stashed so in-flight values are
    // not polluted, then merged back.
    std::vector<std::pair<int, Fluid>> Stash;
    for (auto &[Key, F] : Contents) {
      LocKind Kind = static_cast<LocKind>(Key >> 20);
      if (Kind == LocKind::Mixer || Kind == LocKind::Heater ||
          Kind == LocKind::Sensor || Kind == LocKind::Separator) {
        if (!F.empty())
          Stash.emplace_back(Key, std::move(F));
        F = Fluid();
      }
    }

    std::set<int> Replay;
    for (NodeId N : Graph->backwardSlice(W.Node)) {
      auto It = NodeInstrs.find(N);
      if (It == NodeInstrs.end())
        continue;
      for (int Idx : It->second)
        Replay.insert(Idx);
    }
    for (int Idx : Replay) {
      if (!Result.Error.empty())
        return false;
      // Outputs only deliver excess or residue off-chip; replaying one
      // would drain the very value being regenerated.
      if (Prog.Instrs[Idx].Op == Opcode::Output)
        continue;
      exec(Idx, Depth + 1);
    }

    for (auto &[Key, F] : Stash) {
      Fluid &Cur = Contents[Key];
      if (!Cur.empty() && !F.empty())
        ++Result.OverflowEvents; // Collision; merge (rare by construction).
      Cur.add(F);
    }
    return true;
  }

  /// Transfers \p RequestNl (or everything when < 0) from Src to Dst.
  void transfer(int Idx, const Loc &Src, const Loc &Dst, double RequestNl,
                int Depth) {
    double Lc = Spec.LeastCountNl;
    Fluid &S = at(Src);

    double Needed = RequestNl >= 0.0 ? quantize(RequestNl) : -1.0;
    if (Needed >= 0.0 && Needed < Lc - 1e-12) {
      // Below the hardware's metering resolution: nothing moves.
      if (RequestNl > 1e-12)
        ++Result.SubLeastCountMoves;
      return;
    }

    // Shortage handling with reactive regeneration.
    double Want = Needed >= 0.0 ? Needed : Lc;
    if (S.VolumeNl + 1e-9 < Want)
      ++Result.UnderflowEvents;
    bool Attempted = false;
    for (int Retry = 0; S.VolumeNl + 1e-9 < Want; ++Retry) {
      if (!Opts.EnableRegeneration)
        break;
      if (Retry >= Opts.MaxRegenRetries) {
        // Regeneration ran out of retries while the shortage persists:
        // report it rather than silently moving a short volume downstream.
        if (Attempted) {
          fail(Idx, format("regeneration exhausted after %d retries "
                           "(%s nl short of %s nl at %s)",
                           Opts.MaxRegenRetries,
                           formatTrimmed(Want - S.VolumeNl, 4).c_str(),
                           formatTrimmed(Want, 4).c_str(),
                           Src.str().c_str()));
          return;
        }
        break;
      }
      auto WriterIt = Writer.find(locKey(Src));
      if (WriterIt == Writer.end())
        break;
      if (!regenerate(WriterIt->second, Depth))
        break;
      Attempted = true;
    }

    Fluid &D = at(Dst);
    double Free = Dst.Kind == LocKind::OutputPort
                      ? 1e18
                      : Spec.MaxCapacityNl - D.VolumeNl;
    double Amount = Needed >= 0.0 ? std::min(Needed, S.VolumeNl) : S.VolumeNl;
    if (Amount > Free + 1e-9) {
      ++Result.OverflowEvents;
      Amount = std::max(0.0, std::floor(Free / Lc) * Lc);
    }
    if (Amount <= 1e-12)
      return;
    if (Dst.Kind == LocKind::OutputPort) {
      S.take(Amount); // Delivered off-chip.
      Result.DeliveredNl += Amount;
    } else {
      D.add(S.take(Amount));
      Writer[locKey(Dst)] = Idx;
    }
    Result.FluidSeconds += Opts.MoveSeconds;
  }

  double separationYield() {
    if (Opts.FixedSeparationYield >= 0.0)
      return Opts.FixedSeparationYield;
    return Opts.MinSeparationYield +
           (Opts.MaxSeparationYield - Opts.MinSeparationYield) *
               Rng.nextUnit();
  }

  /// Executes one instruction.
  void exec(int Idx, int Depth) {
    if (!Result.Error.empty())
      return;
    const Instruction &I = Prog.Instrs[Idx];
    ++Result.InstructionsExecuted;

    switch (I.Op) {
    case Opcode::Input: {
      // Top the reservoir up from the external port (unbounded supply).
      Fluid &D = at(I.Dst);
      double Draw = quantize(Spec.MaxCapacityNl - D.VolumeNl);
      if (Draw > 0.0) {
        D.add(Fluid::pure(I.Note, Draw));
        Result.InputDrawnNl[I.Note] += Draw;
        Result.FluidSeconds += Opts.MoveSeconds;
      }
      Writer[locKey(I.Dst)] = Idx;
      return;
    }

    case Opcode::Move:
      transfer(Idx, I.Src, I.Dst,
               I.RelParts > 0 ? Planned[Idx] : -1.0, Depth);
      return;

    case Opcode::MoveAbs:
      transfer(Idx, I.Src, I.Dst, I.VolumeNl, Depth);
      return;

    case Opcode::Mix: {
      if (at(I.Dst).empty()) {
        fail(Idx, "mix on an empty unit");
        return;
      }
      Result.FluidSeconds += I.Seconds;
      Writer[locKey(I.Dst)] = Idx;
      return;
    }

    case Opcode::Incubate: {
      if (at(I.Dst).empty()) {
        fail(Idx, "incubate on an empty unit");
        return;
      }
      Result.FluidSeconds += I.Seconds;
      Writer[locKey(I.Dst)] = Idx;
      return;
    }

    case Opcode::Concentrate: {
      Fluid &F = at(I.Dst);
      if (F.empty()) {
        fail(Idx, "concentrate on an empty unit");
        return;
      }
      // Solvent removal: the retained volume fraction is unknowable at
      // compile time; it comes from the seeded RNG (or the fixed yield).
      double Keep = separationYield();
      Result.WasteNl += F.take(F.VolumeNl * (1.0 - Keep)).VolumeNl;
      Result.FluidSeconds += I.Seconds;
      Writer[locKey(I.Dst)] = Idx;
      return;
    }

    case Opcode::SeparateAF:
    case Opcode::SeparateLC: {
      Fluid &Main = at(I.Dst);
      if (Main.empty()) {
        fail(Idx, "separate on an empty unit");
        return;
      }
      Loc Out = I.Dst;
      Out.Sub = SubPort::Out1;
      double Yield = separationYield();
      Fluid Effluent = Main.take(Main.VolumeNl * Yield);
      Result.WasteNl += Main.VolumeNl;
      Main = Fluid(); // The rest leaves as waste.
      // The matrix and pusher are consumed by the separation.
      Loc Matrix = I.Dst;
      Matrix.Sub = SubPort::Matrix;
      Result.WasteNl += at(Matrix).VolumeNl;
      at(Matrix) = Fluid();
      Loc Pusher = I.Dst;
      Pusher.Sub = SubPort::Pusher;
      Result.WasteNl += at(Pusher).VolumeNl;
      at(Pusher) = Fluid();
      at(Out) = std::move(Effluent);
      Writer[locKey(Out)] = Idx;
      Result.FluidSeconds += I.Seconds;
      return;
    }

    case Opcode::SenseOD:
    case Opcode::SenseFL: {
      Fluid &F = at(I.Dst);
      if (F.empty()) {
        fail(Idx, "sense on an empty unit");
        return;
      }
      SenseReading R;
      R.Name = I.Note;
      R.VolumeNl = F.VolumeNl;
      R.Composition = F.Composition;
      // During regeneration replays the sense itself is not repeated...
      // but a replayed slice never contains a Sense (senses are leaves),
      // so every execution records a fresh reading.
      Result.Senses.push_back(std::move(R));
      Result.WasteNl += F.VolumeNl;
      F = Fluid(); // Sensing consumes its sample.
      Result.FluidSeconds += 1.0;
      return;
    }

    case Opcode::Output: {
      Fluid &S = at(I.Src);
      Result.WasteNl += S.VolumeNl;
      S = Fluid();
      Result.FluidSeconds += Opts.MoveSeconds;
      return;
    }
    }
    AQUA_UNREACHABLE("bad Opcode");
  }

  const AISProgram &Prog;
  const core::MachineSpec &Spec;
  const AssayGraph *Graph;
  const vm::RunOptions &Opts;
  SplitMix64 Rng;
  SimResult Result;

  std::map<int, Fluid> Contents;
  std::map<int, int> Writer; // locKey -> last producing instruction.
  std::map<NodeId, std::vector<int>> NodeInstrs;
  std::vector<double> Planned; // Per-instruction planned volume (relative).
};

} // namespace

SimResult aqua::check::referenceSimulate(const AISProgram &Program,
                                         const vm::CompileOptions &CO,
                                         const vm::RunOptions &RO) {
  Machine M(Program, CO, RO);
  return M.run();
}

//===----------------------------------------------------------------------===//
// Branch-and-bound reference
//===----------------------------------------------------------------------===//

lp::IntSolution check::referenceSolveInteger(const lp::Model &M,
                                             const std::vector<bool> &Mask,
                                             const lp::IntOptions &Opts) {
  std::vector<bool> IsInteger = Mask;
  if (IsInteger.empty())
    IsInteger.assign(M.numVars(), true);
  obs::WallTimer Timer;
  lp::IntSolution Result;

  // Maximization sign: incumbent comparisons use Sign*objective so that
  // larger is always better internally.
  double Sign = M.isMaximize() ? 1.0 : -1.0;
  double Incumbent = -lp::Infinity;

  // A pending subproblem is its path of bound tightenings from the root.
  std::vector<std::vector<lp::BoundChange>> Stack(1);
  bool Exhausted = true;

  while (!Stack.empty()) {
    if ((Opts.MaxNodes > 0 && Result.Nodes >= Opts.MaxNodes) ||
        (Opts.TimeLimitSec > 0.0 && Timer.seconds() > Opts.TimeLimitSec)) {
      Exhausted = false;
      break;
    }

    std::vector<lp::BoundChange> Path = std::move(Stack.back());
    Stack.pop_back();
    ++Result.Nodes;

    lp::Model Sub = M;
    for (const lp::BoundChange &C : Path) {
      if (C.IsUpper)
        Sub.tightenUpper(C.Var, C.Bound);
      else
        Sub.tightenLower(C.Var, C.Bound);
    }
    if (std::any_of(Path.begin(), Path.end(), [&](const lp::BoundChange &C) {
          return Sub.var(C.Var).Lower > Sub.var(C.Var).Upper;
        }))
      continue;

    lp::SolverOptions LPOpts = Opts.LP;
    LPOpts.Engine = lp::LpEngine::Dense;
    if (Opts.TimeLimitSec > 0.0) {
      double Remaining = Opts.TimeLimitSec - Timer.seconds();
      if (LPOpts.Simplex.TimeLimitSec <= 0.0 ||
          LPOpts.Simplex.TimeLimitSec > Remaining)
        LPOpts.Simplex.TimeLimitSec = std::max(Remaining, 1e-3);
    }
    lp::Solution Relax = lp::solve(Sub, LPOpts);
    Result.LpPivots += Relax.Iterations;
    if (Relax.Status == lp::SolveStatus::Infeasible)
      continue;
    if (Relax.Status == lp::SolveStatus::Unbounded) {
      Result.Status = lp::SolveStatus::Unbounded;
      Result.Seconds = Timer.seconds();
      return Result;
    }
    if (Relax.Status != lp::SolveStatus::Optimal) {
      // Budget expired inside the LP.
      Exhausted = false;
      break;
    }

    double Bound = Sign * Relax.Objective;
    if (Bound <= Incumbent + lp::tol::Prune)
      continue;

    std::vector<lp::BranchCandidate> Cands = lp::fractionalCandidates(
        Relax.Values, IsInteger, lp::tol::Integrality);
    if (Cands.empty()) {
      // Integral: new incumbent, snapped to exact integers.
      Incumbent = Bound;
      Result.HasIncumbent = true;
      Result.Objective = Relax.Objective;
      Result.Values = Relax.Values;
      for (size_t I = 0; I < Result.Values.size(); ++I)
        if (IsInteger[I])
          Result.Values[I] = std::round(Result.Values[I]);
      continue;
    }

    const lp::VarId Var = Cands.front().Var;
    double Val = Relax.Values[Var];
    std::vector<lp::BoundChange> Down = Path, Up = std::move(Path);
    Down.push_back({Var, /*IsUpper=*/true, std::floor(Val)});
    Up.push_back({Var, /*IsUpper=*/false, std::ceil(Val)});
    // Explore the branch nearest the LP value first.
    if (Val - std::floor(Val) < 0.5) {
      Stack.push_back(std::move(Up));
      Stack.push_back(std::move(Down));
    } else {
      Stack.push_back(std::move(Down));
      Stack.push_back(std::move(Up));
    }
  }

  Result.Seconds = Timer.seconds();
  if (Exhausted)
    Result.Status = Result.HasIncumbent ? lp::SolveStatus::Optimal
                                        : lp::SolveStatus::Infeasible;
  else
    Result.Status = lp::SolveStatus::TimeLimit;
  return Result;
}
