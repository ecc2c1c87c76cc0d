//===- Compiler.cpp - AIS to bytecode lowering ----------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/vm/Compiler.h"

#include "aqua/obs/Metrics.h"
#include "aqua/obs/Trace.h"
#include "aqua/support/StringUtils.h"

#include <algorithm>
#include <map>
#include <set>

using namespace aqua;
using namespace aqua::codegen;
using namespace aqua::ir;
using namespace aqua::vm;

namespace {

struct CompileMetrics {
  obs::Counter &Programs = obs::metrics().counter("vm.compile.programs");
  obs::Counter &Instrs = obs::metrics().counter("vm.compile.instrs");
};

CompileMetrics &met() {
  static CompileMetrics M;
  return M;
}

/// Dense key for a location; must match the reference's locKey so slot
/// order reproduces its std::map iteration order.
int locKey(const Loc &L) {
  return (static_cast<int>(L.Kind) << 20) | (L.Index << 4) |
         static_cast<int>(L.Sub);
}

bool isFunctionalUnit(LocKind Kind) {
  return Kind == LocKind::Mixer || Kind == LocKind::Heater ||
         Kind == LocKind::Sensor || Kind == LocKind::Separator;
}

/// Replicates the reference's planRelativeMoves: the consuming unit is
/// filled to capacity at the requested part ratio. The arithmetic
/// (MaxCapacityNl * parts / total, in this association) must stay
/// identical for bit-for-bit equivalence.
std::vector<double> planRelativeMoves(const AISProgram &Prog,
                                      const core::MachineSpec &Spec) {
  std::vector<double> Planned(Prog.Instrs.size(), -1.0);
  std::vector<char> Done(Prog.Instrs.size(), 0);
  for (size_t I = 0; I < Prog.Instrs.size(); ++I) {
    const Instruction &In = Prog.Instrs[I];
    if (In.Op != Opcode::Move || In.RelParts <= 0 || Done[I])
      continue;
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
  return Planned;
}

} // namespace

Expected<Program> aqua::vm::compile(const AISProgram &P,
                                    const CompileOptions &Opts) {
  AQUA_TRACE_SPAN("vm.compile", "vm");
  Program Out;
  Out.Spec = Opts.Spec;

  // ----- Slot assignment: every referenced location, in ascending locKey
  // order (the reference's Contents map order).
  std::map<int, Loc> Locs;
  auto intern = [&Locs](const Loc &L) {
    if (L.valid())
      Locs.emplace(locKey(L), L);
  };
  for (const Instruction &I : P.Instrs) {
    intern(I.Dst);
    intern(I.Src);
    if (I.Op == Opcode::SeparateAF || I.Op == Opcode::SeparateLC) {
      Loc Sub = I.Dst;
      Sub.Sub = SubPort::Out1;
      intern(Sub);
      Sub.Sub = SubPort::Matrix;
      intern(Sub);
      Sub.Sub = SubPort::Pusher;
      intern(Sub);
    }
  }
  if (Locs.size() >= NoSlot)
    return Expected<Program>::error(
        format("program references %zu locations; the bytecode operand "
               "space holds %u",
               Locs.size(), static_cast<unsigned>(NoSlot)));
  std::map<int, std::uint16_t> SlotOf;
  for (const auto &[Key, L] : Locs) {
    SlotOf[Key] = static_cast<std::uint16_t>(Out.NumSlots++);
    Out.SlotIsFunctionalUnit.push_back(isFunctionalUnit(L.Kind) ? 1 : 0);
  }
  auto slot = [&SlotOf](const Loc &L) {
    return L.valid() ? SlotOf.at(locKey(L)) : NoSlot;
  };

  // ----- Fluid-name interning (sorted ids; composition rows index by
  // these).
  std::set<std::string> FluidSet;
  for (const Instruction &I : P.Instrs)
    if (I.Op == Opcode::Input)
      FluidSet.insert(I.Note);
  Out.FluidNames.assign(FluidSet.begin(), FluidSet.end());
  if (Out.FluidNames.size() > 0xffff)
    return Expected<Program>::error(
        format("program draws %zu distinct fluids; the bytecode id space "
               "holds 65536",
               Out.FluidNames.size()));
  std::map<std::string, std::uint16_t> FluidId;
  for (size_t I = 0; I < Out.FluidNames.size(); ++I)
    FluidId[Out.FluidNames[I]] = static_cast<std::uint16_t>(I);

  // ----- Constant-folded volumes: relative part counts planned once, all
  // metered volumes in one patchable table.
  std::vector<double> Planned = planRelativeMoves(P, Opts.Spec);

  // ----- Regeneration slices: the backward slice of every producing node,
  // resolved to sorted instruction indices, shared per node.
  std::map<NodeId, std::vector<int>> NodeInstrs;
  for (size_t I = 0; I < P.Instrs.size(); ++I)
    if (P.Instrs[I].Node != InvalidNode)
      NodeInstrs[P.Instrs[I].Node].push_back(static_cast<int>(I));
  std::map<NodeId, std::pair<std::int32_t, std::int32_t>> SliceOf;
  auto sliceFor = [&](NodeId N) -> std::pair<std::int32_t, std::int32_t> {
    if (!Opts.Graph || N == InvalidNode)
      return {NoSlice, 0};
    auto It = SliceOf.find(N);
    if (It != SliceOf.end())
      return It->second;
    std::set<int> Replay;
    for (NodeId S : Opts.Graph->backwardSlice(N)) {
      auto NI = NodeInstrs.find(S);
      if (NI == NodeInstrs.end())
        continue;
      for (int Idx : NI->second)
        Replay.insert(Idx);
    }
    std::pair<std::int32_t, std::int32_t> Slice = {
        static_cast<std::int32_t>(Out.RegenSlices.size()),
        static_cast<std::int32_t>(Replay.size())};
    Out.RegenSlices.insert(Out.RegenSlices.end(), Replay.begin(), Replay.end());
    SliceOf[N] = Slice;
    return Slice;
  };

  // ----- Instruction lowering (1:1, same indices).
  Out.Code.reserve(P.Instrs.size());
  Out.InstrText.reserve(P.Instrs.size());
  Out.SrcText.reserve(P.Instrs.size());
  for (size_t Idx = 0; Idx < P.Instrs.size(); ++Idx) {
    const Instruction &I = P.Instrs[Idx];
    Instr B;
    B.Orig = I.Op;
    B.Dst = slot(I.Dst);
    B.Src = slot(I.Src);
    B.DstIsOutput = I.Dst.Kind == LocKind::OutputPort;
    B.Seconds = I.Seconds;
    std::tie(B.RegenBegin, B.RegenCount) = sliceFor(I.Node);

    switch (I.Op) {
    case Opcode::Input:
      B.Code = Op::Input;
      B.Name = FluidId.at(I.Note);
      break;
    case Opcode::Move:
      if (I.RelParts > 0) {
        B.Code = Op::MoveVol;
        B.VolIdx = static_cast<std::uint32_t>(Out.VolumeTable.size());
        Out.VolumeTable.push_back(Planned[Idx]);
      } else {
        B.Code = Op::MoveAll;
      }
      break;
    case Opcode::MoveAbs:
      B.Code = Op::MoveVol;
      B.VolIdx = static_cast<std::uint32_t>(Out.VolumeTable.size());
      Out.VolumeTable.push_back(I.VolumeNl);
      break;
    case Opcode::Mix:
      B.Code = Op::Mix;
      break;
    case Opcode::Incubate:
      B.Code = Op::Incubate;
      break;
    case Opcode::Concentrate:
      B.Code = Op::Concentrate;
      break;
    case Opcode::SeparateAF:
    case Opcode::SeparateLC: {
      B.Code = Op::Separate;
      Loc Sub = I.Dst;
      Sub.Sub = SubPort::Out1;
      B.Out1 = slot(Sub);
      Sub.Sub = SubPort::Matrix;
      B.Matrix = slot(Sub);
      Sub.Sub = SubPort::Pusher;
      B.Pusher = slot(Sub);
      break;
    }
    case Opcode::SenseOD:
    case Opcode::SenseFL:
      B.Code = Op::Sense;
      if (Out.SenseNames.size() >= 0xffff)
        return Expected<Program>::error(
            format("program records %zu sense readings; the bytecode id "
                   "space holds 65535",
                   Out.SenseNames.size() + 1));
      B.Name = static_cast<std::uint16_t>(Out.SenseNames.size());
      Out.SenseNames.push_back(I.Note);
      break;
    case Opcode::Output:
      B.Code = Op::Output;
      break;
    }

    Out.Code.push_back(B);
    Out.InstrText.push_back(I.str());
    Out.SrcText.push_back(I.Src.str());
  }

  met().Programs.add();
  met().Instrs.add(static_cast<std::uint64_t>(Out.Code.size()));
  return Out;
}
