//===- Codegen.cpp - Assay DAG to AIS lowering ----------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/codegen/Codegen.h"

#include "aqua/support/StringUtils.h"

#include <algorithm>
#include <map>
#include <numeric>

using namespace aqua;
using namespace aqua::codegen;
using namespace aqua::ir;

namespace {

/// Relative part counts for a node's in-edges: the smallest integer vector
/// proportional to the exact fractions (1:8 stays 1:8).
std::vector<std::int64_t> relativeParts(const AssayGraph &G,
                                        const std::vector<EdgeId> &In) {
  // Common denominator, then divide by the gcd.
  std::int64_t Lcm = 1;
  for (EdgeId E : In) {
    std::int64_t Den = G.edge(E).Fraction.denominator();
    Lcm = std::lcm(Lcm, Den);
  }
  std::vector<std::int64_t> Parts;
  Parts.reserve(In.size());
  std::int64_t Gcd = 0;
  for (EdgeId E : In) {
    const Rational &F = G.edge(E).Fraction;
    std::int64_t P = F.numerator() * (Lcm / F.denominator());
    Parts.push_back(P);
    Gcd = std::gcd(Gcd, P);
  }
  if (Gcd > 1)
    for (std::int64_t &P : Parts)
      P /= Gcd;
  return Parts;
}

bool hasExcessEdge(const AssayGraph &G, NodeId N) {
  for (EdgeId E : G.outEdges(N))
    if (G.node(G.edge(E).Dst).Kind == NodeKind::Excess)
      return true;
  return false;
}

/// Whether managed code for \p V strands residue in \p N's location once
/// its last real use is consumed: its metered in-volume exceeds its
/// metered real (non-excess) out-volume.
bool strandsResidue(const AssayGraph &G, const core::VolumeAssignment &V,
                    NodeId N) {
  double In = 0.0, Out = 0.0;
  for (EdgeId E : G.inEdges(N))
    In += V.EdgeVolumeNl[E];
  for (EdgeId E : G.outEdges(N))
    if (G.node(G.edge(E).Dst).Kind != NodeKind::Excess)
      Out += V.EdgeVolumeNl[E];
  return In - Out > 1e-9;
}

/// The code generator: a linear walk over the DAG in topological order with
/// reservoir allocation and unit parking.
class Generator {
public:
  Generator(const AssayGraph &G, const MachineLayout &Layout,
            const CodegenOptions &Opts)
      : G(G), Layout(Layout), Opts(Opts) {}

  Expected<AISProgram> run();

private:
  bool fail(std::string Msg) {
    if (Diag.empty())
      Diag = std::move(Msg);
    return false;
  }

  // ----- Resource management ---------------------------------------------

  bool allocReservoir(int &Out) {
    for (int I = 1; I <= Layout.Reservoirs; ++I) {
      if (!ResBusy[I]) {
        ResBusy[I] = true;
        Out = I;
        Prog.UsedReservoirs = std::max(Prog.UsedReservoirs, I);
        return true;
      }
    }
    return fail("assay exceeds the machine's reservoirs");
  }
  void freeReservoir(int I) { ResBusy[I] = false; }

  /// Picks an instance of \p Kind, spilling a parked value if needed.
  bool chooseUnit(LocKind Kind, Loc &Out);
  /// Moves the value parked in \p Unit to a fresh reservoir.
  bool spill(const Loc &Unit);

  std::vector<NodeId> &occupants(LocKind Kind) {
    switch (Kind) {
    case LocKind::Mixer:
      return MixerOcc;
    case LocKind::Heater:
      return HeaterOcc;
    case LocKind::Sensor:
      return SensorOcc;
    case LocKind::Separator:
      return SeparatorOcc;
    default:
      AQUA_UNREACHABLE("not a parkable unit kind");
    }
  }
  int unitCount(LocKind Kind) const {
    switch (Kind) {
    case LocKind::Mixer:
      return Layout.Mixers;
    case LocKind::Heater:
      return Layout.Heaters;
    case LocKind::Sensor:
      return Layout.Sensors;
    case LocKind::Separator:
      return Layout.Separators;
    default:
      AQUA_UNREACHABLE("not a parkable unit kind");
    }
  }
  void noteUnitUse(LocKind Kind, int Index) {
    switch (Kind) {
    case LocKind::Mixer:
      Prog.UsedMixers = std::max(Prog.UsedMixers, Index);
      break;
    case LocKind::Heater:
      Prog.UsedHeaters = std::max(Prog.UsedHeaters, Index);
      break;
    case LocKind::Sensor:
      Prog.UsedSensors = std::max(Prog.UsedSensors, Index);
      break;
    case LocKind::Separator:
      Prog.UsedSeparators = std::max(Prog.UsedSeparators, Index);
      break;
    default:
      break;
    }
  }

  // ----- Emission ---------------------------------------------------------

  void emit(Instruction I, EdgeId MeteredEdge = -1) {
    Prog.Instrs.push_back(std::move(I));
    EdgeOf.push_back(MeteredEdge);
  }
  void emitMoveAll(Loc Dst, Loc Src, NodeId N) {
    Instruction I;
    I.Op = Opcode::Move;
    I.Dst = Dst;
    I.Src = Src;
    I.Node = N;
    emit(std::move(I));
  }

  bool emitInputs();
  bool emitNode(NodeId N);
  bool emitOperandMoves(NodeId N, const Loc &Unit);
  void consumeUse(NodeId Src);
  bool placeResult(NodeId N, Loc Unit);

  const AssayGraph &G;
  const MachineLayout &Layout;
  const CodegenOptions &Opts;
  AISProgram Prog;
  std::vector<EdgeId> EdgeOf; // Parallel to Prog.Instrs; see EdgeOfInstr.
  std::string Diag;

  std::vector<char> ResBusy = std::vector<char>(256, 0);
  std::vector<NodeId> MixerOcc, HeaterOcc, SensorOcc, SeparatorOcc;
  std::map<NodeId, Loc> ValueLoc;
  std::map<NodeId, int> UsesLeft; // Non-excess consumers remaining.
  std::map<std::string, Loc> AuxFluidRes; // Matrix/pusher reservoirs.
  int NextInputPort = 1;
};

bool Generator::chooseUnit(LocKind Kind, Loc &Out) {
  std::vector<NodeId> &Occ = occupants(Kind);
  int Count = unitCount(Kind);
  if (static_cast<int>(Occ.size()) < Count)
    Occ.resize(Count, InvalidNode);
  for (int I = 0; I < Count; ++I) {
    if (Occ[I] == InvalidNode) {
      Out = Loc{Kind, I + 1, SubPort::None};
      noteUnitUse(Kind, I + 1);
      return true;
    }
  }
  // All instances hold parked values: spill the first one.
  Loc Victim{Kind, 1, SubPort::None};
  if (!spill(Victim))
    return false;
  Out = Victim;
  return true;
}

bool Generator::spill(const Loc &Unit) {
  std::vector<NodeId> &Occ = occupants(Unit.Kind);
  NodeId Parked = Occ[Unit.Index - 1];
  assert(Parked != InvalidNode && "spilling an empty unit");
  int Res;
  if (!allocReservoir(Res))
    return false;
  Loc Src = ValueLoc[Parked];
  emitMoveAll(Loc{LocKind::Reservoir, Res, SubPort::None}, Src, Parked);
  ValueLoc[Parked] = Loc{LocKind::Reservoir, Res, SubPort::None};
  Occ[Unit.Index - 1] = InvalidNode;
  return true;
}

bool Generator::emitInputs() {
  // Assay input fluids, then the auxiliary matrix/pusher fluids named by
  // separations, in first-appearance order.
  for (NodeId N : G.liveNodes()) {
    if (G.node(N).Kind != NodeKind::Input)
      continue;
    int Res;
    if (!allocReservoir(Res))
      return false;
    if (NextInputPort > Layout.InputPorts)
      return fail("assay exceeds the machine's input ports");
    Instruction I;
    I.Op = Opcode::Input;
    I.Dst = Loc{LocKind::Reservoir, Res, SubPort::None};
    I.Src = Loc{LocKind::InputPort, NextInputPort++, SubPort::None};
    I.Note = G.node(N).Name;
    I.Node = N;
    emit(std::move(I));
    ValueLoc[N] = I.Dst;
    int RealUses = 0;
    for (EdgeId E : G.outEdges(N))
      if (G.node(G.edge(E).Dst).Kind != NodeKind::Excess)
        ++RealUses;
    UsesLeft[N] = RealUses;
  }
  for (NodeId N : G.liveNodes()) {
    const Node &Nd = G.node(N);
    if (Nd.Kind != NodeKind::Separate)
      continue;
    for (const std::string *Name : {&Nd.Params.Matrix, &Nd.Params.Pusher}) {
      if (Name->empty() || AuxFluidRes.count(*Name))
        continue;
      int Res;
      if (!allocReservoir(Res))
        return false;
      if (NextInputPort > Layout.InputPorts)
        return fail("assay exceeds the machine's input ports");
      Instruction I;
      I.Op = Opcode::Input;
      I.Dst = Loc{LocKind::Reservoir, Res, SubPort::None};
      I.Src = Loc{LocKind::InputPort, NextInputPort++, SubPort::None};
      I.Note = *Name;
      I.Node = N;
      emit(std::move(I));
      AuxFluidRes[*Name] = I.Dst;
    }
  }
  Prog.UsedInputPorts = NextInputPort - 1;
  return true;
}

void Generator::consumeUse(NodeId Src) {
  if (--UsesLeft[Src] > 0)
    return;
  // Last real use consumed. Leftover (excess) volume is delivered to the
  // waste output port so the location is explicitly cleared. Besides
  // explicit excess edges, managed mode can strand residue in a location:
  // rounding lets a node's production exceed the sum of its metered
  // out-moves, inputs are topped up to capacity, and a separation's
  // run-time yield is not compile-time-known. Any such residue would
  // contaminate the next value parked in the reused unit or reservoir.
  Loc L = ValueLoc[Src];
  bool HasExcess = hasExcessEdge(G, Src);
  if (!HasExcess && Opts.Mode == VolumeMode::Managed && Opts.Volumes) {
    NodeKind K = G.node(Src).Kind;
    HasExcess = K == NodeKind::Input || K == NodeKind::Separate ||
                strandsResidue(G, *Opts.Volumes, Src);
  }
  if (HasExcess) {
    Instruction I;
    I.Op = Opcode::Output;
    I.Dst = Loc{LocKind::OutputPort, 1, SubPort::None};
    I.Src = L;
    I.Node = Src;
    emit(std::move(I));
  }
  if (L.Kind == LocKind::Reservoir) {
    freeReservoir(L.Index);
  } else if (L.Kind == LocKind::Mixer || L.Kind == LocKind::Heater ||
             L.Kind == LocKind::Sensor || L.Kind == LocKind::Separator) {
    occupants(L.Kind)[L.Index - 1] = InvalidNode;
  }
}

bool Generator::emitOperandMoves(NodeId N, const Loc &Unit) {
  const std::vector<EdgeId> &In = G.inEdges(N);
  std::vector<std::int64_t> Parts;
  if (Opts.Mode == VolumeMode::Relative && In.size() > 1)
    Parts = relativeParts(G, In);
  for (size_t I = 0; I < In.size(); ++I) {
    const Edge &E = G.edge(In[I]);
    Instruction MI;
    MI.Dst = Unit;
    MI.Src = ValueLoc[E.Src];
    MI.Node = N;
    EdgeId MeteredEdge = -1;
    if (Opts.Mode == VolumeMode::Managed) {
      MI.Op = Opcode::MoveAbs;
      MI.VolumeNl = Opts.Volumes->EdgeVolumeNl[In[I]];
      MeteredEdge = In[I];
    } else {
      MI.Op = Opcode::Move;
      MI.RelParts = Parts.empty() ? 0 : Parts[I];
    }
    emit(std::move(MI), MeteredEdge);
    consumeUse(E.Src);
  }
  return true;
}

bool Generator::placeResult(NodeId N, Loc Unit) {
  int RealUses = 0;
  for (EdgeId E : G.outEdges(N))
    if (G.node(G.edge(E).Dst).Kind != NodeKind::Excess)
      ++RealUses;
  UsesLeft[N] = RealUses;

  // True separations deposit their effluent on the unit's out1 sub-port;
  // concentration (flavor CONC) runs on a heater and leaves the retained
  // fluid in the unit's main location.
  if (G.node(N).Kind == NodeKind::Separate && G.node(N).Params.Flavor != "CONC")
    Unit.Sub = SubPort::Out1;

  if (RealUses == 0) {
    // A leaf. Senses consume their fluid; other leaves are assay products
    // delivered to an output port.
    if (G.node(N).Kind != NodeKind::Sense) {
      Instruction I;
      I.Op = Opcode::Output;
      I.Dst = Loc{LocKind::OutputPort, 1, SubPort::None};
      I.Src = Unit;
      I.Node = N;
      emit(std::move(I));
    }
    occupants(Unit.Kind)[Unit.Index - 1] = InvalidNode;
    return true;
  }
  if (RealUses == 1) {
    // Storage-less forwarding: the single consumer will pull straight from
    // the unit.
    ValueLoc[N] = Unit;
    occupants(Unit.Kind)[Unit.Index - 1] = N;
    return true;
  }
  // Multiple uses: spill to a reservoir (register allocation).
  int Res;
  if (!allocReservoir(Res))
    return false;
  Loc Dst{LocKind::Reservoir, Res, SubPort::None};
  emitMoveAll(Dst, Unit, N);
  ValueLoc[N] = Dst;
  occupants(Unit.Kind)[Unit.Index - 1] = InvalidNode;
  return true;
}

bool Generator::emitNode(NodeId N) {
  const Node &Nd = G.node(N);
  switch (Nd.Kind) {
  case NodeKind::Input:
  case NodeKind::Excess:
    return true; // Inputs pre-loaded; excess handled at the source.

  case NodeKind::Mix: {
    Loc Unit;
    if (!chooseUnit(LocKind::Mixer, Unit))
      return false;
    if (!emitOperandMoves(N, Unit))
      return false;
    Instruction I;
    I.Op = Opcode::Mix;
    I.Dst = Unit;
    I.Seconds = Nd.Params.Seconds;
    I.Node = N;
    emit(std::move(I));
    return placeResult(N, Unit);
  }

  case NodeKind::Incubate: {
    Loc Unit;
    if (!chooseUnit(LocKind::Heater, Unit))
      return false;
    if (!emitOperandMoves(N, Unit))
      return false;
    Instruction I;
    I.Op = Opcode::Incubate;
    I.Dst = Unit;
    I.TempC = Nd.Params.TempC;
    I.Seconds = Nd.Params.Seconds;
    I.Node = N;
    emit(std::move(I));
    return placeResult(N, Unit);
  }

  case NodeKind::Separate: {
    if (Nd.Params.Flavor == "CONC") {
      // Concentration runs on a heater.
      Loc Unit;
      if (!chooseUnit(LocKind::Heater, Unit))
        return false;
      if (!emitOperandMoves(N, Unit))
        return false;
      Instruction I;
      I.Op = Opcode::Concentrate;
      I.Dst = Unit;
      I.TempC = Nd.Params.TempC;
      I.Seconds = Nd.Params.Seconds;
      I.Node = N;
      emit(std::move(I));
      return placeResult(N, Unit);
    }
    Loc Unit;
    if (!chooseUnit(LocKind::Separator, Unit))
      return false;
    // Load the matrix and pusher, then the fluid, then separate.
    if (!Nd.Params.Matrix.empty()) {
      Loc Sub = Unit;
      Sub.Sub = SubPort::Matrix;
      emitMoveAll(Sub, AuxFluidRes[Nd.Params.Matrix], N);
    }
    if (!Nd.Params.Pusher.empty()) {
      Loc Sub = Unit;
      Sub.Sub = SubPort::Pusher;
      emitMoveAll(Sub, AuxFluidRes[Nd.Params.Pusher], N);
    }
    if (!emitOperandMoves(N, Unit))
      return false;
    Instruction I;
    I.Op = Nd.Params.Flavor == "LC" ? Opcode::SeparateLC : Opcode::SeparateAF;
    I.Dst = Unit;
    I.Seconds = Nd.Params.Seconds;
    I.Node = N;
    emit(std::move(I));
    return placeResult(N, Unit);
  }

  case NodeKind::Sense: {
    Loc Unit;
    if (!chooseUnit(LocKind::Sensor, Unit))
      return false;
    if (!emitOperandMoves(N, Unit))
      return false;
    Instruction I;
    I.Op = Nd.Params.Flavor == "FL" ? Opcode::SenseFL : Opcode::SenseOD;
    I.Dst = Unit;
    I.Node = N;
    I.Note = startsWith(Nd.Name, "sense_") ? Nd.Name.substr(6) : Nd.Name;
    emit(std::move(I));
    return placeResult(N, Unit);
  }

  case NodeKind::Output:
    return emitOperandMoves(N, Loc{LocKind::OutputPort, 1, SubPort::None});
  }
  AQUA_UNREACHABLE("bad NodeKind");
}

Expected<AISProgram> Generator::run() {
  if (Status S = G.verify(); !S.ok())
    return Expected<AISProgram>::error("invalid assay graph: " + S.message());
  if (Opts.Mode == VolumeMode::Managed &&
      (!Opts.Volumes ||
       Opts.Volumes->EdgeVolumeNl.size() !=
           static_cast<size_t>(G.numEdgeSlots())))
    return Expected<AISProgram>::error(
        "managed code generation needs a volume assignment for this graph");

  if (!emitInputs())
    return Expected<AISProgram>::error(Diag);
  for (NodeId N : G.topologicalOrder())
    if (!emitNode(N))
      return Expected<AISProgram>::error(Diag);
  if (Opts.EdgeOfInstr)
    *Opts.EdgeOfInstr = std::move(EdgeOf);
  return Expected<AISProgram>(std::move(Prog));
}

} // namespace

Expected<AISProgram> aqua::codegen::generateAIS(const AssayGraph &G,
                                                const MachineLayout &Layout,
                                                const CodegenOptions &Opts) {
  Generator Gen(G, Layout, Opts);
  return Gen.run();
}

std::vector<char> aqua::codegen::residueShape(const AssayGraph &G,
                                              const core::VolumeAssignment &V) {
  std::vector<char> Shape(G.numNodeSlots(), 0);
  for (NodeId N = 0; N < G.numNodeSlots(); ++N) {
    const Node &Nd = G.node(N);
    if (!Nd.Dead &&
        (Nd.Kind == NodeKind::Mix || Nd.Kind == NodeKind::Incubate) &&
        !hasExcessEdge(G, N))
      Shape[N] = strandsResidue(G, V, N);
  }
  return Shape;
}
