//===- Fleet.cpp - Many-chip fleet simulation -----------------------------------===//
//
// Part of AquaVol. MIT license.
//
// A chip's normal path mirrors aqua/check's reference executor
// (check/ReferencePartitioned.cpp) step for step: same availability chain,
// same dispensing, same RNG stream layout (yields from Seed ^ 0xa55a,
// partition P simulated at Seed + 17 * P), so with online re-management
// disabled the two ChipResults are bit-for-bit equal. The difference is
// compile-once execution: instead of regenerating AIS per partition per
// run, the chip patches the shared segment template's volume table,
// guarded by the residue-shape check (the single volume-dependent codegen
// decision).
//
//===----------------------------------------------------------------------===//

#include "aqua/vm/Fleet.h"

#include "aqua/core/Manager.h"
#include "aqua/core/Rounding.h"
#include "aqua/obs/Log.h"
#include "aqua/obs/Metrics.h"
#include "aqua/obs/Trace.h"
#include "aqua/support/Random.h"
#include "aqua/support/StringUtils.h"
#include "aqua/vm/Compiler.h"
#include "aqua/vm/VM.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <queue>
#include <thread>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;
using namespace aqua::vm;

namespace {

struct FleetMetrics {
  obs::Counter &Chips = obs::metrics().counter("vm.fleet.chips");
  obs::Counter &ChipsFailed = obs::metrics().counter("vm.fleet.chips_failed");
  obs::Counter &Segments = obs::metrics().counter("vm.fleet.segments");
  obs::Counter &OnlineRemanages =
      obs::metrics().counter("vm.fleet.online_remanages");
  obs::Counter &PartitionReruns =
      obs::metrics().counter("vm.fleet.partition_reruns");
  obs::Counter &SegmentRecompiles =
      obs::metrics().counter("vm.fleet.segment_recompiles");
  obs::Gauge &MakespanSec = obs::metrics().gauge("vm.fleet.makespan_sec");
  obs::Gauge &ReservoirWaitSec =
      obs::metrics().gauge("vm.fleet.reservoir_wait_sec");
};

FleetMetrics &met() {
  static FleetMetrics M;
  return M;
}

/// Extracts one partition as a standalone graph (the same construction as
/// the reference executor: members sorted, in-edges in plan order, so
/// subgraph floating-point summation orders match the plan's).
FleetSegment extractSegment(const PartitionPlan &Plan, int PartIndex) {
  const AssayGraph &PG = Plan.Graph;
  FleetSegment S;
  std::vector<NodeId> Members = Plan.Parts[PartIndex].Members;
  std::sort(Members.begin(), Members.end());
  for (NodeId N : Members) {
    const Node &Src = PG.node(N);
    NodeId Clone = S.SubG.addNode(Src.Kind, Src.Name);
    Node &Dst = S.SubG.node(Clone);
    Dst.OutFraction = Src.OutFraction;
    Dst.UnknownVolume = Src.UnknownVolume;
    Dst.NoExcess = Src.NoExcess;
    Dst.ExcessShare = Src.ExcessShare;
    Dst.Params = Src.Params;
    S.ToPlanNode.push_back(N);
    S.FromPlanNode[N] = Clone;
  }
  for (NodeId N : Members)
    for (EdgeId E : PG.inEdges(N)) {
      const Edge &Ed = PG.edge(E);
      assert(S.FromPlanNode.count(Ed.Src) &&
             "partition member consumes a non-member value");
      S.SubG.addEdge(S.FromPlanNode[Ed.Src], S.FromPlanNode[N], Ed.Fraction);
      S.ToPlanEdge.push_back(E);
    }
  return S;
}

/// Shared refilling pools, one per external input fluid. All timing is on
/// the fleet's virtual clock; draws always succeed volumetrically and a
/// shortage only charges a refill stall (which keeps per-chip volume math
/// independent of contention and thread count).
class ReservoirBank {
public:
  ReservoirBank(double CapacityNl, double RefillNlPerSec)
      : CapacityNl(CapacityNl), RefillNlPerSec(RefillNlPerSec) {}

  double draw(const std::string &Fluid, double Nl, double AtSec) {
    std::lock_guard<std::mutex> Lock(M);
    auto [It, Inserted] = Pools.try_emplace(Fluid);
    Pool &P = It->second;
    if (Inserted)
      P.AvailableNl = CapacityNl;
    if (AtSec > P.LastSec) {
      P.AvailableNl = std::min(CapacityNl,
                               P.AvailableNl +
                                   (AtSec - P.LastSec) * RefillNlPerSec);
      P.LastSec = AtSec;
    }
    if (P.AvailableNl + 1e-12 >= Nl) {
      P.AvailableNl -= Nl;
      return 0.0;
    }
    double Deficit = Nl - P.AvailableNl;
    P.AvailableNl = 0.0;
    if (RefillNlPerSec <= 0.0)
      return 0.0;
    double Wait = Deficit / RefillNlPerSec;
    P.LastSec = AtSec + Wait; // The stall consumed the refill stream.
    return Wait;
  }

private:
  struct Pool {
    double AvailableNl = 0.0;
    double LastSec = 0.0;
  };
  std::mutex M;
  std::map<std::string, Pool> Pools;
  double CapacityNl;
  double RefillNlPerSec;
};

/// One chip's execution state across segments. Only one worker touches a
/// runner at a time (the virtual-time queue holds a chip at most once).
class ChipRunner : public Hooks {
public:
  ChipRunner(const FleetImage &Image, const FleetOptions &Opts,
             std::uint64_t Seed, int Chip, ReservoirBank *Bank)
      : Image(Image), Plan(Image.Plan), Opts(Opts), Seed(Seed), Chip(Chip),
        Bank(Bank), Yields(Seed ^ 0xa55aULL) {
    Res.Volumes.NodeVolumeNl.assign(Plan.Graph.numNodeSlots(), 0.0);
    Res.Volumes.EdgeVolumeNl.assign(Plan.Graph.numEdgeSlots(), 0.0);
    Available.assign(Plan.Inputs.size(), -1.0);
  }

  bool done() const {
    return NextPart >= Image.Segments.size() || !Res.Error.empty();
  }
  double clock() const { return Clock; }

  ChipResult finalize() {
    Res.Completed = Res.Error.empty();
    return std::move(Res);
  }

  /// Runs the chip's next partition (dispense, patch-or-recompile,
  /// execute, publish), applying Section 3.5 online re-management when
  /// dispensing underflows.
  void runNextPartition(Interp &I) {
    std::size_t P = NextPart;
    const FleetSegment &Seg = Image.Segments[P];

    // ----- Constrained-input availability from earlier measurements.
    if (!refreshAvailability(P))
      return;

    int Attempt = 0;
    for (;;) {
      VolumeAssignment V = dispensePartition(Plan, static_cast<int>(P),
                                             Available, Image.Spec);
      for (NodeId N : Plan.Parts[P].Members) {
        Res.Volumes.NodeVolumeNl[N] = V.NodeVolumeNl[N];
        for (EdgeId E : Plan.Graph.inEdges(N))
          Res.Volumes.EdgeVolumeNl[E] = V.EdgeVolumeNl[E];
      }
      VolumeAssignment SubV;
      SubV.NodeVolumeNl.assign(Seg.SubG.numNodeSlots(), 0.0);
      SubV.EdgeVolumeNl.assign(Seg.SubG.numEdgeSlots(), 0.0);
      for (int J = 0; J < Seg.SubG.numNodeSlots(); ++J)
        SubV.NodeVolumeNl[J] = V.NodeVolumeNl[Seg.ToPlanNode[J]];
      for (int J = 0; J < Seg.SubG.numEdgeSlots(); ++J)
        SubV.EdgeVolumeNl[J] = V.EdgeVolumeNl[Seg.ToPlanEdge[J]];

      IntegerAssignment IVol =
          roundToLeastCount(Seg.SubG, SubV, Image.Spec);
      if (!IVol.Underflow) {
        VolumeAssignment Metered = integerToNl(Seg.SubG, IVol, Image.Spec);
        if (!execSegment(I, P, Seg, Seg.SubG, Metered, /*AllowPatch=*/true))
          return;
        // Publishing reads the *dispensed* (pre-rounding) volumes, like
        // the reference executor.
        publishMeasured(P, Seg, Seg.SubG, SubV);
        ++NextPart;
        return;
      }

      // ----- Dispensing underflowed the least count (Section 3.5).
      if (!Opts.EnableOnlineRemanage) {
        fail(format("partition %zu underflows the least count after "
                    "dispensing (scarce upstream measurement); regeneration "
                    "of the producing slice is required",
                    P));
        return;
      }
      if (Attempt++ >= Opts.MaxOnlineRetries) {
        fail(format("partition %zu: online re-management exhausted after %d "
                    "attempts",
                    P, Opts.MaxOnlineRetries));
        return;
      }
      int Re = tryRemanage(I, P, Seg);
      if (Re > 0) {
        if (Res.Error.empty())
          ++NextPart;
        return;
      }
      if (Re < 0)
        return; // Hard error recorded.
      // The manager could not help under this availability: regeneration
      // storm -- re-run the producing partitions for a fresh measurement.
      if (!rerunProducers(I, P))
        return;
    }
  }

  // Hooks: shared-reservoir contention for external input fluids.
  double onInputDraw(int FluidId, double DrawNl, double VirtualSec) override {
    if (!Bank || !CurFluids)
      return 0.0;
    const std::string &Name = (*CurFluids)[FluidId];
    if (!Image.ExternalFluids.count(Name))
      return 0.0;
    double Wait = Bank->draw(Name, DrawNl, ClockBase + VirtualSec);
    Res.ReservoirWaitSec += Wait;
    return Wait;
  }

private:
  void fail(std::string Msg) {
    if (Res.Error.empty())
      Res.Error = std::move(Msg);
  }

  double drawYield() {
    if (Opts.FixedSeparationYield >= 0.0)
      return Opts.FixedSeparationYield;
    return Opts.MinSeparationYield +
           (Opts.MaxSeparationYield - Opts.MinSeparationYield) *
               Yields.nextUnit();
  }

  bool refreshAvailability(std::size_t P) {
    for (int Ref : Plan.Parts[P].InputRefs) {
      const PartitionPlan::ConstrainedInput &CI = Plan.Inputs[Ref];
      if (CI.FromInputPort)
        continue; // Share * capacity, handled by dispensePartition.
      if (Plan.NodePartition[CI.Source] == static_cast<int>(P))
        continue; // Same-partition input: scale-invariant.
      auto It = Measured.find(CI.Source);
      if (It == Measured.end()) {
        fail(format("partition %zu consumes '%s' before it was measured", P,
                    Plan.Graph.node(CI.Source).Name.c_str()));
        return false;
      }
      Available[Ref] = CI.Share.toDouble() * It->second;
    }
    return true;
  }

  /// Patches (or recompiles) and executes one segment; accumulates its
  /// SimResult into the chip.
  bool execSegment(Interp &I, std::size_t P, const FleetSegment &Seg,
                   const AssayGraph &UsedG, const VolumeAssignment &Metered,
                   bool AllowPatch) {
    RunOptions RO;
    RO.EnableRegeneration = Opts.EnableRegeneration;
    RO.Seed = Seed + 17 * P;
    RO.MinSeparationYield = Opts.MinSeparationYield;
    RO.MaxSeparationYield = Opts.MaxSeparationYield;
    RO.FixedSeparationYield = Opts.FixedSeparationYield;
    RO.MoveSeconds = Opts.MoveSeconds;
    RO.MaxRegenRetries = Opts.MaxRegenRetries;
    RO.FleetChip = Chip;

    const Program *Run = nullptr;
    if (AllowPatch && residueShape(Seg.SubG, Metered) == Seg.ResidueShape) {
      // Fast path: the template's instruction stream is valid for these
      // volumes; re-meter by patching the volume table.
      I.bind(Seg.Prog);
      for (std::size_t J = 0; J < Seg.MeteredEdgeOfInstr.size(); ++J) {
        EdgeId E = Seg.MeteredEdgeOfInstr[J];
        if (E >= 0)
          I.volume(Seg.Prog.Code[J].VolIdx) = Metered.EdgeVolumeNl[E];
      }
      Run = &Seg.Prog;
    } else {
      ++Res.SegmentRecompiles;
      met().SegmentRecompiles.add();
      codegen::CodegenOptions CG;
      CG.Mode = codegen::VolumeMode::Managed;
      CG.Volumes = &Metered;
      auto Prog = codegen::generateAIS(UsedG, {}, CG);
      if (!Prog.ok()) {
        fail(format("partition %zu codegen: %s", P, Prog.message().c_str()));
        return false;
      }
      CompileOptions CO;
      CO.Spec = Image.Spec;
      CO.Graph = &UsedG;
      auto BC = vm::compile(*Prog, CO);
      if (!BC.ok()) {
        fail(format("partition %zu compile: %s", P, BC.message().c_str()));
        return false;
      }
      Scratch = std::move(*BC);
      I.bind(Scratch);
      Run = &Scratch;
    }

    ClockBase = Clock;
    CurFluids = &Run->FluidNames;
    I.reset(RO);
    I.run(0, -1, Bank ? this : nullptr);
    SimResult Sim = I.finish();
    CurFluids = nullptr;

    met().Segments.add();
    Res.InstructionsExecuted +=
        static_cast<std::uint64_t>(Sim.InstructionsExecuted);
    if (!Sim.Completed) {
      fail(format("partition %zu: %s", P, Sim.Error.c_str()));
      return false;
    }
    Res.FluidSeconds += Sim.FluidSeconds;
    Res.Regenerations += Sim.Regenerations;
    for (SenseReading &Reading : Sim.Senses)
      Res.Senses.push_back(std::move(Reading));
    Res.DeliveredNl += Sim.DeliveredNl;
    Res.WasteNl += Sim.WasteNl;
    ++Res.PartitionsExecuted;
    Clock += Sim.FluidSeconds;
    return true;
  }

  /// Publishes this partition's outputs to later constrained inputs
  /// (unknown volumes "measured" by the yield stream standing in for the
  /// on-chip volume sensor). \p UsedVol holds pre-rounding volumes over
  /// \p UsedG, whose original node/edge ids coincide with Seg.SubG's.
  void publishMeasured(std::size_t P, const FleetSegment &Seg,
                       const AssayGraph &UsedG,
                       const VolumeAssignment &UsedVol) {
    for (NodeId N : Plan.Parts[P].Members) {
      const Node &Nd = Plan.Graph.node(N);
      bool FeedsConstrainedInput = false;
      for (const PartitionPlan::ConstrainedInput &CI : Plan.Inputs)
        if (CI.Source == N)
          FeedsConstrainedInput = true;
      if (!FeedsConstrainedInput)
        continue;
      NodeId S = Seg.FromPlanNode.at(N);
      double MeasuredNl;
      if (Nd.UnknownVolume) {
        double InputVol = 0.0;
        for (EdgeId E : UsedG.inEdges(S))
          InputVol += UsedVol.EdgeVolumeNl[E];
        MeasuredNl = InputVol * drawYield();
      } else {
        MeasuredNl = UsedVol.NodeVolumeNl[S];
      }
      Measured[N] = MeasuredNl;
      Res.MeasuredNl[Nd.Name] = MeasuredNl;
    }
  }

  /// Section 3.5 online re-management: re-solve the partition's subgraph
  /// with the most binding constrained input pinned at its measured
  /// availability. Returns 1 when the partition ran (or a hard error was
  /// recorded: -1), 0 when the manager cannot help (caller escalates to a
  /// regeneration storm).
  int tryRemanage(Interp &I, std::size_t P, const FleetSegment &Seg) {
    NodeId PinSub = InvalidNode;
    double PinVol = 0.0;
    double BestRatio = 0.0;
    for (int Ref : Plan.Parts[P].InputRefs) {
      const PartitionPlan::ConstrainedInput &CI = Plan.Inputs[Ref];
      if (CI.FromInputPort || Available[Ref] < 0.0)
        continue;
      double Vnorm = Plan.Vnorms.NodeVnorm[CI.Node].toDouble();
      double Ratio = Vnorm > 0.0 ? Available[Ref] / Vnorm : 1e300;
      if (PinSub == InvalidNode || Ratio < BestRatio) {
        BestRatio = Ratio;
        PinSub = Seg.FromPlanNode.at(CI.Node);
        PinVol = Available[Ref];
      }
    }
    if (PinSub == InvalidNode)
      return 0; // Nothing measurable to pin; storm.

    ManagerOptions MO;
    // The LP fallback ignores the pin, so stay on the DagSolve + transform
    // path, which honors it; availability is re-checked below regardless.
    MO.UseLPFallback = false;
    MO.DagOptions.PinnedNode = PinSub;
    MO.DagOptions.PinnedVolumeNl = PinVol;
    ManagerResult R = manageVolumes(Seg.SubG, Image.Spec, MO);
    if (!R.Feasible || R.Rounded.Underflow)
      return 0;
    for (int Ref : Plan.Parts[P].InputRefs) {
      const PartitionPlan::ConstrainedInput &CI = Plan.Inputs[Ref];
      if (CI.FromInputPort || Available[Ref] < 0.0)
        continue;
      NodeId S = Seg.FromPlanNode.at(CI.Node);
      if (R.Volumes.NodeVolumeNl[S] > Available[Ref] + 1e-9)
        return 0; // Solution overdraws the measured supply.
    }

    ++Res.OnlineRemanages;
    met().OnlineRemanages.add();
    AQUA_LOG_INFO("vm", "chip %d partition %zu: online re-management "
                        "(pinned %s nl, %d cascades, %d replications)",
                  Chip, P, formatTrimmed(PinVol, 3).c_str(),
                  R.CascadesApplied, R.ReplicationsApplied);

    VolumeAssignment Metered = integerToNl(R.Graph, R.Rounded, Image.Spec);
    bool Transformed = R.CascadesApplied + R.ReplicationsApplied > 0;
    if (!Transformed) {
      // Same structure: update the plan-level bookkeeping in place.
      for (int J = 0; J < Seg.SubG.numNodeSlots(); ++J)
        Res.Volumes.NodeVolumeNl[Seg.ToPlanNode[J]] = R.Volumes.NodeVolumeNl[J];
      for (int J = 0; J < Seg.SubG.numEdgeSlots(); ++J)
        Res.Volumes.EdgeVolumeNl[Seg.ToPlanEdge[J]] = R.Volumes.EdgeVolumeNl[J];
    }
    if (!execSegment(I, P, Seg, R.Graph, Metered, /*AllowPatch=*/!Transformed))
      return -1;
    publishMeasured(P, Seg, R.Graph, R.Volumes);
    return 1;
  }

  /// Regeneration storm: re-run every producing partition of \p P's
  /// constrained inputs for fresh measurements, then refresh availability.
  bool rerunProducers(Interp &I, std::size_t P) {
    std::set<int> Producers;
    for (int Ref : Plan.Parts[P].InputRefs) {
      const PartitionPlan::ConstrainedInput &CI = Plan.Inputs[Ref];
      if (CI.FromInputPort ||
          Plan.NodePartition[CI.Source] == static_cast<int>(P))
        continue;
      Producers.insert(Plan.NodePartition[CI.Source]);
    }
    if (Producers.empty()) {
      fail(format("partition %zu underflows and has no producing partition "
                  "to regenerate",
                  P));
      return false;
    }
    for (int Q : Producers) {
      const FleetSegment &Seg = Image.Segments[Q];
      VolumeAssignment V = dispensePartition(Plan, Q, Available, Image.Spec);
      VolumeAssignment SubV;
      SubV.NodeVolumeNl.assign(Seg.SubG.numNodeSlots(), 0.0);
      SubV.EdgeVolumeNl.assign(Seg.SubG.numEdgeSlots(), 0.0);
      for (int J = 0; J < Seg.SubG.numNodeSlots(); ++J)
        SubV.NodeVolumeNl[J] = V.NodeVolumeNl[Seg.ToPlanNode[J]];
      for (int J = 0; J < Seg.SubG.numEdgeSlots(); ++J)
        SubV.EdgeVolumeNl[J] = V.EdgeVolumeNl[Seg.ToPlanEdge[J]];
      IntegerAssignment IVol = roundToLeastCount(Seg.SubG, SubV, Image.Spec);
      if (IVol.Underflow) {
        fail(format("partition %d underflows while regenerating for "
                    "partition %zu",
                    Q, P));
        return false;
      }
      VolumeAssignment Metered = integerToNl(Seg.SubG, IVol, Image.Spec);
      if (!execSegment(I, Q, Seg, Seg.SubG, Metered, /*AllowPatch=*/true))
        return false;
      publishMeasured(Q, Seg, Seg.SubG, SubV);
      ++Res.PartitionReruns;
      met().PartitionReruns.add();
    }
    return refreshAvailability(P);
  }

  const FleetImage &Image;
  const PartitionPlan &Plan;
  const FleetOptions &Opts;
  std::uint64_t Seed;
  int Chip;
  ReservoirBank *Bank;
  SplitMix64 Yields;

  std::map<NodeId, double> Measured;
  std::vector<double> Available;
  std::size_t NextPart = 0;
  double Clock = 0.0;
  double ClockBase = 0.0;
  const std::vector<std::string> *CurFluids = nullptr;
  Program Scratch; ///< Keeps a recompiled segment alive during its run.
  ChipResult Res;
};

} // namespace

std::vector<char> aqua::vm::residueShape(const AssayGraph &G,
                                         const VolumeAssignment &V) {
  // Mirrors codegen's consumeUse: the only volume-dependent emission
  // decision is whether a fully-consumed interior (mix/incubate) value
  // without an explicit excess edge strands residue (In - Out > 1e-9) and
  // needs a clearing `output`.
  std::vector<char> Shape(G.numNodeSlots(), 0);
  for (NodeId N : G.liveNodes()) {
    const Node &Nd = G.node(N);
    if (Nd.Kind != NodeKind::Mix && Nd.Kind != NodeKind::Incubate)
      continue;
    bool HasExcess = false;
    for (EdgeId E : G.outEdges(N))
      if (G.node(G.edge(E).Dst).Kind == NodeKind::Excess)
        HasExcess = true;
    if (HasExcess)
      continue; // Decision fixed by structure.
    double In = 0.0, Out = 0.0;
    for (EdgeId E : G.inEdges(N))
      In += V.EdgeVolumeNl[E];
    for (EdgeId E : G.outEdges(N))
      if (G.node(G.edge(E).Dst).Kind != NodeKind::Excess)
        Out += V.EdgeVolumeNl[E];
    Shape[N] = In - Out > 1e-9 ? 1 : 0;
  }
  return Shape;
}

Expected<FleetImage> aqua::vm::compileFleetImage(const AssayGraph &G,
                                                 const MachineSpec &Spec) {
  AQUA_TRACE_SPAN("vm.fleet.compile", "vm");
  auto PlanE = buildPartitionPlan(G, Spec);
  if (!PlanE.ok())
    return Expected<FleetImage>::error("fleet planning: " + PlanE.message());

  FleetImage Img;
  Img.Plan = std::move(*PlanE);
  Img.Spec = Spec;
  for (NodeId N : G.liveNodes())
    if (G.node(N).Kind == NodeKind::Input)
      Img.ExternalFluids.insert(G.node(N).Name);

  // Reference metering at the nominal yield: the template's volumes only
  // seed the instruction structure; every chip re-meters per run.
  const double NominalYield = 0.45;
  const PartitionPlan &Plan = Img.Plan;
  std::map<NodeId, double> RefMeasured;
  std::vector<double> RefAvail(Plan.Inputs.size(), -1.0);
  VolumeAssignment PlanVol;
  PlanVol.NodeVolumeNl.assign(Plan.Graph.numNodeSlots(), 0.0);
  PlanVol.EdgeVolumeNl.assign(Plan.Graph.numEdgeSlots(), 0.0);

  for (std::size_t P = 0; P < Plan.Parts.size(); ++P) {
    for (int Ref : Plan.Parts[P].InputRefs) {
      const PartitionPlan::ConstrainedInput &CI = Plan.Inputs[Ref];
      if (CI.FromInputPort ||
          Plan.NodePartition[CI.Source] == static_cast<int>(P))
        continue;
      auto It = RefMeasured.find(CI.Source);
      if (It == RefMeasured.end())
        return Expected<FleetImage>::error(
            format("partition %zu consumes '%s' before any partition "
                   "produces it",
                   P, Plan.Graph.node(CI.Source).Name.c_str()));
      RefAvail[Ref] = CI.Share.toDouble() * It->second;
    }

    VolumeAssignment V =
        dispensePartition(Plan, static_cast<int>(P), RefAvail, Spec);
    for (NodeId N : Plan.Parts[P].Members) {
      PlanVol.NodeVolumeNl[N] = V.NodeVolumeNl[N];
      for (EdgeId E : Plan.Graph.inEdges(N))
        PlanVol.EdgeVolumeNl[E] = V.EdgeVolumeNl[E];
    }

    FleetSegment Seg = extractSegment(Plan, static_cast<int>(P));
    VolumeAssignment SubV;
    SubV.NodeVolumeNl.assign(Seg.SubG.numNodeSlots(), 0.0);
    SubV.EdgeVolumeNl.assign(Seg.SubG.numEdgeSlots(), 0.0);
    for (int J = 0; J < Seg.SubG.numNodeSlots(); ++J)
      SubV.NodeVolumeNl[J] = V.NodeVolumeNl[Seg.ToPlanNode[J]];
    for (int J = 0; J < Seg.SubG.numEdgeSlots(); ++J)
      SubV.EdgeVolumeNl[J] = V.EdgeVolumeNl[Seg.ToPlanEdge[J]];

    // Underflow here is fine: a template with degenerate volumes still has
    // the right structure for shape comparison, and chips never run it
    // unpatched.
    IntegerAssignment IVol = roundToLeastCount(Seg.SubG, SubV, Spec);
    VolumeAssignment Metered = integerToNl(Seg.SubG, IVol, Spec);

    codegen::CodegenOptions CG;
    CG.Mode = codegen::VolumeMode::Managed;
    CG.Volumes = &Metered;
    CG.EdgeOfInstr = &Seg.MeteredEdgeOfInstr;
    auto Prog = codegen::generateAIS(Seg.SubG, {}, CG);
    if (!Prog.ok())
      return Expected<FleetImage>::error(
          format("partition %zu codegen: %s", P, Prog.message().c_str()));
    Seg.ResidueShape = residueShape(Seg.SubG, Metered);

    CompileOptions CO;
    CO.Spec = Spec;
    CO.Graph = &Seg.SubG;
    auto BC = compile(*Prog, CO);
    if (!BC.ok())
      return Expected<FleetImage>::error(
          format("partition %zu compile: %s", P, BC.message().c_str()));
    Seg.Prog = std::move(*BC);

    for (NodeId N : Plan.Parts[P].Members) {
      const Node &Nd = Plan.Graph.node(N);
      bool Feeds = false;
      for (const PartitionPlan::ConstrainedInput &CI : Plan.Inputs)
        if (CI.Source == N)
          Feeds = true;
      if (!Feeds)
        continue;
      if (Nd.UnknownVolume) {
        double InputVol = 0.0;
        for (EdgeId E : Plan.Graph.inEdges(N))
          InputVol += PlanVol.EdgeVolumeNl[E];
        RefMeasured[N] = InputVol * NominalYield;
      } else {
        RefMeasured[N] = PlanVol.NodeVolumeNl[N];
      }
    }

    Img.Segments.push_back(std::move(Seg));
  }
  return Img;
}

ChipResult aqua::vm::runChip(const FleetImage &Image, const FleetOptions &Opts,
                             std::uint64_t Seed, int Chip) {
  ChipRunner R(Image, Opts, Seed, Chip, nullptr);
  Interp I;
  while (!R.done())
    R.runNextPartition(I);
  return R.finalize();
}

FleetResult aqua::vm::runFleet(const FleetImage &Image,
                               const FleetOptions &Opts) {
  obs::SpanGuard Span("vm.fleet.run", "vm");
  int NumChips = std::max(1, Opts.NumChips);
  int Threads = std::clamp(Opts.Threads, 1, 256);
  Span.arg("chips", NumChips);
  Span.arg("threads", Threads);

  ReservoirBank Bank(Opts.ReservoirCapacityNl, Opts.ReservoirRefillNlPerSec);
  ReservoirBank *BankP = Opts.SharedReservoirs ? &Bank : nullptr;

  std::vector<std::unique_ptr<ChipRunner>> Chips;
  Chips.reserve(NumChips);
  SplitMix64 SeedGen(Opts.Seed);
  for (int C = 0; C < NumChips; ++C)
    Chips.push_back(
        std::make_unique<ChipRunner>(Image, Opts, SeedGen.next(), C, BankP));

  // Shared virtual-time event queue: workers always advance the earliest
  // chip, one segment at a time. A chip is in the queue or in flight on
  // exactly one worker, never both.
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> Queue;
  for (int C = 0; C < NumChips; ++C)
    Queue.emplace(0.0, C);
  std::mutex QM;
  std::condition_variable CV;
  int InFlight = 0;

  auto Worker = [&] {
    Interp I;
    std::unique_lock<std::mutex> Lock(QM);
    for (;;) {
      while (Queue.empty() && InFlight > 0)
        CV.wait(Lock);
      if (Queue.empty())
        return; // No work left and none in flight.
      int C = Queue.top().second;
      Queue.pop();
      ++InFlight;
      Lock.unlock();
      Chips[C]->runNextPartition(I);
      Lock.lock();
      --InFlight;
      if (!Chips[C]->done())
        Queue.emplace(Chips[C]->clock(), C);
      CV.notify_all();
    }
  };

  if (Threads == 1) {
    Worker();
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Threads);
    for (int T = 0; T < Threads; ++T)
      Pool.emplace_back(Worker);
    for (std::thread &T : Pool)
      T.join();
  }

  FleetResult R;
  R.Chips.reserve(NumChips);
  for (int C = 0; C < NumChips; ++C) {
    double Finish = Chips[C]->clock();
    ChipResult CR = Chips[C]->finalize();
    if (CR.Completed)
      ++R.ChipsCompleted;
    else
      ++R.ChipsFailed;
    R.InstructionsExecuted += CR.InstructionsExecuted;
    R.Regenerations += static_cast<std::uint64_t>(CR.Regenerations);
    R.OnlineRemanages += CR.OnlineRemanages;
    R.PartitionReruns += CR.PartitionReruns;
    R.SegmentRecompiles += CR.SegmentRecompiles;
    R.MakespanSec = std::max(R.MakespanSec, Finish);
    R.TotalFluidSeconds += CR.FluidSeconds;
    R.DeliveredNl += CR.DeliveredNl;
    R.WasteNl += CR.WasteNl;
    R.ReservoirWaitSec += CR.ReservoirWaitSec;
    R.Chips.push_back(std::move(CR));
  }

  met().Chips.add(static_cast<std::uint64_t>(NumChips));
  met().ChipsFailed.add(static_cast<std::uint64_t>(R.ChipsFailed));
  met().MakespanSec.add(R.MakespanSec);
  met().ReservoirWaitSec.add(R.ReservoirWaitSec);
  return R;
}
