//===- Fleet.cpp - Many-chip fleet simulation -----------------------------------===//
//
// Part of AquaVol. MIT license.
//
// Every partition goes through one step, written once in PlanWalk and
// ChipRunner::runSegment: availability, metering, measurement. A chip's
// normal path mirrors aqua/check's reference executor
// (check/ReferencePartitioned.cpp) step for step: same availability chain,
// same dispensing, same RNG stream layout (yields from Seed ^ 0xa55a,
// partition P simulated at Seed + 17 * P), so with online re-management
// disabled the two ChipResults are bit-for-bit equal. The difference is
// compile-once execution: instead of regenerating AIS per partition per
// run, the chip patches the shared segment template's volume table,
// guarded by codegen's residue shape.
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
#include <optional>
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

/// The yield the image compile meters its templates at. The template's
/// volumes only seed the instruction structure; every chip re-meters.
constexpr double NominalYield = 0.45;

/// The subgraph id of plan node \p N in \p S, or InvalidNode.
NodeId subNode(const FleetSegment &S, NodeId N) {
  auto It = std::lower_bound(S.ToPlanNode.begin(), S.ToPlanNode.end(), N);
  if (It == S.ToPlanNode.end() || *It != N)
    return InvalidNode;
  return static_cast<NodeId>(It - S.ToPlanNode.begin());
}

/// Extracts one partition as a standalone graph (the same construction as
/// the reference executor: members sorted, in-edges in plan order, so
/// subgraph floating-point summation orders match the plan's).
FleetSegment extractSegment(const PartitionPlan &Plan, int PartIndex) {
  const AssayGraph &PG = Plan.Graph;
  const std::vector<NodeId> &Members = Plan.Parts[PartIndex].Members;
  FleetSegment S;
  S.ToPlanNode = Members;
  std::sort(S.ToPlanNode.begin(), S.ToPlanNode.end());
  for (NodeId N : S.ToPlanNode) {
    const Node &Src = PG.node(N);
    Node &Dst = S.SubG.node(S.SubG.addNode(Src.Kind, Src.Name));
    Dst.OutFraction = Src.OutFraction;
    Dst.UnknownVolume = Src.UnknownVolume;
    Dst.NoExcess = Src.NoExcess;
    Dst.ExcessShare = Src.ExcessShare;
    Dst.Params = Src.Params;
  }
  for (NodeId N : S.ToPlanNode)
    for (EdgeId E : PG.inEdges(N)) {
      const Edge &Ed = PG.edge(E);
      assert(subNode(S, Ed.Src) != InvalidNode &&
             "partition member consumes a non-member value");
      S.SubG.addEdge(subNode(S, Ed.Src), subNode(S, N), Ed.Fraction);
      S.ToPlanEdge.push_back(E);
    }
  for (NodeId N : Members)
    if (std::any_of(Plan.Inputs.begin(), Plan.Inputs.end(),
                    [N](const PartitionPlan::ConstrainedInput &CI) {
                      return CI.Source == N;
                    }))
      S.Measured.push_back(subNode(S, N));
  return S;
}

/// Template code generation and bytecode compilation of partition \p P on
/// \p G at \p Metered volumes.
Expected<Program> compileSegment(std::size_t P, const AssayGraph &G,
                                 const VolumeAssignment &Metered,
                                 const MachineSpec &Spec,
                                 std::vector<EdgeId> *EdgeOfInstr = nullptr) {
  codegen::CodegenOptions CG;
  CG.Mode = codegen::VolumeMode::Managed;
  CG.Volumes = &Metered;
  CG.EdgeOfInstr = EdgeOfInstr;
  auto Prog = codegen::generateAIS(G, {}, CG);
  if (!Prog.ok())
    return Expected<Program>::error(
        format("partition %zu codegen: %s", P, Prog.message().c_str()));
  CompileOptions CO;
  CO.Spec = Spec;
  CO.Graph = &G;
  auto BC = compile(*Prog, CO);
  if (!BC.ok())
    return Expected<Program>::error(
        format("partition %zu compile: %s", P, BC.message().c_str()));
  return BC;
}

/// One partition's metering, over its segment's subgraph.
struct Metering {
  VolumeAssignment Dispensed; ///< Run-time dispensing, before rounding.
  VolumeAssignment Metered;   ///< Rounded to the least count.
  bool Underflow = false;     ///< Some edge rounds below one least count.
};

/// One walk over the plan in wave order (Section 3.5): what earlier
/// partitions measured, and the constrained-input availability dispensing
/// reads. The image compile walks it once at the nominal yield; every chip
/// walks its own at its own yields.
struct PlanWalk {
  PlanWalk(const PartitionPlan &Plan, const MachineSpec &Spec)
      : Plan(Plan), Spec(Spec), MeasuredNl(Plan.Graph.numNodeSlots()),
        Available(Plan.Inputs.size(), -1.0) {}

  /// Availability: partition \p P's constrained inputs from earlier
  /// measurements. Returns the source of one not yet measured, or
  /// InvalidNode.
  NodeId refresh(std::size_t P) {
    for (int Ref : Plan.Parts[P].InputRefs) {
      const PartitionPlan::ConstrainedInput &CI = Plan.Inputs[Ref];
      // Port inputs (Share * capacity) and same-partition inputs
      // (scale-invariant) are dispensePartition's own.
      if (CI.FromInputPort ||
          Plan.NodePartition[CI.Source] == static_cast<int>(P))
        continue;
      if (!MeasuredNl[CI.Source])
        return CI.Source;
      Available[Ref] = CI.Share.toDouble() * *MeasuredNl[CI.Source];
    }
    return InvalidNode;
  }

  /// Metering: dispenses partition \p P from the current availability,
  /// projects the volumes onto \p Seg's subgraph and rounds them to the
  /// least count.
  Metering meter(std::size_t P, const FleetSegment &Seg) const {
    VolumeAssignment V =
        dispensePartition(Plan, static_cast<int>(P), Available, Spec);
    Metering M;
    M.Dispensed.NodeVolumeNl.resize(Seg.ToPlanNode.size());
    M.Dispensed.EdgeVolumeNl.resize(Seg.ToPlanEdge.size());
    for (std::size_t J = 0; J < Seg.ToPlanNode.size(); ++J)
      M.Dispensed.NodeVolumeNl[J] = V.NodeVolumeNl[Seg.ToPlanNode[J]];
    for (std::size_t J = 0; J < Seg.ToPlanEdge.size(); ++J)
      M.Dispensed.EdgeVolumeNl[J] = V.EdgeVolumeNl[Seg.ToPlanEdge[J]];
    IntegerAssignment IVol = roundToLeastCount(Seg.SubG, M.Dispensed, Spec);
    M.Underflow = IVol.Underflow;
    M.Metered = integerToNl(Seg.SubG, IVol, Spec);
    return M;
  }

  /// Measurement: what \p Seg's members that feed constrained inputs put
  /// out. \p G is the segment's subgraph or a re-managed form of it (the
  /// members keep their ids) and \p Dispensed its pre-rounding volumes. An
  /// unknown-volume node yields \p Yield() of its dispensed input (the
  /// on-chip volume sensor); a known-volume cut fluid its dispensed volume.
  template <typename YieldFn>
  void measure(const FleetSegment &Seg, const AssayGraph &G,
               const VolumeAssignment &Dispensed, YieldFn Yield,
               std::map<std::string, double> *Named = nullptr) {
    for (NodeId S : Seg.Measured) {
      NodeId N = Seg.ToPlanNode[S];
      const Node &Nd = Plan.Graph.node(N);
      double Nl;
      if (Nd.UnknownVolume) {
        double InputVol = 0.0;
        for (EdgeId E : G.inEdges(S))
          InputVol += Dispensed.EdgeVolumeNl[E];
        Nl = InputVol * Yield();
      } else {
        Nl = Dispensed.NodeVolumeNl[S];
      }
      MeasuredNl[N] = Nl;
      if (Named)
        (*Named)[Nd.Name] = Nl;
    }
  }

  const PartitionPlan &Plan;
  const MachineSpec &Spec;
  std::vector<std::optional<double>> MeasuredNl; ///< Per plan node slot.
  std::vector<double> Available; ///< Per constrained input; -1 unset.
};

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
        Bank(Bank), Yields(Seed ^ 0xa55aULL), Walk(Image.Plan, Image.Spec) {
    Res.Volumes.NodeVolumeNl.assign(Plan.Graph.numNodeSlots(), 0.0);
    Res.Volumes.EdgeVolumeNl.assign(Plan.Graph.numEdgeSlots(), 0.0);
  }

  bool done() const {
    return NextPart >= Image.Segments.size() || !Res.Error.empty();
  }
  double clock() const { return Clock; }

  ChipResult finalize() {
    Res.Completed = Res.Error.empty();
    return std::move(Res);
  }

  /// Runs the chip's next partition (availability, metering,
  /// patch-or-recompile, execution, measurement), applying Section 3.5
  /// online re-management when dispensing underflows.
  void runNextPartition(Interp &I) {
    std::size_t P = NextPart;
    const FleetSegment &Seg = Image.Segments[P];
    if (!refreshAvailability(P))
      return;

    int Attempt = 0;
    for (;;) {
      Metering M = Walk.meter(P, Seg);
      recordVolumes(Seg, M.Dispensed);
      if (!M.Underflow) {
        if (runSegment(I, P, Seg, Seg.SubG, M.Metered, M.Dispensed,
                       /*AllowPatch=*/true))
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
      if (tryRemanage(I, P, Seg)) {
        if (Res.Error.empty())
          ++NextPart;
        return;
      }
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
    NodeId Missing = Walk.refresh(P);
    if (Missing == InvalidNode)
      return true;
    fail(format("partition %zu consumes '%s' before it was measured", P,
                Plan.Graph.node(Missing).Name.c_str()));
    return false;
  }

  /// Records a partition's dispensed volumes (over its subgraph) in the
  /// chip's plan-indexed result.
  void recordVolumes(const FleetSegment &Seg, const VolumeAssignment &SubV) {
    for (std::size_t J = 0; J < Seg.ToPlanNode.size(); ++J)
      Res.Volumes.NodeVolumeNl[Seg.ToPlanNode[J]] = SubV.NodeVolumeNl[J];
    for (std::size_t J = 0; J < Seg.ToPlanEdge.size(); ++J)
      Res.Volumes.EdgeVolumeNl[Seg.ToPlanEdge[J]] = SubV.EdgeVolumeNl[J];
  }

  /// Patches (or recompiles) and executes one segment on \p UsedG at
  /// \p Metered volumes, accumulates its SimResult into the chip, then
  /// measures its outputs from the \p Dispensed (pre-rounding) volumes,
  /// like the reference executor.
  bool runSegment(Interp &I, std::size_t P, const FleetSegment &Seg,
                  const AssayGraph &UsedG, const VolumeAssignment &Metered,
                  const VolumeAssignment &Dispensed, bool AllowPatch) {
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
    if (AllowPatch &&
        codegen::residueShape(Seg.SubG, Metered) == Seg.ResidueShape) {
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
      auto BC = compileSegment(P, UsedG, Metered, Image.Spec);
      if (!BC.ok()) {
        fail(BC.message());
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
    Walk.measure(Seg, UsedG, Dispensed, [this] { return drawYield(); },
                 &Res.MeasuredNl);
    return true;
  }

  /// Section 3.5 online re-management: re-solve the partition's subgraph
  /// with the most binding constrained input pinned at its measured
  /// availability. Returns true when the partition ran or failed for good,
  /// false when the manager cannot help (caller escalates to a
  /// regeneration storm).
  bool tryRemanage(Interp &I, std::size_t P, const FleetSegment &Seg) {
    const std::vector<double> &Available = Walk.Available;
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
        PinSub = subNode(Seg, CI.Node);
        PinVol = Available[Ref];
      }
    }
    if (PinSub == InvalidNode)
      return false; // Nothing measurable to pin; storm.

    ManagerOptions MO;
    // The LP fallback ignores the pin, so stay on the DagSolve + transform
    // path, which honors it; availability is re-checked below regardless.
    MO.UseLPFallback = false;
    MO.DagOptions.PinnedNode = PinSub;
    MO.DagOptions.PinnedVolumeNl = PinVol;
    ManagerResult R = manageVolumes(Seg.SubG, Image.Spec, MO);
    if (!R.Feasible || R.Rounded.Underflow)
      return false;
    for (int Ref : Plan.Parts[P].InputRefs) {
      const PartitionPlan::ConstrainedInput &CI = Plan.Inputs[Ref];
      if (CI.FromInputPort || Available[Ref] < 0.0)
        continue;
      if (R.Volumes.NodeVolumeNl[subNode(Seg, CI.Node)] >
          Available[Ref] + 1e-9)
        return false; // Solution overdraws the measured supply.
    }

    ++Res.OnlineRemanages;
    met().OnlineRemanages.add();
    AQUA_LOG_INFO("vm", "chip %d partition %zu: online re-management "
                        "(pinned %s nl, %d cascades, %d replications)",
                  Chip, P, formatTrimmed(PinVol, 3).c_str(),
                  R.CascadesApplied, R.ReplicationsApplied);

    VolumeAssignment Metered = integerToNl(R.Graph, R.Rounded, Image.Spec);
    bool Transformed = R.CascadesApplied + R.ReplicationsApplied > 0;
    if (!Transformed)
      recordVolumes(Seg, R.Volumes); // Same structure, same slots.
    runSegment(I, P, Seg, R.Graph, Metered, R.Volumes,
               /*AllowPatch=*/!Transformed);
    return true;
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
      Metering M = Walk.meter(Q, Seg);
      if (M.Underflow) {
        fail(format("partition %d underflows while regenerating for "
                    "partition %zu",
                    Q, P));
        return false;
      }
      if (!runSegment(I, Q, Seg, Seg.SubG, M.Metered, M.Dispensed,
                      /*AllowPatch=*/true))
        return false;
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
  PlanWalk Walk;

  std::size_t NextPart = 0;
  double Clock = 0.0;
  double ClockBase = 0.0;
  const std::vector<std::string> *CurFluids = nullptr;
  Program Scratch; ///< Keeps a recompiled segment alive during its run.
  ChipResult Res;
};

} // namespace

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

  const PartitionPlan &Plan = Img.Plan;
  PlanWalk Walk(Plan, Spec);
  for (std::size_t P = 0; P < Plan.Parts.size(); ++P) {
    if (NodeId Missing = Walk.refresh(P); Missing != InvalidNode)
      return Expected<FleetImage>::error(
          format("partition %zu consumes '%s' before any partition "
                 "produces it",
                 P, Plan.Graph.node(Missing).Name.c_str()));
    FleetSegment Seg = extractSegment(Plan, static_cast<int>(P));
    // Underflow is fine here: a template with degenerate volumes still has
    // the right structure for shape comparison, and chips never run it
    // unpatched.
    Metering M = Walk.meter(P, Seg);
    auto BC = compileSegment(P, Seg.SubG, M.Metered, Spec,
                             &Seg.MeteredEdgeOfInstr);
    if (!BC.ok())
      return BC.takeStatus();
    Seg.Prog = std::move(*BC);
    Seg.ResidueShape = codegen::residueShape(Seg.SubG, M.Metered);
    Walk.measure(Seg, Seg.SubG, M.Dispensed, [] { return NominalYield; });
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
