//===- VM.cpp - Register-VM bytecode interpreter --------------------------------===//
//
// Part of AquaVol. MIT license.
//
// The dispatch loop below is the tree-walking reference of aqua/check
// (check/Reference.cpp) ported onto flat arrays. Equivalence is
// bit-for-bit, so every epsilon, every clamp, every expression association
// and every RNG draw site must match the reference exactly; the `vm`
// differential oracle catches drift.
//
// Dense composition rows stand in for the reference's string-keyed maps:
// a fluid absent from a map behaves identically to a 0.0 row entry
// (0*x/T == 0 and F + 0.0 == F for the non-negative fractions that occur
// here), so the arithmetic agrees double-for-double. The one observable
// difference is a tombstone: a map entry scaled to exactly 0.0 (possible
// only through a volume-0 fluid that still carries a composition) would
// appear as a zero-valued key in a sense reading, which finish() does not
// reproduce. No generated program reaches that state.
//
//===----------------------------------------------------------------------===//

#include "aqua/vm/VM.h"

#include "aqua/obs/Log.h"
#include "aqua/obs/Metrics.h"
#include "aqua/obs/Trace.h"
#include "aqua/support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace aqua;
using namespace aqua::vm;

namespace {

struct VmMetrics {
  obs::Counter &Runs = obs::metrics().counter("vm.runs");
  obs::Counter &Instructions = obs::metrics().counter("vm.instructions");
  obs::Counter &Regenerations = obs::metrics().counter("vm.regenerations");
  obs::Counter &Underflows = obs::metrics().counter("vm.underflows");
  obs::Counter &Overflows = obs::metrics().counter("vm.overflows");
  obs::Counter &SubLeastCountMoves =
      obs::metrics().counter("vm.sub_least_count_moves");
  obs::Gauge &InputNl = obs::metrics().gauge("vm.volume.input_nl");
  obs::Gauge &DeliveredNl = obs::metrics().gauge("vm.volume.delivered_nl");
  obs::Gauge &WasteNl = obs::metrics().gauge("vm.volume.waste_nl");
};

VmMetrics &met() {
  static VmMetrics M;
  return M;
}

} // namespace

void Interp::bind(const Program &P) {
  Prog = &P;
  NumSlots = P.NumSlots;
  NumFluids = P.numFluids();
  SlotVol.assign(NumSlots, 0.0);
  CompRows.assign(static_cast<std::size_t>(NumSlots) * NumFluids, 0.0);
  WriterIdx.assign(NumSlots, -1);
  VolumeTable.assign(P.VolumeTable.begin(), P.VolumeTable.end());
  InputDrawn.assign(NumFluids, 0.0);
  TakenComp.assign(NumFluids, 0.0);
  StashSlot.clear();
  StashVol.clear();
  StashComp.clear();
  SenseLog.clear();
  SenseComp.clear();
}

void Interp::reset(const RunOptions &O) {
  Opts = O;
  Rng = SplitMix64(O.Seed);
  Tracing = obs::Tracer::enabled();
  // Quantization only depends on the requested value, so fold it over the
  // (possibly patched) volume table once per run instead of per transfer;
  // regeneration replays re-execute MoveVol instructions many times over.
  // Fleet/volume() patches must land before reset() (they do: execSegment
  // patches, then resets).
  QuantVolTable.resize(VolumeTable.size());
  for (std::size_t I = 0; I < VolumeTable.size(); ++I)
    QuantVolTable[I] = quantize(VolumeTable[I]);
  std::fill(SlotVol.begin(), SlotVol.end(), 0.0);
  std::fill(CompRows.begin(), CompRows.end(), 0.0);
  std::fill(WriterIdx.begin(), WriterIdx.end(), -1);
  std::fill(InputDrawn.begin(), InputDrawn.end(), 0.0);
  StashSlot.clear();
  StashVol.clear();
  StashComp.clear();
  SenseLog.clear();
  SenseComp.clear();
  Error.clear();
  Regenerations = UnderflowEvents = OverflowEvents = 0;
  SubLeastCountMoves = InstructionsExecuted = 0;
  FluidSec = DeliveredNl = WasteNl = 0.0;
}

void Interp::fail(int Idx, std::string Msg) {
  if (!Error.empty())
    return; // Only the first error is kept (as in the reference).
  Error = format("instr %d (%s): %s", Idx, Prog->InstrText[Idx].c_str(),
                 Msg.c_str());
  AQUA_LOG_WARN("vm", "execution failed at %s", Error.c_str());
}

double Interp::quantize(double VolNl) const {
  double Lc = Prog->Spec.LeastCountNl;
  return std::round(VolNl / Lc) * Lc;
}

double Interp::separationYield() {
  if (Opts.FixedSeparationYield >= 0.0)
    return Opts.FixedSeparationYield;
  return Opts.MinSeparationYield +
         (Opts.MaxSeparationYield - Opts.MinSeparationYield) * Rng.nextUnit();
}

void Interp::clearSlot(int Slot) {
  SlotVol[Slot] = 0.0;
  double *C = comp(Slot);
  std::fill(C, C + NumFluids, 0.0);
}

// Fluid::add with a dense row: scale own entries by V/Total, then fold the
// incoming entries in. Zero entries pass through both steps bit-unchanged,
// which is why both loops may skip them: fractions are never -0.0 here, so
// 0.0 * V / Total == +0.0 leaves the entry bit-identical, and x += 0.0 is
// the identity for every non-negative x. Rows are sparse (a unit holds a
// few of the program's fluids), so skipping turns 2*NumFluids divisions
// into a handful -- the single hottest win in the dispatch loop.
void Interp::addInto(int Slot, double AddVol, const double *AddComp) {
  if (AddVol <= 1e-12)
    return; // Other.empty() in Fluid::add.
  double V = SlotVol[Slot];
  double Total = V + AddVol;
  double *C = comp(Slot);
  for (int F = 0; F < NumFluids; ++F)
    if (C[F] != 0.0)
      C[F] = C[F] * V / Total;
  for (int F = 0; F < NumFluids; ++F)
    if (AddComp[F] != 0.0)
      C[F] += AddComp[F] * AddVol / Total;
  SlotVol[Slot] = Total;
}

namespace {
/// Fluid::take with dense state: clamps, snapshots the composition row
/// into \p TakenComp (the taken fluid keeps it even when the source
/// empties), and clears the source when it drops to (numerical) zero.
double takeFrom(std::vector<double> &SlotVol, double *Comp, int Slot,
                int NumFluids, double TakeNl, std::vector<double> &TakenComp) {
  TakeNl = std::clamp(TakeNl, 0.0, SlotVol[Slot]);
  std::copy(Comp, Comp + NumFluids, TakenComp.begin());
  SlotVol[Slot] -= TakeNl;
  if (SlotVol[Slot] <= 1e-12) {
    SlotVol[Slot] = 0.0;
    std::fill(Comp, Comp + NumFluids, 0.0);
  }
  return TakeNl;
}
} // namespace

bool Interp::regenerate(int WriterI, int Depth, Hooks *H) {
  if (Depth > 24)
    return false;
  const Instr &W = Prog->Code[WriterI];
  ++Regenerations;
  if (Tracing) {
    obs::TraceEvent E;
    E.Name = "regeneration";
    E.Cat = "sim";
    E.Phase = 'i';
    E.TsMicros = static_cast<std::uint64_t>(FluidSec * 1e6);
    E.Pid = Opts.FleetChip >= 0 ? obs::PidFleet : obs::PidSimulated;
    E.Tid = static_cast<std::uint32_t>(Opts.FleetChip >= 0 ? Opts.FleetChip
                                                           : Depth);
    obs::Tracer::global().record(std::move(E));
  }

  if (W.Code == Op::Input) {
    exec(WriterI, Depth + 1, H);
    return true;
  }
  if (W.RegenBegin == NoSlice)
    return false; // No graph / unattributed instruction at compile time.

  // Stash functional-unit contents (ascending slot == ascending locKey,
  // the reference's map order), then clear every functional unit.
  std::size_t Base = StashSlot.size();
  for (int S = 0; S < NumSlots; ++S) {
    if (!Prog->SlotIsFunctionalUnit[S])
      continue;
    if (SlotVol[S] > 1e-12) {
      StashSlot.push_back(S);
      StashVol.push_back(SlotVol[S]);
      StashComp.insert(StashComp.end(), comp(S), comp(S) + NumFluids);
    }
    clearSlot(S);
  }

  for (std::int32_t K = 0; K < W.RegenCount; ++K) {
    int Idx = Prog->RegenSlices[W.RegenBegin + K];
    if (!Error.empty()) {
      // A failed replay abandons the stash (the reference's Stash vector
      // goes out of scope unrestored) -- observable, so reproduced.
      StashSlot.resize(Base);
      StashVol.resize(Base);
      StashComp.resize(Base * NumFluids);
      return false;
    }
    // Outputs only deliver excess or residue off-chip; replaying one
    // would drain the very value being regenerated.
    if (Prog->Code[Idx].Code == Op::Output)
      continue;
    exec(Idx, Depth + 1, H);
  }

  for (std::size_t F = Base; F < StashSlot.size(); ++F) {
    int S = StashSlot[F];
    if (SlotVol[S] > 1e-12 && StashVol[F] > 1e-12)
      ++OverflowEvents; // Collision; merge (rare by construction).
    addInto(S, StashVol[F], StashComp.data() + F * NumFluids);
  }
  StashSlot.resize(Base);
  StashVol.resize(Base);
  StashComp.resize(Base * NumFluids);
  return true;
}

void Interp::transferVol(int Idx, std::uint16_t Src, std::uint16_t Dst,
                         bool DstIsOutput, double RequestNl, double QuantNl,
                         int Depth, Hooks *H) {
  double Lc = Prog->Spec.LeastCountNl;

  // QuantNl is quantize(RequestNl), folded per run in reset() (MoveVol) or
  // -1.0 for move-everything (MoveAll).
  double Needed = QuantNl;
  if (Needed >= 0.0 && Needed < Lc - 1e-12) {
    // Below the hardware's metering resolution: nothing moves.
    if (RequestNl > 1e-12)
      ++SubLeastCountMoves;
    return;
  }

  // Shortage handling with reactive regeneration.
  double Want = Needed >= 0.0 ? Needed : Lc;
  if (SlotVol[Src] + 1e-9 < Want)
    ++UnderflowEvents;
  bool Attempted = false;
  for (int Retry = 0; SlotVol[Src] + 1e-9 < Want; ++Retry) {
    if (!Opts.EnableRegeneration)
      break;
    if (Retry >= Opts.MaxRegenRetries) {
      if (Attempted) {
        fail(Idx, format("regeneration exhausted after %d retries "
                         "(%s nl short of %s nl at %s)",
                         Opts.MaxRegenRetries,
                         formatTrimmed(Want - SlotVol[Src], 4).c_str(),
                         formatTrimmed(Want, 4).c_str(),
                         Prog->SrcText[Idx].c_str()));
        return;
      }
      break;
    }
    int W = WriterIdx[Src];
    if (W < 0)
      break;
    if (!regenerate(W, Depth, H))
      break;
    Attempted = true;
  }

  double Free = DstIsOutput ? 1e18 : Prog->Spec.MaxCapacityNl - SlotVol[Dst];
  double Amount = Needed >= 0.0 ? std::min(Needed, SlotVol[Src]) : SlotVol[Src];
  if (Amount > Free + 1e-9) {
    ++OverflowEvents;
    Amount = std::max(0.0, std::floor(Free / Lc) * Lc);
  }
  if (Amount <= 1e-12)
    return;
  if (DstIsOutput) {
    takeFrom(SlotVol, comp(Src), Src, NumFluids, Amount, TakenComp);
    DeliveredNl += Amount; // Delivered off-chip.
  } else {
    double Taken = takeFrom(SlotVol, comp(Src), Src, NumFluids, Amount,
                            TakenComp);
    addInto(Dst, Taken, TakenComp.data());
    WriterIdx[Dst] = Idx;
  }
  FluidSec += Opts.MoveSeconds;
}

void Interp::exec(int Idx, int Depth, Hooks *H) {
  if (!Tracing) {
    execImpl(Idx, Depth, H);
    return;
  }
  double VtStart = FluidSec;
  execImpl(Idx, Depth, H);
  obs::Tracer::global().complete(
      codegen::opcodeName(Prog->Code[Idx].Orig), "sim",
      static_cast<std::uint64_t>(VtStart * 1e6),
      static_cast<std::uint64_t>((FluidSec - VtStart) * 1e6),
      Opts.FleetChip >= 0 ? obs::PidFleet : obs::PidSimulated,
      static_cast<std::uint32_t>(Opts.FleetChip >= 0 ? Opts.FleetChip
                                                     : Depth));
}

void Interp::execImpl(int Idx, int Depth, Hooks *H) {
  if (!Error.empty())
    return;
  const Instr &I = Prog->Code[Idx];
  ++InstructionsExecuted;

  switch (I.Code) {
  case Op::Input: {
    // Top the reservoir up from the external port (unbounded supply).
    double Draw = quantize(Prog->Spec.MaxCapacityNl - SlotVol[I.Dst]);
    if (Draw > 0.0) {
      if (H)
        FluidSec += H->onInputDraw(I.Name, Draw, FluidSec);
      // D.add(Fluid::pure(Note, Draw)) with a dense row.
      double V = SlotVol[I.Dst];
      double Total = V + Draw;
      double *C = comp(I.Dst);
      for (int F = 0; F < NumFluids; ++F)
        if (C[F] != 0.0) // Zero entries scale to +0.0 bit-unchanged.
          C[F] = C[F] * V / Total;
      C[I.Name] += 1.0 * Draw / Total;
      SlotVol[I.Dst] = Total;
      InputDrawn[I.Name] += Draw;
      FluidSec += Opts.MoveSeconds;
    }
    WriterIdx[I.Dst] = Idx;
    return;
  }

  case Op::MoveVol:
    transferVol(Idx, I.Src, I.Dst, I.DstIsOutput, VolumeTable[I.VolIdx],
                QuantVolTable[I.VolIdx], Depth, H);
    return;

  case Op::MoveAll:
    transferVol(Idx, I.Src, I.Dst, I.DstIsOutput, -1.0, -1.0, Depth, H);
    return;

  case Op::Mix:
    if (SlotVol[I.Dst] <= 1e-12) {
      fail(Idx, "mix on an empty unit");
      return;
    }
    FluidSec += I.Seconds;
    WriterIdx[I.Dst] = Idx;
    return;

  case Op::Incubate:
    if (SlotVol[I.Dst] <= 1e-12) {
      fail(Idx, "incubate on an empty unit");
      return;
    }
    FluidSec += I.Seconds;
    WriterIdx[I.Dst] = Idx;
    return;

  case Op::Concentrate: {
    if (SlotVol[I.Dst] <= 1e-12) {
      fail(Idx, "concentrate on an empty unit");
      return;
    }
    // Solvent removal: the retained volume fraction is unknowable at
    // compile time; it comes from the seeded RNG (or the fixed yield).
    double Keep = separationYield();
    WasteNl += takeFrom(SlotVol, comp(I.Dst), I.Dst, NumFluids,
                        SlotVol[I.Dst] * (1.0 - Keep), TakenComp);
    FluidSec += I.Seconds;
    WriterIdx[I.Dst] = Idx;
    return;
  }

  case Op::Separate: {
    if (SlotVol[I.Dst] <= 1e-12) {
      fail(Idx, "separate on an empty unit");
      return;
    }
    double Yield = separationYield();
    double EffVol = takeFrom(SlotVol, comp(I.Dst), I.Dst, NumFluids,
                             SlotVol[I.Dst] * Yield, TakenComp);
    WasteNl += SlotVol[I.Dst]; // The rest leaves as waste.
    clearSlot(I.Dst);
    // The matrix and pusher are consumed by the separation.
    WasteNl += SlotVol[I.Matrix];
    clearSlot(I.Matrix);
    WasteNl += SlotVol[I.Pusher];
    clearSlot(I.Pusher);
    // at(Out) = Effluent: replacement, so the effluent's composition row
    // lands on out1 even at (numerically) zero volume.
    SlotVol[I.Out1] = EffVol;
    std::copy(TakenComp.begin(), TakenComp.end(), comp(I.Out1));
    WriterIdx[I.Out1] = Idx;
    FluidSec += I.Seconds;
    return;
  }

  case Op::Sense: {
    if (SlotVol[I.Dst] <= 1e-12) {
      fail(Idx, "sense on an empty unit");
      return;
    }
    SenseLog.emplace_back(I.Name, SlotVol[I.Dst]);
    SenseComp.insert(SenseComp.end(), comp(I.Dst), comp(I.Dst) + NumFluids);
    WasteNl += SlotVol[I.Dst];
    clearSlot(I.Dst); // Sensing consumes its sample.
    FluidSec += 1.0;
    return;
  }

  case Op::Output:
    WasteNl += SlotVol[I.Src];
    clearSlot(I.Src);
    FluidSec += Opts.MoveSeconds;
    return;
  }
}

bool Interp::run(int Begin, int End, Hooks *H) {
  AQUA_TRACE_SPAN("vm.run", "vm");
  int E = End < 0 ? Prog->numInstrs() : End;
  for (int I = Begin; I < E && Error.empty(); ++I)
    exec(I, /*Depth=*/0, H);
  return Error.empty();
}

SimResult Interp::finish() {
  SimResult R;
  R.Completed = Error.empty();
  R.Error = Error;
  R.Regenerations = Regenerations;
  R.UnderflowEvents = UnderflowEvents;
  R.OverflowEvents = OverflowEvents;
  R.SubLeastCountMoves = SubLeastCountMoves;
  R.InstructionsExecuted = InstructionsExecuted;
  R.FluidSeconds = FluidSec;
  R.DeliveredNl = DeliveredNl;
  R.WasteNl = WasteNl;

  double InputNl = 0.0;
  for (int F = 0; F < NumFluids; ++F) {
    if (InputDrawn[F] > 0.0)
      R.InputDrawnNl[Prog->FluidNames[F]] = InputDrawn[F];
    InputNl += InputDrawn[F];
  }

  R.Senses.reserve(SenseLog.size());
  for (std::size_t S = 0; S < SenseLog.size(); ++S) {
    SenseReading Rd;
    Rd.Name = Prog->SenseNames[SenseLog[S].first];
    Rd.VolumeNl = SenseLog[S].second;
    const double *Row = SenseComp.data() + S * NumFluids;
    for (int F = 0; F < NumFluids; ++F)
      if (Row[F] != 0.0)
        Rd.Composition[Prog->FluidNames[F]] = Row[F];
    R.Senses.push_back(std::move(Rd));
  }

  met().Runs.add();
  met().Instructions.add(static_cast<std::uint64_t>(InstructionsExecuted));
  met().Regenerations.add(static_cast<std::uint64_t>(Regenerations));
  met().Underflows.add(static_cast<std::uint64_t>(UnderflowEvents));
  met().Overflows.add(static_cast<std::uint64_t>(OverflowEvents));
  met().SubLeastCountMoves.add(static_cast<std::uint64_t>(SubLeastCountMoves));
  met().InputNl.add(InputNl);
  met().DeliveredNl.add(DeliveredNl);
  met().WasteNl.add(WasteNl);
  return R;
}

SimResult aqua::vm::run(const Program &P, const RunOptions &Opts) {
  Interp I;
  I.start(P, Opts);
  I.run();
  return I.finish();
}
