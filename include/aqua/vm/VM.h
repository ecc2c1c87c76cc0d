//===- aqua/vm/VM.h - Register-VM bytecode interpreter -----------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AquaCore PLoC simulator (Section 2.1): a tight dispatch-loop
/// interpreter for `vm::Program` bytecode and the library's only wet-path
/// engine. It models reservoirs, mixers, heaters, sensors and separators
/// connected by metered peristaltic transport with a least count, in both
/// volume regimes: *managed* programs carry metered `move-abs` volumes;
/// *relative* programs carry part counts, which the compiler plans by
/// filling the consuming unit to capacity at the requested ratio -- the
/// "no volume management" baseline of Table 2.
///
/// When a transfer finds its source depleted, the interpreter performs
/// BioStream-style reactive *regeneration*: it re-executes the backward
/// slice of the instructions that produced the depleted fluid and retries.
/// Each re-execution counts one regeneration event -- the paper's "Regen.
/// count" column. Separation yields and concentration factors come from a
/// seeded RNG or a fixed override.
///
/// aqua/check keeps a tree-walking reference of the same machine; the `vm`
/// differential oracle requires bit-for-bit equal SimResults (volumes,
/// waste, regeneration counts, RNG draws) on every generated program. The
/// interpreter is allocation-free on the hot path:
///
///  * all run state (slot volumes, dense composition rows, writer indices,
///    the patchable volume table, regeneration stash) lives in flat arrays
///    sized once in `bind()` and reused across runs;
///  * `SimResult`'s maps and strings are materialized once in `finish()`,
///    never touched by the dispatch loop;
///  * tracing is hoisted to one branch per run when disabled.
///
/// The interpreter is resumable: `reset()` + `run()` is one conventional
/// execution, while the fleet driver uses `bind()`/`reset()` per segment
/// and patches `volume()` entries between segments (Section 3.5 online
/// re-management). `Hooks` is the fleet's seam: input draws can be charged
/// contention wait time from a shared-reservoir model.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_VM_VM_H
#define AQUA_VM_VM_H

#include "aqua/support/Random.h"
#include "aqua/vm/Bytecode.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace aqua::vm {

/// One sensor reading.
struct SenseReading {
  std::string Name; ///< Result variable, e.g. "Result_3".
  double VolumeNl = 0.0;
  /// Input-fluid name -> fraction of the sensed volume.
  std::map<std::string, double> Composition;
};

/// Outcome of a simulation.
struct SimResult {
  bool Completed = false;
  std::string Error;

  /// Regeneration events (Table 2's "Regen. count").
  int Regenerations = 0;
  /// Transfers that found their source short of the requested volume.
  int UnderflowEvents = 0;
  /// Transfers clipped by the destination's capacity.
  int OverflowEvents = 0;
  /// Transfers whose quantized volume fell below the least count.
  int SubLeastCountMoves = 0;

  int InstructionsExecuted = 0;
  /// Total simulated wet-path time (operation + transfer seconds).
  double FluidSeconds = 0.0;
  /// Volume drawn from each input port, in nl.
  std::map<std::string, double> InputDrawnNl;
  /// Volume delivered off-chip through output ports, in nl.
  double DeliveredNl = 0.0;
  /// Volume discarded on-chip, in nl: separation residue plus consumed
  /// matrix/pusher fluids, solvent removed by concentration, sensed
  /// samples, and residue drained by `output`.
  double WasteNl = 0.0;

  std::vector<SenseReading> Senses;
};

/// Per-run options (what the bytecode has not already folded, plus fleet
/// trace routing).
struct RunOptions {
  /// Re-execute producing slices when a fluid runs out.
  bool EnableRegeneration = true;

  /// RNG seed for separation yields and concentration factors.
  std::uint64_t Seed = 0x5eed;
  double MinSeparationYield = 0.2;
  double MaxSeparationYield = 0.7;
  double FixedSeparationYield = -1.0;

  /// Wet-path timing: fixed seconds charged per fluid transfer.
  double MoveSeconds = 2.0;
  int MaxRegenRetries = 8;

  /// >= 0 routes virtual-time trace events to the fleet track
  /// (obs::PidFleet) with this chip id as the row; -1 uses the simulated
  /// track (obs::PidSimulated, regeneration-depth rows).
  int FleetChip = -1;
};

/// Fleet seam: out-of-band effects injected into a run. All methods are
/// called on the interpreting thread.
class Hooks {
public:
  virtual ~Hooks() = default;
  /// An input instruction is about to draw \p DrawNl of \p FluidId at
  /// virtual time \p VirtualSec. Returns extra wait seconds to charge
  /// (shared-reservoir contention); 0 for no stall.
  virtual double onInputDraw(int FluidId, double DrawNl, double VirtualSec) {
    (void)FluidId;
    (void)DrawNl;
    (void)VirtualSec;
    return 0.0;
  }
};

/// The interpreter. One instance per thread; rebindable across programs
/// (buffers grow monotonically, so a fleet worker cycling through segment
/// programs stops allocating after the first chip).
class Interp {
public:
  /// Prepares state buffers for \p P and copies its volume table. The
  /// program must outlive the binding.
  void bind(const Program &P);

  /// Clears run state (keeps the binding and any volume patches).
  void reset(const RunOptions &Opts);

  /// Rebinds (restoring the program's original volume table) and resets.
  void start(const Program &P, const RunOptions &Opts) {
    bind(P);
    reset(Opts);
  }

  /// Executes instructions [Begin, End) (End < 0: to the end). Returns
  /// false when the run recorded an error. May be called repeatedly to
  /// run a program in segments.
  bool run(int Begin = 0, int End = -1, Hooks *H = nullptr);

  /// Materializes the SimResult accumulated since reset(). The interp
  /// remains bound; reset() starts the next run.
  SimResult finish();

  /// The running (patchable) metered volume of \p VolIdx.
  double &volume(std::uint32_t VolIdx) { return VolumeTable[VolIdx]; }

  /// Virtual seconds elapsed so far in this run.
  double fluidSeconds() const { return FluidSec; }
  /// Error recorded so far ("" when clean).
  const std::string &error() const { return Error; }

private:
  void fail(int Idx, std::string Msg);
  double quantize(double VolNl) const;
  double separationYield();
  bool regenerate(int WriterIdx, int Depth, Hooks *H);
  void transferVol(int Idx, std::uint16_t Src, std::uint16_t Dst,
                   bool DstIsOutput, double RequestNl, double QuantNl,
                   int Depth, Hooks *H);
  void exec(int Idx, int Depth, Hooks *H);
  void execImpl(int Idx, int Depth, Hooks *H);

  // Dense fluid-state helpers (see VM.cpp for the exact equivalences with
  // the reference's fluid maps they preserve).
  double *comp(int Slot) { return CompRows.data() + Slot * NumFluids; }
  void clearSlot(int Slot);
  void addInto(int Slot, double AddVol, const double *AddComp);

  const Program *Prog = nullptr;
  RunOptions Opts;
  SplitMix64 Rng{0};
  bool Tracing = false;

  int NumSlots = 0;
  int NumFluids = 0;

  // ----- Per-run state (flat; sized by bind, cleared by reset).
  std::vector<double> SlotVol;
  std::vector<double> CompRows; ///< NumSlots x NumFluids fractions.
  std::vector<std::int32_t> WriterIdx;
  std::vector<double> VolumeTable;
  std::vector<double> QuantVolTable; ///< quantize(VolumeTable), per reset().
  std::vector<double> InputDrawn; ///< Per fluid id, nl.

  // Regeneration stash: parallel arrays reused across calls. Nested
  // regenerations stack their frames.
  std::vector<std::int32_t> StashSlot;
  std::vector<double> StashVol;
  std::vector<double> StashComp;

  // Sense recordings: (sense id, volume) plus a composition row each.
  std::vector<std::pair<std::uint16_t, double>> SenseLog;
  std::vector<double> SenseComp;

  // Scratch row for separator effluent.
  std::vector<double> TakenComp;

  // ----- Accumulators mirroring SimResult.
  std::string Error;
  int Regenerations = 0;
  int UnderflowEvents = 0;
  int OverflowEvents = 0;
  int SubLeastCountMoves = 0;
  int InstructionsExecuted = 0;
  double FluidSec = 0.0;
  double DeliveredNl = 0.0;
  double WasteNl = 0.0;
};

/// Convenience one-shot execution of \p P.
SimResult run(const Program &P, const RunOptions &Opts = {});

} // namespace aqua::vm

#endif // AQUA_VM_VM_H
