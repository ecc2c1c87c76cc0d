//===- aqua/vm/Bytecode.h - Compiled AIS bytecode ----------------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compact register-based bytecode the `aqua/vm` interpreter executes.
///
/// The tree-walking reference in aqua/check re-derives everything per run:
/// operand locations resolve through string-free but map-backed `locKey`
/// lookups, relative move volumes are re-planned, and regeneration slices
/// are recomputed from the assay graph on every shortage. The bytecode
/// moves all of that to compile time:
///
///  * *resolved operands* -- every AIS `Loc` (reservoirs, functional units,
///    separator sub-ports, output ports) becomes a dense slot index into a
///    flat per-run state array, assigned in `locKey` order so run-time
///    iteration over slots reproduces the reference's `std::map` walks
///    bit for bit;
///  * *constant-folded volumes* -- relative part-count moves are planned
///    once (the fill-to-capacity policy of the no-management baseline) and
///    every metered volume lands in one patchable `VolumeTable`, which is
///    also how the fleet driver re-enters a program with re-managed
///    volumes (Section 3.5) without recompiling;
///  * *pre-bound regeneration slices* -- the backward slice of every
///    potential writer is resolved to a sorted instruction-index range in
///    one shared jump table, so a shortage dispatches straight into the
///    replay loop;
///  * *interned names* -- input fluids and sense results become small ids;
///    compositions are dense per-fluid fraction rows instead of
///    string-keyed maps.
///
/// One bytecode instruction corresponds 1:1 to one AIS instruction (same
/// index), which keeps the interpreter's accounting (instruction counts,
/// error positions, trace rows) directly comparable with the tree-walking
/// reference -- the `vm` differential oracle relies on this.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_VM_BYTECODE_H
#define AQUA_VM_BYTECODE_H

#include "aqua/codegen/AIS.h"
#include "aqua/core/MachineSpec.h"

#include <cstdint>
#include <string>
#include <vector>

namespace aqua::vm {

/// Interpreter opcodes. Mix/Incubate (and the separate/sense flavors)
/// behave identically at the volume level but stay distinct where the
/// reference's diagnostics distinguish them.
enum class Op : std::uint8_t {
  Input,       ///< Top up Dst from an unbounded external port.
  MoveVol,     ///< Metered transfer of VolumeTable[VolIdx] nl.
  MoveAll,     ///< Transfer everything at Src.
  Mix,         ///< Requires non-empty Dst; charges Seconds.
  Incubate,    ///< Same as Mix with its own diagnostic.
  Concentrate, ///< RNG-yield solvent removal on Dst.
  Separate,    ///< RNG-yield split Dst -> Out1; consumes matrix/pusher.
  Sense,       ///< Record a reading; consumes the sample.
  Output,      ///< Drain Src to on-chip waste.
};

/// Sentinel slot meaning "no operand".
inline constexpr std::uint16_t NoSlot = 0xffff;
/// Sentinel VolumeTable index meaning "no metered volume".
inline constexpr std::uint32_t NoVolume = 0xffffffffu;
/// Sentinel regeneration-slice offset meaning "no slice available".
inline constexpr std::int32_t NoSlice = -1;

/// One bytecode instruction (1:1 with the source AIS instruction).
struct Instr {
  Op Code = Op::MoveAll;
  /// The source AIS opcode, for trace names and diagnostics.
  codegen::Opcode Orig = codegen::Opcode::Move;
  std::uint16_t Dst = NoSlot;
  std::uint16_t Src = NoSlot;
  /// Separate only: effluent / matrix / pusher slots.
  std::uint16_t Out1 = NoSlot;
  std::uint16_t Matrix = NoSlot;
  std::uint16_t Pusher = NoSlot;
  /// Input: id into Program::FluidNames. Sense: id into Program::SenseNames.
  std::uint16_t Name = 0;
  /// MoveVol: index into the (per-run, patchable) volume table.
  std::uint32_t VolIdx = NoVolume;
  /// Offset/length of this instruction's regeneration replay slice in
  /// Program::RegenSlices; NoSlice when the producing slice is unknown.
  std::int32_t RegenBegin = NoSlice;
  std::int32_t RegenCount = 0;
  /// Operation seconds (mix/incubate/separate/concentrate).
  double Seconds = 0.0;
  /// True when Dst is an output port (delivery, unbounded capacity).
  bool DstIsOutput = false;
};

/// A compiled AIS program. Immutable after compilation and shareable
/// across threads and fleet chips; all mutable run state lives in the
/// interpreter (including each run's copy of VolumeTable).
struct Program {
  std::vector<Instr> Code;

  /// Initial metered volumes (nl); MoveVol instructions read the running
  /// copy, which the fleet driver patches at partition boundaries.
  std::vector<double> VolumeTable;

  /// Concatenated, sorted regeneration replay slices (instruction
  /// indices). `output` instructions stay in the slice and are skipped by
  /// the interpreter: the reference checks for errors before skipping
  /// them, and that ordering is observable in whether a failed replay
  /// restores stashed unit contents.
  std::vector<std::int32_t> RegenSlices;

  /// Interned input-fluid names, sorted; composition rows index by this.
  std::vector<std::string> FluidNames;
  /// Sense reading names, in program order of the sense instructions.
  std::vector<std::string> SenseNames;

  /// Number of state slots; slot order is ascending `locKey`, matching
  /// the reference's map iteration order.
  int NumSlots = 0;
  /// Per-slot: true for mixer/heater/sensor/separator slots (the ones
  /// regeneration stashes and restores).
  std::vector<std::uint8_t> SlotIsFunctionalUnit;

  /// Hardware parameters folded into the code (planned volumes and
  /// quantization use these).
  core::MachineSpec Spec;

  //===--------------------------------------------------------------------===//
  // Cold diagnostic tables (error paths only)
  //===--------------------------------------------------------------------===//

  /// Rendered AIS text per instruction, e.g. "move mixer1, s2, 40".
  std::vector<std::string> InstrText;
  /// Rendered source operand per instruction, e.g. "s2".
  std::vector<std::string> SrcText;

  int numInstrs() const { return static_cast<int>(Code.size()); }
  int numFluids() const { return static_cast<int>(FluidNames.size()); }
  int numSenses() const { return static_cast<int>(SenseNames.size()); }

  /// Rough compiled footprint in bytes (code + tables).
  std::size_t byteSize() const {
    return Code.size() * sizeof(Instr) + VolumeTable.size() * sizeof(double) +
           RegenSlices.size() * sizeof(std::int32_t);
  }
};

} // namespace aqua::vm

#endif // AQUA_VM_BYTECODE_H
