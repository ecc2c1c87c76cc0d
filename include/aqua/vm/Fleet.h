//===- aqua/vm/Fleet.h - Many-chip fleet simulation --------------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fleet simulation: N chip instances of one partitioned assay running
/// under a shared virtual-time event queue. The BioStream execution model
/// makes chips cheap and numerous; the systems behavior the paper's
/// Section 3.5 hints at -- reservoir contention, regeneration storms,
/// online re-management -- only appears when many chips share virtual time.
///
/// The assay is compiled ONCE into a `FleetImage`: the partition plan plus
/// one bytecode segment template per partition. Each chip then runs the
/// wave-ordered segments on its own interpreter state with its own RNG
/// stream.
///
/// Every partition, on a chip or in the image compile, goes through one
/// Section 3.5 step: *availability* (constrained inputs from the measured
/// outputs of earlier partitions), *metering* (`dispensePartition`, the
/// projection onto the segment's subgraph, `roundToLeastCount`,
/// `integerToNl`) and *measurement* (a yield draw over an unknown-volume
/// node's dispensed input, or the dispensed volume of a known-volume cut
/// fluid). The image compile is that walk at a nominal yield, followed by
/// template code generation. A chip walks at its own yields and re-meters
/// the shared template by patching the VM's volume table: codegen's
/// EdgeOfInstr maps each managed move to the edge it meters, and
/// `codegen::residueShape` -- codegen's own record of its one
/// volume-dependent decision -- guards the patch. A chip whose shape
/// differs from the template's compiles the segment afresh.
///
/// `runChip` is the library's partitioned executor: one chip walks the
/// partitions in wave order, dispensing each from the measured outputs of
/// earlier ones.
///
/// When a measured (statically-unknown, Section 3.5) volume comes up so
/// short that run-time dispensing underflows the least count -- where the
/// plain executor would give up -- the fleet re-enters volume
/// management *online*: `core::manageVolumes` re-solves the partition's
/// subgraph with the constrained input pinned at the measured availability
/// (DagSolveOptions::PinnedNode), the re-managed volumes are patched into
/// the segment, and the VM resumes. If even the manager cannot find a
/// feasible assignment, the chip re-runs the producing partition (a
/// regeneration storm: fresh yield draw, fresh measurement) and retries.
///
/// Shared-reservoir contention models the fleet's common fluid supply:
/// each *external* input fluid has one refilling pool; a chip whose draw
/// finds the pool short stalls for the refill time. Contention charges
/// virtual seconds only -- per-chip volumes, regeneration counts and sense
/// readings are independent of thread count and of other chips.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_VM_FLEET_H
#define AQUA_VM_FLEET_H

#include "aqua/codegen/Codegen.h"
#include "aqua/core/Partition.h"
#include "aqua/support/Error.h"
#include "aqua/vm/Bytecode.h"
#include "aqua/vm/VM.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace aqua::vm {

/// Fleet run options.
struct FleetOptions {
  int NumChips = 1;
  /// Worker threads draining the virtual-time queue. Per-chip volumes and
  /// counts are thread-count-invariant; contention wait times (and hence
  /// the makespan) depend on the interleaving for Threads > 1.
  int Threads = 1;

  /// Master seed; per-chip streams are derived deterministically.
  std::uint64_t Seed = 0x5eed;
  double MinSeparationYield = 0.2;
  double MaxSeparationYield = 0.7;
  double FixedSeparationYield = -1.0;
  double MoveSeconds = 2.0;
  int MaxRegenRetries = 8;
  bool EnableRegeneration = true;

  /// Section 3.5 online re-management on dispensing underflow (off: the
  /// chip fails with a regeneration request, like the plain executor).
  bool EnableOnlineRemanage = true;
  /// Re-manage / producing-partition-rerun attempts per partition before
  /// the chip fails.
  int MaxOnlineRetries = 4;

  /// Shared-reservoir contention for external input fluids.
  bool SharedReservoirs = false;
  double ReservoirCapacityNl = 10000.0;
  double ReservoirRefillNlPerSec = 50.0;
};

/// One partition's compiled segment template, shared by all chips.
struct FleetSegment {
  /// The partition's standalone subgraph (constrained inputs become
  /// ordinary input nodes).
  ir::AssayGraph SubG;
  /// Subgraph id -> plan id, ascending (members in id order), so a plan id
  /// maps back by binary search.
  std::vector<ir::NodeId> ToPlanNode;
  std::vector<ir::EdgeId> ToPlanEdge;
  /// Subgraph ids of the members whose output feeds a constrained input,
  /// in the plan's member order (the order a chip measures them in).
  std::vector<ir::NodeId> Measured;

  /// Bytecode compiled from reference (nominal-yield) metered volumes.
  Program Prog;
  /// Per instruction: the subgraph edge its metered volume came from, or
  /// -1 (codegen EdgeOfInstr; 1:1 with Prog.Code).
  std::vector<ir::EdgeId> MeteredEdgeOfInstr;
  /// codegen::residueShape of the template's volumes; a chip whose metered
  /// volumes give another shape cannot patch and recompiles instead.
  std::vector<char> ResidueShape;
};

/// The shared compile-once image of a fleet run.
struct FleetImage {
  core::PartitionPlan Plan;
  core::MachineSpec Spec;
  /// Segments in wave order (one per plan partition).
  std::vector<FleetSegment> Segments;
  /// Names of the original assay's external input fluids (the ones a
  /// shared reservoir pool exists for; constrained-input stand-ins are
  /// on-chip and never contend).
  std::set<std::string> ExternalFluids;
};

/// One chip's outcome. With online re-management disabled and no
/// contention model attached, the first eight fields are bit-for-bit equal
/// to those of aqua/check's reference executor under the same seed.
struct ChipResult {
  bool Completed = false;
  std::string Error;
  int PartitionsExecuted = 0;
  double FluidSeconds = 0.0;
  int Regenerations = 0;
  std::vector<SenseReading> Senses;
  /// Measured output volume (nl) of every unknown-volume operation that
  /// feeds a later partition, keyed by the producing node's name.
  std::map<std::string, double> MeasuredNl;
  /// The dispensed volumes, indexed like the plan's graph.
  core::VolumeAssignment Volumes;

  std::uint64_t InstructionsExecuted = 0;
  double DeliveredNl = 0.0;
  double WasteNl = 0.0;
  /// Section 3.5 events on this chip.
  int OnlineRemanages = 0;
  int PartitionReruns = 0;
  /// Segments that could not patch the template and recompiled.
  int SegmentRecompiles = 0;
  /// Virtual seconds stalled on shared reservoirs.
  double ReservoirWaitSec = 0.0;
};

/// Aggregate fleet outcome.
struct FleetResult {
  int ChipsCompleted = 0;
  int ChipsFailed = 0;
  std::uint64_t InstructionsExecuted = 0;
  std::uint64_t Regenerations = 0;
  int OnlineRemanages = 0;
  int PartitionReruns = 0;
  int SegmentRecompiles = 0;
  /// Latest chip virtual finish time (fleet wet-clock makespan).
  double MakespanSec = 0.0;
  double TotalFluidSeconds = 0.0;
  double DeliveredNl = 0.0;
  double WasteNl = 0.0;
  double ReservoirWaitSec = 0.0;
  std::vector<ChipResult> Chips;
};

/// Builds the compile-once image: partition plan, per-partition subgraph
/// extraction, reference metering at the nominal yield, and bytecode
/// compilation. Fails when planning or code generation fails.
Expected<FleetImage> compileFleetImage(const ir::AssayGraph &G,
                                       const core::MachineSpec &Spec);

/// Runs one chip (no shared-reservoir contention). \p Seed is the chip's
/// seed: yield stream Seed ^ 0xa55a, partition P simulated with seed
/// Seed + 17 * P. \p Chip labels the trace row (PidFleet) when >= 0.
ChipResult runChip(const FleetImage &Image, const FleetOptions &Opts,
                   std::uint64_t Seed, int Chip = -1);

/// Runs the whole fleet under a shared virtual-time event queue.
FleetResult runFleet(const FleetImage &Image, const FleetOptions &Opts);

} // namespace aqua::vm

#endif // AQUA_VM_FLEET_H
