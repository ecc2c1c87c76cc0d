//===- aqua/core/MachineSpec.h - PLoC hardware parameters --------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hardware parameters volume management must respect: maximum capacity
/// of reservoirs and functional units, and the minimum transport resolution
/// ("least count") imposed by the metering pumps. Defaults follow Section
/// 4.2 of the paper: 100 nl capacity, 100 pl least count (PDMS valves).
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_CORE_MACHINESPEC_H
#define AQUA_CORE_MACHINESPEC_H

#include <cmath>
#include <cstdint>

namespace aqua::core {

/// Resource budget used when checking that cascading / static replication
/// still fits on the device (Section 3.4.2: "the replicated code may exceed
/// the PLoC's resources. In such cases, compilation fails.").
struct ResourceLimits {
  /// Input reservoirs available for replicated input fluids.
  int MaxInputs = 64;
  /// Total operations the device can stage (generous default).
  int MaxNodes = 1 << 20;
};

/// Hardware description of the target programmable lab-on-a-chip.
struct MachineSpec {
  /// Maximum capacity of any reservoir or functional unit, in nanoliters.
  double MaxCapacityNl = 100.0;
  /// Minimum transport resolution (least count), in nanoliters.
  double LeastCountNl = 0.1;
  ResourceLimits Limits;

  /// Number of whole least-count units that fit in the maximum capacity.
  /// Floored, so a rounded volume within it never exceeds MaxCapacityNl;
  /// the 1e-9 relative slack keeps whole multiples (1000 / 0.1) exact
  /// despite the quotient's float error.
  std::int64_t capacityUnits() const {
    return static_cast<std::int64_t>(
        std::floor(MaxCapacityNl / LeastCountNl * (1.0 + 1e-9)));
  }

  /// Converts nanoliters to (unrounded) least-count units.
  double toUnits(double Nl) const { return Nl / LeastCountNl; }
};

} // namespace aqua::core

#endif // AQUA_CORE_MACHINESPEC_H
