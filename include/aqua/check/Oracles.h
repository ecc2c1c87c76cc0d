//===- aqua/check/Oracles.h - Multi-oracle differential engine ---*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-testing oracle lattice: one generated program is pushed
/// through parse -> lower -> manage -> codegen -> simulate, and every pair
/// of layers that is defined on the same object is cross-checked:
///
///  * Frontend    -- generated source must parse and lower (the generator
///                   emits valid programs by construction);
///  * Graph       -- the lowered DAG passes AssayGraph::verify();
///  * Solvers     -- DAGSolve-feasible implies the Figure 3 LP is Optimal,
///                   the LP objective dominates DAGSolve's (it solves a
///                   relaxation), and on small graphs the IVol ILP optimum,
///                   scaled to nl, never exceeds the RVol LP optimum;
///  * Assignment  -- every feasible RVol assignment (DAGSolve, LP, and the
///                   manager's final answer) passes core/Verify's Figure 3
///                   constraint checker;
///  * Rounding    -- the IVol assignment conserves integer flow (non-excess
///                   uses never exceed the producer's units), keeps every
///                   edge at one least count and every node within
///                   capacity, and recomputes node units exactly from edge
///                   units (Rational arithmetic, no tolerance);
///  * Simulation  -- managed AIS runs to completion on the VM and every
///                   sensed composition equals the prediction computed in
///                   exact fraction arithmetic from the metered units: the
///                   rounded integer edge volumes of a managed run, or the
///                   least-count-rounded fill-to-capacity share of each
///                   input of a relative run;
///  * Metamorphic -- insertion-order permutation of the DAG and uniform mix
///                   ratio scaling leave the canonical fingerprint (and the
///                   canonical listing) bit-identical; binarize/cascade
///                   rewrites leave the exact sensed-composition prediction
///                   unchanged;
///  * Cache       -- the compile service returns the *same* artifact object
///                   for fingerprint-equal requests (memoization is sound);
///  * Engines     -- the dense tableau and bounded revised simplex agree on
///                   the RVol LP (status and optimum), and
///                   lp::solveInteger agrees with the depth-first
///                   referenceSolveInteger on small IVol ILPs;
///  * Presolve    -- presolve-on and presolve-off solves of the RVol LP
///                   agree on status and optimum (the reduction rules are
///                   pure reformulations), the postsolved solution
///                   satisfies the *original* constraints, and devex
///                   pricing agrees with Bland's rule (pivot order never
///                   changes the answer);
///  * Vm          -- the bytecode VM's SimResult is bit-for-bit equal to
///                   the tree-walking reference's (check/Reference.h)
///                   under the same seed:
///                   every volume, second, counter, sense reading, and
///                   error string (exact ==, no tolerance);
///  * Store       -- the artifact codec + persistent solve store round-trip
///                   is lossless: a second service instance on the same
///                   (in-memory) store directory serves the artifact from
///                   its L2, and the reloaded artifact's encoding, AIS
///                   program, and volume assignments are bit-identical to
///                   the in-memory solve's (exact ==, no tolerance);
///  * Cuts        -- the ILP search accelerators are pure: root cutting
///                   planes on vs off, pseudocost/reliability branching vs
///                   plain most-fractional, and restarts on vs off all
///                   reach the same verdict and optimum on the IVol ILP,
///                   and a shape-matched warm basis repair of the RVol LP
///                   under perturbed volumes agrees with the cold solve.
///
/// Exactness policy: structural and integer checks are exact. Checks that
/// compare doubles computed along different code paths (LP objectives, the
/// VM's composition doubles against the exact fraction prediction)
/// use a tolerance that only covers double conversion, not algorithmic
/// slack.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_CHECK_ORACLES_H
#define AQUA_CHECK_ORACLES_H

#include "aqua/check/Generator.h"
#include "aqua/codegen/Codegen.h"
#include "aqua/core/Manager.h"
#include "aqua/support/Error.h"

#include <string>
#include <string_view>
#include <vector>

namespace aqua::check {

/// The oracle families, individually selectable via CheckOptions::Oracles.
enum class Oracle : unsigned {
  Frontend = 0,
  Graph,
  Solvers,
  Assignment,
  Rounding,
  Simulation,
  Metamorphic,
  Cache,
  Engines,
  Presolve,
  Vm,
  Store,
  Cuts,
};
inline constexpr unsigned NumOracles = 13;

/// Short lower-case name, e.g. "solvers".
const char *oracleName(Oracle O);

/// Bit mask helpers for CheckOptions::Oracles.
inline constexpr unsigned oracleBit(Oracle O) {
  return 1u << static_cast<unsigned>(O);
}
inline constexpr unsigned AllOracles = (1u << NumOracles) - 1;

/// Parses a comma-separated oracle-name list ("solvers,rounding") into a
/// mask. Unknown names are an error.
Expected<unsigned> parseOracleFilter(std::string_view List);

/// One oracle violation.
struct Failure {
  Oracle O = Oracle::Frontend;
  std::string Message;
};

/// Engine configuration.
struct CheckOptions {
  core::MachineSpec Spec;
  core::ManagerOptions Manage;
  codegen::MachineLayout Layout;
  /// Enabled oracle families (oracleBit masks).
  unsigned Oracles = AllOracles;
  /// The IVol ILP is exponential in the worst case; graphs with more live
  /// edges than this skip the ILP cross-check.
  int MaxIlpEdges = 16;
  /// Branch-and-bound budget for the ILP cross-check.
  std::int64_t IlpMaxNodes = 20000;
  double IlpTimeLimitSec = 10.0;
  /// Fixed separation/concentration yield handed to the VM; the
  /// harness sets it to the generated program's shared yield fraction.
  double FixedYield = 0.5;
  /// Slack for comparing doubles computed along different code paths.
  double Tolerance = 1e-6;
};

/// What happened for one checked program (the Failures are the verdict;
/// the rest is telemetry for the harness summary).
struct CaseReport {
  bool FrontendOk = false;
  /// Went through volume management (no statically unknown volumes).
  bool Managed = false;
  bool Feasible = false;
  core::SolveMethod Method = core::SolveMethod::DagSolve;
  int Nodes = 0, Edges = 0;
  bool RanIlp = false;
  bool Simulated = false;
  /// The VM run was clean (no underflow/overflow/sub-least-count
  /// events), so the composition cross-check was exact.
  bool ExactComposition = false;
  std::vector<Failure> Failures;

  bool ok() const { return Failures.empty(); }
  /// One line per failure, prefixed with the oracle name.
  std::string str() const;
};

/// Runs every enabled oracle on \p Source.
CaseReport checkSource(std::string_view Source, const CheckOptions &Opts);

/// Runs checkSource on the rendered program plus the structure-aware
/// metamorphic checks (ratio scaling, cache cross-compilation) that need
/// the GenProgram skeleton. Overrides Opts.FixedYield with P's shared
/// yield so simulated separations reproduce the hinted fractions.
CaseReport checkProgram(const GenProgram &P, const CheckOptions &Opts);

} // namespace aqua::check

#endif // AQUA_CHECK_ORACLES_H
