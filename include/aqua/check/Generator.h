//===- aqua/check/Generator.h - Random assay-program generator ---*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded, deterministic generator of *valid* assay-language programs for
/// the differential-testing harness (see Oracles.h). Unlike the frontend
/// fuzzer (tests/lang/FuzzTest.cpp), which throws token salad at the parser,
/// this generator emits programs that compile by construction and exercise
/// the whole pipeline: mixes with extreme ratios, incubations, senses,
/// separations (with and without yield hints), serial-dilution loops with
/// dry arithmetic, and `it`-chaining.
///
/// Programs are kept in a structured form (a statement skeleton plus a
/// renderer) rather than as flat text so the shrinker can delete statements
/// and operands and re-render a still-well-formed source file.
///
/// Every yield-hinted separation/concentration in one program shares a
/// single yield fraction. The simulator models yields with one global
/// `FixedSeparationYield` knob, so this is what makes a managed program's
/// simulated volumes exactly reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_CHECK_GENERATOR_H
#define AQUA_CHECK_GENERATOR_H

#include <cstdint>
#include <string>
#include <vector>

namespace aqua::check {

/// Generation knobs.
struct GenConfig {
  /// 1 (tiny, tame ratios) .. 5 (long programs, 1:999 ratios, deep reuse).
  int Difficulty = 2;
  /// Permit separations/concentrations without yield hints, which make the
  /// assay's volumes statically unknown (Section 3.5) and limit the oracle
  /// battery to the structural checks.
  bool AllowUnknownVolumes = true;
  /// Permit serial-dilution FOR loops with dry ratio arithmetic.
  bool AllowLoops = true;
};

/// One generated statement. A single tagged struct, mirroring lang::Stmt;
/// only the fields of the active kind are meaningful.
struct GenStmt {
  enum class Kind {
    Mix,        ///< Result = MIX Operands IN RATIOS Ratios FOR Seconds
    Incubate,   ///< INCUBATE Input AT TempC FOR Seconds
    Sense,      ///< SENSE flavor Input INTO SenseArray[1]
    Separate,   ///< SEPARATE Input MATRIX .. USING .. [YIELD] INTO eff AND w
    Concentrate,///< CONCENTRATE Input AT TempC FOR Seconds [YIELD]
    DilutionLoop///< enzyme-style FOR loop: mix 1:d, sense, d *= Factor
  };
  Kind K = Kind::Mix;

  // Mix.
  std::vector<std::string> Operands; ///< Fluid names; "it" allowed.
  std::vector<std::int64_t> Ratios;  ///< Parallel to Operands; all >= 1.
  std::string Result;                ///< Bound name; empty = result is `it`.
  std::int64_t Seconds = 10;

  // Incubate / Sense / Separate / Concentrate.
  std::string Input; ///< Fluid name or "it".
  std::int64_t TempC = 37;

  // Separate.
  bool LC = false;
  std::string MatrixName, PusherName, EffluentName, WasteName;
  /// Yield-hinted (statically-known volume); the fraction is the program's
  /// shared GenProgram::YieldNum/YieldDen.
  bool HasYield = true;

  // Sense.
  std::string SenseArray; ///< Result array name; scalar senses use [1].
  bool Fluorescence = false;

  // DilutionLoop: FOR LoopVar FROM 1 TO Trips START
  //   Result = MIX Operands[0] AND Operands[1] IN RATIOS 1 : DilVar FOR S;
  //   SENSE OPTICAL Result INTO SenseArray[LoopVar];
  //   DilVar = DilVar * Factor;
  // ENDFOR    (DilVar is seeded with DilBase before the loop.)
  std::string LoopVar, DilVar;
  std::int64_t Trips = 2, Factor = 10, DilBase = 1;
};

/// A generated program: the statement skeleton plus rendering metadata.
struct GenProgram {
  std::string Name;
  std::uint64_t Seed = 0;
  /// The shared yield fraction of every yield-hinted statement; feed
  /// YieldNum/YieldDen to the simulator as FixedSeparationYield.
  std::int64_t YieldNum = 1, YieldDen = 2;
  std::vector<GenStmt> Stmts;

  /// Renders complete assay-language source (declarations included).
  std::string render() const;

  /// The shared yield as a double, for vm::RunOptions.
  double fixedYield() const {
    return static_cast<double>(YieldNum) / static_cast<double>(YieldDen);
  }

  /// Wet statements counting loop bodies once (the shrinker's size metric).
  int numStatements() const { return static_cast<int>(Stmts.size()); }
};

/// Generates a valid program from \p Seed. Deterministic: equal seeds and
/// configs yield byte-identical sources.
GenProgram generateProgram(std::uint64_t Seed, const GenConfig &Config = {});

} // namespace aqua::check

#endif // AQUA_CHECK_GENERATOR_H
