//===- SimulatorEdgeTest.cpp - Simulator edge cases ------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/codegen/AISParser.h"
#include "aqua/vm/Compiler.h"
#include "aqua/vm/VM.h"

#include <gtest/gtest.h>

using namespace aqua;
using namespace aqua::codegen;
using namespace aqua::vm;

namespace {

AISProgram parse(const char *Text) {
  auto P = parseAIS(Text);
  EXPECT_TRUE(P.ok()) << P.message();
  return *P;
}

/// Compiles \p P to bytecode and runs it.
SimResult simulate(const AISProgram &P, const RunOptions &RO,
                   const CompileOptions &CO = {}) {
  auto BC = compile(P, CO);
  EXPECT_TRUE(BC.ok()) << BC.message();
  return BC.ok() ? run(*BC, RO) : SimResult{};
}

} // namespace

TEST(SimulatorEdge, OverflowIsClippedAndCounted) {
  // Two full reservoirs into one 100 nl mixer: the second transfer clips.
  AISProgram P = parse(R"(
input s1, ip1 ;A
input s2, ip2 ;B
move-abs mixer1, s1, 80
move-abs mixer1, s2, 80
mix mixer1, 5
)");
  RunOptions RO;
  RO.EnableRegeneration = false;
  SimResult S = simulate(P, RO);
  ASSERT_TRUE(S.Completed) << S.Error;
  EXPECT_GE(S.OverflowEvents, 1);
}

TEST(SimulatorEdge, MixOnEmptyUnitFails) {
  AISProgram P = parse("mix mixer1, 5\n");
  RunOptions RO;
  RO.EnableRegeneration = false;
  SimResult S = simulate(P, RO);
  EXPECT_FALSE(S.Completed);
  EXPECT_NE(S.Error.find("empty"), std::string::npos);
}

TEST(SimulatorEdge, SenseOnEmptyUnitFails) {
  AISProgram P = parse("sense.OD sensor1, R\n");
  RunOptions RO;
  RO.EnableRegeneration = false;
  SimResult S = simulate(P, RO);
  EXPECT_FALSE(S.Completed);
}

TEST(SimulatorEdge, SeparationLeavesEffluentAtOutPort) {
  AISProgram P = parse(R"(
input s1, ip1 ;A
move separator1, s1
separate.AF separator1, 10
move mixer1, separator1.out1
)");
  RunOptions RO;
  RO.EnableRegeneration = false;
  RO.FixedSeparationYield = 0.25;
  SimResult S = simulate(P, RO);
  ASSERT_TRUE(S.Completed) << S.Error;
  // 100 nl in, 25 nl of effluent moved on; no underflow on the move-all.
  EXPECT_EQ(S.UnderflowEvents, 0);
}

TEST(SimulatorEdge, ConcentrateShrinksVolume) {
  AISProgram P = parse(R"(
input s1, ip1 ;A
move heater1, s1
concentrate heater1, 95, 60
sense.OD heater1, R
)");
  RunOptions RO;
  RO.EnableRegeneration = false;
  RO.FixedSeparationYield = 0.3;
  SimResult S = simulate(P, RO);
  ASSERT_TRUE(S.Completed) << S.Error;
  ASSERT_EQ(S.Senses.size(), 1u);
  EXPECT_NEAR(S.Senses[0].VolumeNl, 30.0, 1e-6); // 100 nl * 0.3.
}

TEST(SimulatorEdge, InputRefillTopsUpOnly) {
  // Re-running input on a half-full reservoir draws only the difference.
  AISProgram P = parse(R"(
input s1, ip1 ;A
move-abs mixer1, s1, 40
input s1, ip1 ;A
)");
  RunOptions RO;
  RO.EnableRegeneration = false;
  SimResult S = simulate(P, RO);
  ASSERT_TRUE(S.Completed);
  EXPECT_NEAR(S.InputDrawnNl.at("A"), 140.0, 1e-9); // 100 + 40 top-up.
}

TEST(SimulatorEdge, SubLeastCountRequestMovesNothing) {
  AISProgram P = parse(R"(
input s1, ip1 ;A
move-abs mixer1, s1, 0.04
)");
  RunOptions RO;
  RO.EnableRegeneration = false;
  SimResult S = simulate(P, RO);
  ASSERT_TRUE(S.Completed);
  EXPECT_EQ(S.SubLeastCountMoves, 1);
}

TEST(SimulatorEdge, RegenerationExhaustionFailsWithDiagnostic) {
  // A 120 nl draw from a 100 nl-capacity reservoir: every regeneration
  // tops the reservoir back up to capacity but can never cover the
  // request, so the retry budget runs out and the run must fail loudly
  // instead of moving a short volume downstream.
  AISProgram P = parse(R"(
input s1, ip1 ;A
move-abs mixer1, s1, 120
mix mixer1, 5
)");
  CompileOptions CO;
  CO.Spec.MaxCapacityNl = 100.0;
  RunOptions RO;
  RO.MaxRegenRetries = 3;
  SimResult S = simulate(P, RO, CO);
  EXPECT_FALSE(S.Completed);
  EXPECT_NE(S.Error.find("regeneration exhausted after 3 retries"),
            std::string::npos)
      << S.Error;
  // One regeneration per retry, none of them hidden or double-counted.
  EXPECT_EQ(S.Regenerations, 3);
  EXPECT_GE(S.UnderflowEvents, 1);
}

TEST(SimulatorEdge, ShortageWithoutWriterStaysSilent) {
  // No producer to regenerate from: the legacy partial-move behavior is
  // preserved (counted as underflow, no hard failure).
  AISProgram P = parse(R"(
move-abs mixer1, sensor1, 10
)");
  RunOptions RO;
  SimResult S = simulate(P, RO);
  EXPECT_TRUE(S.Completed) << S.Error;
  EXPECT_GE(S.UnderflowEvents, 1);
}
