//===- AISParserTest.cpp - AIS text parser tests ---------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/codegen/AISParser.h"

#include "aqua/assays/PaperAssays.h"
#include "aqua/codegen/Codegen.h"
#include "aqua/core/DagSolve.h"
#include "aqua/vm/Compiler.h"
#include "aqua/vm/VM.h"

#include <gtest/gtest.h>

using namespace aqua;
using namespace aqua::codegen;

TEST(AISParser, ParseLoc) {
  EXPECT_EQ(parseLoc("s4"), (Loc{LocKind::Reservoir, 4, SubPort::None}));
  EXPECT_EQ(parseLoc("ip12"), (Loc{LocKind::InputPort, 12, SubPort::None}));
  EXPECT_EQ(parseLoc("op1"), (Loc{LocKind::OutputPort, 1, SubPort::None}));
  EXPECT_EQ(parseLoc("mixer2"), (Loc{LocKind::Mixer, 2, SubPort::None}));
  EXPECT_EQ(parseLoc("separator2.out1"),
            (Loc{LocKind::Separator, 2, SubPort::Out1}));
  EXPECT_EQ(parseLoc("separator1.matrix"),
            (Loc{LocKind::Separator, 1, SubPort::Matrix}));
  EXPECT_FALSE(parseLoc("bogus9").valid());
  EXPECT_FALSE(parseLoc("s").valid());
  EXPECT_FALSE(parseLoc("separator1.nope").valid());
}

TEST(AISParser, RoundTripsGeneratedPrograms) {
  for (int Which = 0; Which < 3; ++Which) {
    ir::AssayGraph G = Which == 0   ? assays::buildGlucoseAssay()
                       : Which == 1 ? assays::buildGlycomicsAssay()
                                    : assays::buildEnzymeAssay(3);
    auto P = generateAIS(G);
    ASSERT_TRUE(P.ok());
    auto Parsed = parseAIS(P->str());
    ASSERT_TRUE(Parsed.ok()) << Parsed.message();
    ASSERT_EQ(Parsed->Instrs.size(), P->Instrs.size());
    // Re-printing the parsed program reproduces the text exactly.
    EXPECT_EQ(Parsed->str(), P->str());
    EXPECT_EQ(Parsed->UsedReservoirs, P->UsedReservoirs);
    EXPECT_EQ(Parsed->UsedMixers, P->UsedMixers);
  }
}

TEST(AISParser, RoundTripsManagedPrograms) {
  ir::AssayGraph G = assays::buildGlucoseAssay();
  core::DagSolveResult R = core::dagSolve(G, core::MachineSpec{});
  CodegenOptions CG;
  CG.Mode = VolumeMode::Managed;
  CG.Volumes = &R.Volumes;
  auto P = generateAIS(G, {}, CG);
  ASSERT_TRUE(P.ok());
  auto Parsed = parseAIS(P->str());
  ASSERT_TRUE(Parsed.ok()) << Parsed.message();
  EXPECT_EQ(Parsed->str(), P->str());

  // A parsed managed program executes on the simulator (no regeneration:
  // parsed instructions carry no DAG provenance).
  auto BC = vm::compile(*Parsed, {});
  ASSERT_TRUE(BC.ok()) << BC.message();
  vm::RunOptions RO;
  RO.EnableRegeneration = false;
  vm::SimResult S = vm::run(*BC, RO);
  ASSERT_TRUE(S.Completed) << S.Error;
  EXPECT_EQ(S.Senses.size(), 5u);
  EXPECT_EQ(S.UnderflowEvents, 0);
}

TEST(AISParser, CommentsAndBlankLines) {
  auto P = parseAIS(R"(
; a full-line comment
input s1, ip1 ;Glucose

mix mixer1, 10
)");
  ASSERT_TRUE(P.ok()) << P.message();
  ASSERT_EQ(P->Instrs.size(), 2u);
  EXPECT_EQ(P->Instrs[0].Note, "Glucose");
  EXPECT_DOUBLE_EQ(P->Instrs[1].Seconds, 10.0);
}

TEST(AISParser, Diagnostics) {
  struct Case {
    const char *Text;
    const char *Needle;
  };
  Case Cases[] = {
      {"frobnicate s1", "unknown mnemonic"},
      {"input s1", "needs 2 operands"},
      {"move s1, bogus", "malformed source"},
      {"move bogus, s1", "malformed destination"},
      {"mix mixer1, abc", "duration"},
      {"move-abs mixer1, s1", "absolute volume"},
      {"incubate heater1, 37", "unit, temp, duration"},
  };
  for (const Case &C : Cases) {
    auto P = parseAIS(C.Text);
    ASSERT_FALSE(P.ok()) << C.Text;
    EXPECT_NE(P.message().find(C.Needle), std::string::npos)
        << C.Text << " -> " << P.message();
  }
}

TEST(AISParser, FuzzDoesNotCrash) {
  // Byte soup must produce errors, never crashes.
  const char *Soups[] = {
      ",,,,", "move", ";;;;", "input , ,", "mix mixer1,",
      "move-abs s1, s2, 1e309", "sense.OD", "output op1,op1,op1,op1",
      "separate.AF separator1, -5", "s1 s2 s3",
  };
  for (const char *Soup : Soups) {
    auto P = parseAIS(Soup);
    (void)P.ok();
  }
  SUCCEED();
}
