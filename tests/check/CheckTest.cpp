//===- CheckTest.cpp - Differential-testing harness tests -------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Tier-1 coverage for aqua/check: generator determinism and validity, a
// fixed-seed corpus through the full oracle lattice (the CI acceptance
// gate runs the same corpus at 200 cases through the aquacheck driver),
// shrinker minimization on a synthetic failure, and the metamorphic
// fingerprint invariants.
//
//===----------------------------------------------------------------------===//

#include "aqua/check/Harness.h"
#include "aqua/ir/Canonical.h"
#include "aqua/lang/Lower.h"
#include "aqua/support/Json.h"

#include <gtest/gtest.h>

using namespace aqua;
using namespace aqua::check;

TEST(CheckGenerator, SameSeedRendersIdentically) {
  GenConfig Cfg;
  Cfg.Difficulty = 3;
  GenProgram A = generateProgram(0xC0FFEE, Cfg);
  GenProgram B = generateProgram(0xC0FFEE, Cfg);
  EXPECT_EQ(A.render(), B.render());
  EXPECT_EQ(A.YieldNum, B.YieldNum);
  EXPECT_EQ(A.YieldDen, B.YieldDen);

  GenProgram C = generateProgram(0xC0FFEF, Cfg);
  EXPECT_NE(A.render(), C.render());
}

TEST(CheckGenerator, GeneratedProgramsAlwaysCompile) {
  // Validity is the generator's contract: every difficulty, many seeds,
  // zero front-end rejections.
  for (int Difficulty = 1; Difficulty <= 5; ++Difficulty) {
    GenConfig Cfg;
    Cfg.Difficulty = Difficulty;
    for (std::uint64_t Seed = 1; Seed <= 25; ++Seed) {
      GenProgram P = generateProgram(Seed * 7919 + Difficulty, Cfg);
      auto R = lang::compileAssay(P.render());
      ASSERT_TRUE(R.ok()) << "difficulty " << Difficulty << " seed "
                          << Seed * 7919 + Difficulty << ": " << R.message()
                          << "\n"
                          << P.render();
    }
  }
}

TEST(CheckHarnessCorpus, FixedSeedCorpusPassesAllOracles) {
  HarnessOptions Opts;
  Opts.Seed = 20260806;
  Opts.Cases = 30;
  Opts.Gen.Difficulty = 2;
  Opts.ReproDir.clear(); // No files from the test suite.
  HarnessResult R = runHarness(Opts);
  EXPECT_TRUE(R.ok()) << R.summary();
  EXPECT_EQ(R.FrontendOk, 30);
  EXPECT_GT(R.Managed, 0);
  EXPECT_GT(R.Simulated, 0);
}

TEST(CheckHarnessCorpus, HarderCorpusPassesAllOracles) {
  HarnessOptions Opts;
  Opts.Seed = 20260806;
  Opts.Cases = 10;
  Opts.Gen.Difficulty = 4;
  Opts.ReproDir.clear();
  HarnessResult R = runHarness(Opts);
  EXPECT_TRUE(R.ok()) << R.summary();
}

TEST(CheckSimulation, RelativeRunPredictedFromMeteredParts) {
  // Shrunk from `aquacheck --seed 1 --cases 400 --difficulty 1` (case seed
  // 1161240587987436275). The unhinted concentration leaves a volume
  // unknown, so the assay runs as relative AIS: the mixer is filled to its
  // 100 nl capacity at 5:1 and each part is metered to the 0.1 nl least
  // count, 83.3 + 16.7 nl. The sense reads an F1 fraction of 0.833, and
  // the oracle must predict that from the metered units, not 5/6.
  GenProgram P;
  P.Name = "gen_1161240587987436275";
  P.Seed = 1161240587987436275ULL;
  P.YieldNum = 2;
  P.YieldDen = 5;
  GenStmt Mix;
  Mix.K = GenStmt::Kind::Mix;
  Mix.Operands = {"F1", "F3"};
  Mix.Ratios = {5, 1};
  Mix.Result = "p1";
  Mix.Seconds = 20;
  GenStmt Sense;
  Sense.K = GenStmt::Kind::Sense;
  Sense.Input = "p1";
  Sense.SenseArray = "R1";
  Sense.Fluorescence = true;
  GenStmt Conc;
  Conc.K = GenStmt::Kind::Concentrate;
  Conc.Input = "F3";
  Conc.TempC = 89;
  Conc.Seconds = 261;
  Conc.HasYield = false;
  P.Stmts = {Mix, Sense, Conc};
  std::string Source = P.render();
  ASSERT_NE(Source.find("p1 = MIX F1 AND F3 IN RATIOS 5 : 1 FOR 20;"),
            std::string::npos)
      << Source;
  ASSERT_NE(Source.find("CONCENTRATE F3 AT 89 FOR 261;"), std::string::npos)
      << Source;

  CaseReport R = checkProgram(P, CheckOptions{});
  EXPECT_TRUE(R.ok()) << R.str() << "\n" << Source;
  EXPECT_FALSE(R.Managed);
  EXPECT_TRUE(R.Simulated);
  EXPECT_TRUE(R.ExactComposition);

  // The unshrunk case passes every oracle too.
  GenConfig Cfg;
  Cfg.Difficulty = 1;
  GenProgram Full = generateProgram(1161240587987436275ULL, Cfg);
  CaseReport FullR = checkProgram(Full, CheckOptions{});
  EXPECT_TRUE(FullR.ok()) << FullR.str() << "\n" << Full.render();
}

TEST(CheckShrinker, MinimizesSyntheticFailure) {
  // A negative tolerance makes the solver-agreement oracle reject every
  // feasibly solved program, standing in for a real solver bug. The
  // shrinker must cut the program down while the same oracle family keeps
  // failing.
  GenConfig Cfg;
  Cfg.Difficulty = 3;
  CheckOptions Check;
  Check.Tolerance = -1.0;
  Check.Oracles = oracleBit(Oracle::Frontend) | oracleBit(Oracle::Graph) |
                  oracleBit(Oracle::Solvers);

  GenProgram P;
  CaseReport Original;
  bool Found = false;
  for (std::uint64_t Seed = 1; Seed <= 40 && !Found; ++Seed) {
    P = generateProgram(Seed * 1337, Cfg);
    if (P.numStatements() < 8)
      continue;
    Original = checkProgram(P, Check);
    Found = !Original.ok();
  }
  ASSERT_TRUE(Found) << "no corpus program tripped the synthetic bug";

  ShrinkResult S = shrink(P, Original, Check);
  EXPECT_TRUE(S.Shrunk);
  EXPECT_LT(S.Minimal.numStatements(), P.numStatements());
  EXPECT_LE(S.Minimal.numStatements(), 10);
  ASSERT_FALSE(S.Report.Failures.empty());
  EXPECT_EQ(S.Report.Failures.front().O, Original.Failures.front().O);
  // The minimal program must still be a valid assay.
  EXPECT_TRUE(lang::compileAssay(S.Minimal.render()).ok());
}

TEST(CheckHarness, JsonEscapesControlCharacters) {
  // A failure message or repro path may carry any byte; the summary must
  // stay valid JSON and read back the exact strings.
  HarnessResult R;
  R.Cases = R.Failures = 1;
  FailedCase F;
  F.CaseSeed = 7;
  F.ReproPath = "dir\\with \"quotes\"\n";
  F.Report.Failures.push_back(
      {Oracle::Solvers, std::string("tab\there, SOH \x01, CR \r end")});
  R.Failed.push_back(F);

  Expected<json::Value> Doc = json::parse(R.json());
  ASSERT_TRUE(Doc.ok()) << Doc.message() << "\n" << R.json();
  const json::Value &Failed = Doc->find("failed")->array().at(0);
  EXPECT_EQ(Failed.strOr("repro", ""), F.ReproPath);
  EXPECT_EQ(Failed.find("oracles")->array().at(0).strOr("message", ""),
            F.Report.Failures[0].Message);
}

TEST(CheckMetamorphic, RatioScalingPreservesFingerprint) {
  // 1:8 and 3:24 are the same mix; canonical fingerprints must agree.
  const char *Base = R"(ASSAY m START
fluid A, B, p1;
VAR R1[1];
p1 = MIX A AND B IN RATIOS 1 : 8 FOR 10;
SENSE OPTICAL p1 INTO R1[1];
END
)";
  const char *Scaled = R"(ASSAY m START
fluid A, B, p1;
VAR R1[1];
p1 = MIX A AND B IN RATIOS 3 : 24 FOR 10;
SENSE OPTICAL p1 INTO R1[1];
END
)";
  auto RB = lang::compileAssay(Base);
  auto RS = lang::compileAssay(Scaled);
  ASSERT_TRUE(RB.ok()) << RB.message();
  ASSERT_TRUE(RS.ok()) << RS.message();
  EXPECT_EQ(ir::fingerprintGraph(RB->Graph), ir::fingerprintGraph(RS->Graph));

  ir::CanonicalForm CB = ir::canonicalize(RB->Graph);
  ir::CanonicalForm CS = ir::canonicalize(RS->Graph);
  EXPECT_EQ(ir::buildCanonicalGraph(RB->Graph, CB).str(),
            ir::buildCanonicalGraph(RS->Graph, CS).str());
}

TEST(CheckMetamorphic, CorpusMetamorphicOraclesHold) {
  // The permutation/binarize/cascade invariants across a small corpus,
  // with only the metamorphic machinery enabled.
  CheckOptions Check;
  Check.Oracles = oracleBit(Oracle::Frontend) | oracleBit(Oracle::Graph) |
                  oracleBit(Oracle::Metamorphic);
  GenConfig Cfg;
  Cfg.Difficulty = 3;
  for (std::uint64_t Seed = 100; Seed < 112; ++Seed) {
    GenProgram P = generateProgram(Seed, Cfg);
    CaseReport R = checkProgram(P, Check);
    EXPECT_TRUE(R.ok()) << "seed " << Seed << "\n"
                        << R.str() << "\n"
                        << P.render();
  }
}
