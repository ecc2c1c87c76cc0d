//===- GoldenAISTest.cpp - Golden-file AIS codegen tests --------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Locks the exact AIS listing for two Table 2 assays: the glucose assay
// through full volume management (metered move-abs volumes) and the enzyme
// kinetics assay in relative mode (part-ratio moves). Any codegen change
// that reorders instructions, renames units, or perturbs a metered volume
// shows up as a readable text diff. The checked-in paper sources
// (glucose.assay, enzyme.assay) are also run through lang::compileAssay and
// service::compileGraph -- the path aquac and aquad take -- against
// glucose.ais / enzyme.ais, which a ctest case also diffs aquac's stdout
// against.
//
// When a codegen change is INTENTIONAL, regenerate the goldens with the
// escape hatch and commit the result alongside the change:
//
//   AQUA_UPDATE_GOLDENS=1 ctest --test-dir build -R GoldenAIS
//
// (or run the aqua_codegen_test binary directly with the same variable).
// The goldens live in tests/codegen/goldens/, wired in via the
// AQUA_GOLDEN_DIR compile definition.
//
//===----------------------------------------------------------------------===//

#include "aqua/assays/PaperAssays.h"
#include "aqua/codegen/Codegen.h"
#include "aqua/core/Manager.h"
#include "aqua/core/Rounding.h"
#include "aqua/lang/Lower.h"
#include "aqua/service/Pipeline.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace aqua;
using namespace aqua::codegen;
using namespace aqua::core;
using namespace aqua::ir;

namespace {

std::string goldenPath(const std::string &Name) {
  return std::string(AQUA_GOLDEN_DIR) + "/" + Name;
}

std::string readGolden(const std::string &Name) {
  std::ifstream In(goldenPath(Name));
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Compiles the checked-in source \p AssayFile as aquac does by default:
/// lowering, then the one compile pipeline under the default spec, manager
/// options and layout.
std::string compileSource(const std::string &AssayFile) {
  auto Lowered = lang::compileAssay(readGolden(AssayFile));
  EXPECT_TRUE(Lowered.ok()) << Lowered.message();
  if (!Lowered.ok())
    return "";
  service::CompileArtifact A =
      service::compileGraph(Lowered->Graph, MachineSpec{}, {}, {});
  EXPECT_TRUE(A.Ok) << A.Error;
  return A.Program.str();
}

/// Compares \p Actual against the golden file, or rewrites the golden when
/// AQUA_UPDATE_GOLDENS is set in the environment.
void checkGolden(const std::string &Name, const std::string &Actual) {
  const std::string Path = goldenPath(Name);
  if (std::getenv("AQUA_UPDATE_GOLDENS")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out) << "cannot write golden " << Path;
    Out << Actual;
    GTEST_SKIP() << "golden " << Name << " updated";
  }
  ASSERT_TRUE(std::ifstream(Path))
      << "missing golden " << Path
      << " (run once with AQUA_UPDATE_GOLDENS=1 to create it)";
  EXPECT_EQ(readGolden(Name), Actual)
      << "AIS listing diverged from " << Path
      << "; if the codegen change is intentional, regenerate with "
         "AQUA_UPDATE_GOLDENS=1";
}

} // namespace

TEST(GoldenAIS, GlucoseManaged) {
  AssayGraph G = assays::buildGlucoseAssay();
  MachineSpec Spec;
  ManagerResult R = manageVolumes(G, Spec);
  ASSERT_TRUE(R.Feasible);
  VolumeAssignment Metered = integerToNl(R.Graph, R.Rounded, Spec);

  CodegenOptions Opts;
  Opts.Mode = VolumeMode::Managed;
  Opts.Volumes = &Metered;
  auto P = generateAIS(R.Graph, MachineLayout{}, Opts);
  ASSERT_TRUE(P.ok()) << P.message();
  checkGolden("glucose_managed.ais", P->str());
}

TEST(GoldenAIS, EnzymeRelative) {
  AssayGraph G = assays::buildEnzymeAssay(/*Dilutions=*/2);
  auto P = generateAIS(G);
  ASSERT_TRUE(P.ok()) << P.message();
  checkGolden("enzyme_relative.ais", P->str());
}

TEST(GoldenAIS, CheckedInSourcesAreThePaperSources) {
  EXPECT_EQ(readGolden("glucose.assay"), assays::glucoseSource());
  EXPECT_EQ(readGolden("enzyme.assay"), assays::enzymeSource());
}

TEST(GoldenAIS, GlucoseSourceThroughPipeline) {
  checkGolden("glucose.ais", compileSource("glucose.assay"));
}

TEST(GoldenAIS, EnzymeSourceThroughPipeline) {
  checkGolden("enzyme.ais", compileSource("enzyme.assay"));
}
