//===- PipelineTest.cpp - The one compile pipeline ---------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/service/Pipeline.h"

#include "aqua/assays/PaperAssays.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace aqua;
using namespace aqua::service;

namespace {

constexpr double NaN = std::numeric_limits<double>::quiet_NaN();
constexpr double Inf = std::numeric_limits<double>::infinity();

/// compileGraph must refuse \p Spec before running anything, naming
/// \p Field, on both the managed and the relative path.
void expectSpecRejected(const core::MachineSpec &Spec, const char *Field) {
  for (const ir::AssayGraph &G :
       {assays::buildGlucoseAssay(), assays::buildGlycomicsAssay()}) {
    CompileArtifact A = compileGraph(G, Spec, {}, {});
    EXPECT_FALSE(A.Ok);
    EXPECT_FALSE(A.Managed);
    EXPECT_TRUE(A.Program.Instrs.empty());
    EXPECT_NE(A.Error.find("invalid machine spec"), std::string::npos)
        << A.Error;
    EXPECT_NE(A.Error.find(Field), std::string::npos) << A.Error;
  }
}

core::MachineSpec capacity(double Nl) {
  core::MachineSpec Spec;
  Spec.MaxCapacityNl = Nl;
  return Spec;
}

core::MachineSpec leastCount(double Nl) {
  core::MachineSpec Spec;
  Spec.LeastCountNl = Nl;
  return Spec;
}

} // namespace

TEST(Pipeline, RejectsNanCapacity) {
  expectSpecRejected(capacity(NaN), "MaxCapacityNl");
}
TEST(Pipeline, RejectsInfiniteCapacity) {
  expectSpecRejected(capacity(Inf), "MaxCapacityNl");
}
TEST(Pipeline, RejectsZeroCapacity) {
  expectSpecRejected(capacity(0.0), "MaxCapacityNl");
}
TEST(Pipeline, RejectsNegativeCapacity) {
  expectSpecRejected(capacity(-1.0), "MaxCapacityNl");
}
TEST(Pipeline, RejectsNanLeastCount) {
  expectSpecRejected(leastCount(NaN), "LeastCountNl");
}
TEST(Pipeline, RejectsInfiniteLeastCount) {
  expectSpecRejected(leastCount(Inf), "LeastCountNl");
}
TEST(Pipeline, RejectsZeroLeastCount) {
  expectSpecRejected(leastCount(0.0), "LeastCountNl");
}
TEST(Pipeline, RejectsNegativeLeastCount) {
  expectSpecRejected(leastCount(-1.0), "LeastCountNl");
}

TEST(Pipeline, StaticAssayIsManagedAndMetered) {
  CompileArtifact A =
      compileGraph(assays::buildGlucoseAssay(), core::MachineSpec{}, {}, {});
  ASSERT_TRUE(A.Ok) << A.Error;
  EXPECT_TRUE(A.Managed);
  EXPECT_TRUE(A.VM.Feasible);
  EXPECT_EQ(A.Metered.EdgeVolumeNl.size(), A.VM.Graph.numEdgeSlots());
  bool AnyAbsolute = false;
  for (const codegen::Instruction &I : A.Program.Instrs)
    AnyAbsolute |= I.Op == codegen::Opcode::MoveAbs;
  EXPECT_TRUE(AnyAbsolute) << "managed AIS carries metered volumes";
}

TEST(Pipeline, UnknownVolumeAssayGetsRelativeAIS) {
  ir::AssayGraph G = assays::buildGlycomicsAssay();
  codegen::MachineLayout Layout;
  CompileArtifact A = compileGraph(G, core::MachineSpec{}, {}, Layout);
  ASSERT_TRUE(A.Ok) << A.Error;
  EXPECT_FALSE(A.Managed);
  auto Relative = codegen::generateAIS(G, Layout);
  ASSERT_TRUE(Relative.ok());
  EXPECT_EQ(A.Program.str(), Relative->str());
}

TEST(Pipeline, InfeasibleAssayCarriesTheDecisionLog) {
  // 1:1999 with one use and no transforms allowed cannot be metered.
  ir::AssayGraph G;
  ir::NodeId A = G.addInput("A");
  ir::NodeId B = G.addInput("B");
  ir::NodeId M = G.addMix("M", {{A, 1}, {B, 1999}});
  G.addUnary(ir::NodeKind::Sense, "out", M);
  core::ManagerOptions Manage;
  Manage.AllowCascading = false;
  Manage.AllowReplication = false;
  CompileArtifact Art = compileGraph(G, core::MachineSpec{}, Manage, {});
  ASSERT_FALSE(Art.Ok);
  EXPECT_TRUE(Art.Managed);
  EXPECT_FALSE(Art.VM.Feasible);
  EXPECT_EQ(Art.Error, "no feasible volume assignment; decision log:\n" +
                           Art.VM.Log);
}

TEST(Pipeline, CodegenFailureIsReported) {
  codegen::MachineLayout Tiny;
  Tiny.Reservoirs = 6;
  CompileArtifact A =
      compileGraph(assays::buildEnzymeAssay(4), core::MachineSpec{}, {}, Tiny);
  EXPECT_FALSE(A.Ok);
  EXPECT_TRUE(A.Managed);
  EXPECT_TRUE(A.VM.Feasible) << A.VM.Log;
  EXPECT_NE(A.Error.find("reservoirs"), std::string::npos) << A.Error;
}
