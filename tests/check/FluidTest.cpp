//===- FluidTest.cpp - Reference fluid state tests ------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/check/Reference.h"

#include <gtest/gtest.h>

using namespace aqua::check;

TEST(Fluid, PureAndEmpty) {
  Fluid F = Fluid::pure("water", 10.0);
  EXPECT_FALSE(F.empty());
  EXPECT_DOUBLE_EQ(F.VolumeNl, 10.0);
  EXPECT_DOUBLE_EQ(F.fractionOf("water"), 1.0);
  EXPECT_DOUBLE_EQ(F.fractionOf("oil"), 0.0);
  EXPECT_TRUE(Fluid().empty());
}

TEST(Fluid, MixingWeighsComposition) {
  Fluid A = Fluid::pure("glucose", 10.0);
  Fluid B = Fluid::pure("reagent", 80.0);
  A.add(B);
  EXPECT_DOUBLE_EQ(A.VolumeNl, 90.0);
  EXPECT_NEAR(A.fractionOf("glucose"), 1.0 / 9.0, 1e-12);
  EXPECT_NEAR(A.fractionOf("reagent"), 8.0 / 9.0, 1e-12);
}

TEST(Fluid, TakePreservesComposition) {
  Fluid A = Fluid::pure("x", 30.0);
  A.add(Fluid::pure("y", 10.0));
  Fluid Part = A.take(8.0);
  EXPECT_DOUBLE_EQ(Part.VolumeNl, 8.0);
  EXPECT_NEAR(Part.fractionOf("x"), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(A.VolumeNl, 32.0);
  EXPECT_NEAR(A.fractionOf("x"), 0.75, 1e-12);
}

TEST(Fluid, TakeClampsAndEmpties) {
  Fluid A = Fluid::pure("x", 5.0);
  Fluid All = A.take(99.0);
  EXPECT_DOUBLE_EQ(All.VolumeNl, 5.0);
  EXPECT_TRUE(A.empty());
  EXPECT_TRUE(A.Composition.empty());
}

TEST(Fluid, RepeatedMixesSumToOne) {
  Fluid F;
  for (int I = 0; I < 10; ++I)
    F.add(Fluid::pure("f" + std::to_string(I), 1.0 + I));
  double Sum = 0.0;
  for (auto &[Name, Frac] : F.Composition)
    Sum += Frac;
  EXPECT_NEAR(Sum, 1.0, 1e-12);
}
