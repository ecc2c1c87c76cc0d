//===- bench_micro.cpp - google-benchmark micro timings ---------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Micro-benchmarks of AquaVol's building blocks, on google-benchmark:
// DAGSolve passes, formulation construction, the simplex, the frontend,
// code generation and simulation.
//
//===----------------------------------------------------------------------===//

#include "aqua/assays/PaperAssays.h"
#include "aqua/codegen/Codegen.h"
#include "aqua/core/DagSolve.h"
#include "aqua/core/Formulation.h"
#include "aqua/core/Partition.h"
#include "aqua/lang/Lower.h"
#include "aqua/vm/Compiler.h"
#include "aqua/vm/VM.h"

#include <benchmark/benchmark.h>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;

namespace {

void BM_DagSolve_Glucose(benchmark::State &State) {
  AssayGraph G = assays::buildGlucoseAssay();
  MachineSpec Spec;
  for (auto _ : State)
    benchmark::DoNotOptimize(dagSolve(G, Spec));
}
BENCHMARK(BM_DagSolve_Glucose);

void BM_DagSolve_EnzymeN(benchmark::State &State) {
  AssayGraph G = assays::buildEnzymeAssay(static_cast<int>(State.range(0)));
  MachineSpec Spec;
  for (auto _ : State)
    benchmark::DoNotOptimize(dagSolve(G, Spec));
  State.SetComplexityN(G.numNodes() + G.numEdges());
}
BENCHMARK(BM_DagSolve_EnzymeN)->Arg(2)->Arg(4)->Arg(6)->Arg(8)->Arg(10)
    ->Complexity(benchmark::oN);

void BM_VnormBackwardPass_Enzyme8(benchmark::State &State) {
  AssayGraph G = assays::buildEnzymeAssay(8);
  for (auto _ : State) {
    DagSolveResult R;
    computeVnorms(G, DagSolveOptions{}, R);
    benchmark::DoNotOptimize(R.MaxVnorm);
  }
}
BENCHMARK(BM_VnormBackwardPass_Enzyme8);

void BM_BuildVolumeModel_Enzyme4(benchmark::State &State) {
  AssayGraph G = assays::buildEnzymeAssay(4);
  MachineSpec Spec;
  for (auto _ : State)
    benchmark::DoNotOptimize(buildVolumeModel(G, Spec));
}
BENCHMARK(BM_BuildVolumeModel_Enzyme4);

void BM_SimplexSolve_Glucose(benchmark::State &State) {
  AssayGraph G = assays::buildGlucoseAssay();
  MachineSpec Spec;
  Formulation F = buildVolumeModel(G, Spec);
  for (auto _ : State)
    benchmark::DoNotOptimize(lp::solve(F.Model));
}
BENCHMARK(BM_SimplexSolve_Glucose);

void BM_SimplexSolve_Enzyme4(benchmark::State &State) {
  AssayGraph G = assays::buildEnzymeAssay(4);
  MachineSpec Spec;
  Formulation F = buildVolumeModel(G, Spec);
  for (auto _ : State)
    benchmark::DoNotOptimize(lp::solve(F.Model));
}
BENCHMARK(BM_SimplexSolve_Enzyme4);

void BM_Presolve_Enzyme4(benchmark::State &State) {
  AssayGraph G = assays::buildEnzymeAssay(4);
  Formulation F = buildVolumeModel(G, MachineSpec{});
  for (auto _ : State)
    benchmark::DoNotOptimize(lp::Presolved::run(F.Model));
}
BENCHMARK(BM_Presolve_Enzyme4);

void BM_Frontend_EnzymeSource(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(lang::compileAssay(assays::enzymeSource()));
}
BENCHMARK(BM_Frontend_EnzymeSource);

void BM_Codegen_Enzyme4(benchmark::State &State) {
  AssayGraph G = assays::buildEnzymeAssay(4);
  for (auto _ : State)
    benchmark::DoNotOptimize(codegen::generateAIS(G));
}
BENCHMARK(BM_Codegen_Enzyme4);

void BM_PartitionPlan_Glycomics(benchmark::State &State) {
  AssayGraph G = assays::buildGlycomicsAssay();
  MachineSpec Spec;
  for (auto _ : State)
    benchmark::DoNotOptimize(buildPartitionPlan(G, Spec));
}
BENCHMARK(BM_PartitionPlan_Glycomics);

void BM_Simulate_GlucoseNaive(benchmark::State &State) {
  AssayGraph G = assays::buildGlucoseAssay();
  auto P = codegen::generateAIS(G);
  vm::CompileOptions CO;
  CO.Graph = &G;
  auto BC = vm::compile(*P, CO).unwrap();
  for (auto _ : State)
    benchmark::DoNotOptimize(vm::run(BC));
}
BENCHMARK(BM_Simulate_GlucoseNaive);

void BM_Rational_Arithmetic(benchmark::State &State) {
  Rational A(999, 1000), B(16, 3), C(1, 204);
  for (auto _ : State) {
    Rational R = A * B + C / B - A;
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_Rational_Arithmetic);

} // namespace

BENCHMARK_MAIN();
