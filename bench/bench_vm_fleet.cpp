//===- bench_vm_fleet.cpp - Bytecode VM and fleet-simulation throughput ----------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measurements backing the aqua/vm subsystem's performance claim, plus an
// honest account of where it stands against the ROADMAP's aspirational
// >= 100x simulated-instructions/sec target:
//
//  1. Same-program engine race: the regeneration-heavy naive Enzyme assay
//     (the paper's Table 2 stress case) executed by aqua/check's
//     tree-walking reference vs the bytecode VM, identical SimResults
//     bit-for-bit. Measured ~4.5-6x: the baseline is already a compiled
//     C++ tree-walker at ~300-400 ns/instruction, and the VM's
//     bit-for-bit parity contract pins every double operation (the
//     composition-row divisions cannot be reassociated), putting a
//     ~25-50 ns/instruction floor on the dispatch loop. A 100x ratio
//     would need an interpreted-language-grade baseline (the viper
//     exemplar's MicroPython context); against this repo's simulator it
//     is not reachable without breaking result equivalence. The reference
//     records no metrics or trace events; the VM records vm.* metrics.
//
//  2. Fleet-context amortized race: what one chip of an N-chip fleet
//     costs end to end. The reference pipeline regenerates AIS per chip
//     (per-chip metered volumes force re-codegen) and re-simulates; the
//     VM compiles once, then patches its volume table and re-runs bound
//     state. Measured ~9x full / ~17x dispatch-only.
//
//  3. Fleet throughput: a 1000-chip Glycomics fleet under the shared
//     virtual-time queue with reservoir contention, reported as chips/sec
//     and aggregate simulated instructions/sec, with the vm.* metrics
//     snapshot folded into the record and the fleet Chrome trace written
//     next to the JSON artifact.
//
//  4. Fleet allocations: heap allocations per chip of a one-thread
//     Glycomics fleet, counted by the per-thread operator new of
//     AllocCounter.h. The §3.5 run-time path (dispense, round and re-meter
//     every partition) walks the assay graph per partition, so a walk
//     that allocates shows up here. The count repeats exactly for a
//     build; CI gates it at the committed record.
//
// Gates (exit 1): same-program speedup >= 3x and amortized speedup >= 5x
// -- robust floors that catch a real regression (e.g. the VM degrading to
// tree-walking costs) without failing on runner noise -- and every fleet
// chip must complete. AQUAVOL_BENCH_NO_TIMING_GATE=1 downgrades the
// timing gates to reports (CI perf-smoke sets it; the committed-JSON diff
// is the regression signal there).
//
//===----------------------------------------------------------------------===//

#include "AllocCounter.h"
#include "BenchUtil.h"

#include "aqua/assays/PaperAssays.h"
#include "aqua/check/Reference.h"
#include "aqua/codegen/Codegen.h"
#include "aqua/obs/Trace.h"
#include "aqua/vm/Compiler.h"
#include "aqua/vm/Fleet.h"
#include "aqua/vm/VM.h"

#include <cstdlib>
#include <thread>

using namespace aqua;
using namespace aqua::ir;
using namespace benchutil;

namespace {

/// Wall seconds per iteration over \p Iters runs of \p Fn (one warmup).
double perRunSeconds(const std::function<void()> &Fn, int Iters) {
  Fn();
  WallTimer T;
  for (int I = 0; I < Iters; ++I)
    Fn();
  return T.seconds() / Iters;
}

} // namespace

int main() {
  obs::preregisterPipelineMetrics();
  JsonReporter Json("vm_fleet");
  bool Ok = true;

  AssayGraph Enzyme = assays::buildEnzymeAssay(4);
  auto P = codegen::generateAIS(Enzyme);
  vm::CompileOptions CO;
  CO.Graph = &Enzyme;
  auto Prog = vm::compile(*P, CO);
  if (!Prog.ok()) {
    std::fprintf(stderr, "vm compile failed: %s\n", Prog.message().c_str());
    return 1;
  }
  vm::RunOptions RO;
  vm::Interp I;
  I.bind(*Prog);

  vm::SimResult Ref = check::referenceSimulate(*P, CO, RO);
  std::uint64_t Instrs = static_cast<std::uint64_t>(Ref.InstructionsExecuted);

  // ----- 1. Same-program race on the naive Enzyme assay. The
  // relative-volume program regenerates dozens of times per run, so one
  // run executes ~50% more instructions than the program lists.
  double SameSpeedup;
  {
    const int Iters = 50;
    double InterpSec =
        perRunSeconds([&] { check::referenceSimulate(*P, CO, RO); }, Iters);
    double VmSec = perRunSeconds(
        [&] {
          I.reset(RO);
          I.run();
          I.finish();
        },
        Iters * 10);

    double InterpIps = Instrs / InterpSec;
    double VmIps = Instrs / VmSec;
    SameSpeedup = InterpSec / VmSec;

    std::printf("Same program, naive Enzyme (%llu instructions/run, "
                "regeneration-heavy, %d regens):\n",
                static_cast<unsigned long long>(Instrs), Ref.Regenerations);
    std::printf("  %-26s %14s %16s\n", "engine", "sec/run", "instr/sec");
    std::printf("  %-26s %14s %16.3g\n", "check::referenceSimulate",
                fmtSeconds(InterpSec).c_str(), InterpIps);
    std::printf("  %-26s %14s %16.3g\n", "vm::Interp",
                fmtSeconds(VmSec).c_str(), VmIps);
    std::printf("  speedup: %.1fx (gate: >= 3x; ROADMAP aspiration: 100x, "
                "see header)\n",
                SameSpeedup);

    Json.add("enzyme_same_program")
        .param("assay", "Enzyme")
        .param("program", "naive")
        .metric("instructions_per_run", static_cast<double>(Instrs))
        .metric("interp_sec_per_run", InterpSec)
        .metric("vm_sec_per_run", VmSec)
        .metric("interp_instr_per_sec", InterpIps)
        .metric("vm_instr_per_sec", VmIps)
        .metric("speedup", SameSpeedup);
  }

  // ----- 2. Fleet-context amortized race: per-chip cost in an N-chip
  // fleet. The reference path re-runs codegen per chip (per-chip metered
  // volumes); the VM patches bound state and re-runs.
  double AmortSpeedup;
  {
    const int Chips = 200;
    std::uint64_t Seed = 0;
    vm::RunOptions BaseRO;
    double BaseSec = perRunSeconds(
        [&] {
          auto PerChip = codegen::generateAIS(Enzyme);
          BaseRO.Seed = 0x5eed + Seed++;
          check::referenceSimulate(*PerChip, CO, BaseRO);
        },
        Chips);
    Seed = 0;
    double VmSec = perRunSeconds(
        [&] {
          RO.Seed = 0x5eed + Seed++;
          I.reset(RO);
          I.run();
          I.finish();
        },
        Chips * 10);
    Seed = 0;
    double VmDispatchSec = perRunSeconds(
        [&] {
          RO.Seed = 0x5eed + Seed++;
          I.reset(RO);
          I.run();
        },
        Chips * 10);
    AmortSpeedup = BaseSec / VmSec;

    std::printf("\nFleet-context per-chip cost (codegen+simulate vs "
                "patch+run):\n");
    std::printf("  %-26s %14s\n", "codegen + reference",
                fmtSeconds(BaseSec).c_str());
    std::printf("  %-26s %14s  (%.1fx)\n", "vm patch+run+finish",
                fmtSeconds(VmSec).c_str(), AmortSpeedup);
    std::printf("  %-26s %14s  (%.1fx)\n", "vm dispatch only",
                fmtSeconds(VmDispatchSec).c_str(), BaseSec / VmDispatchSec);

    Json.add("enzyme_fleet_amortized")
        .param("assay", "Enzyme")
        .metric("baseline_sec_per_chip", BaseSec)
        .metric("vm_sec_per_chip", VmSec)
        .metric("vm_dispatch_sec_per_chip", VmDispatchSec)
        .metric("speedup", AmortSpeedup)
        .metric("dispatch_speedup", BaseSec / VmDispatchSec);
  }

  if (SameSpeedup < 3.0 || AmortSpeedup < 5.0) {
    std::printf("  ** speedup below gate (same >= 3x, amortized >= 5x)%s\n",
                noTimingGate()
                    ? " (reported only: AQUAVOL_BENCH_NO_TIMING_GATE=1)"
                    : "");
    if (!noTimingGate())
      Ok = false;
  }

  // ----- 3. 1000-chip Glycomics fleet with shared reservoirs.
  {
    AssayGraph G = assays::buildGlycomicsAssay();
    auto Image = vm::compileFleetImage(G, core::MachineSpec{});
    if (!Image.ok()) {
      std::fprintf(stderr, "fleet image failed: %s\n",
                   Image.message().c_str());
      return 1;
    }

    obs::Tracer::setEnabled(true);
    vm::FleetOptions FO;
    FO.NumChips = fullRun() ? 10000 : 1000;
    FO.Threads = std::max(2u, std::thread::hardware_concurrency());
    FO.SharedReservoirs = true;
    FO.ReservoirCapacityNl = 5000.0;
    FO.ReservoirRefillNlPerSec = 50.0;

    MetricsDelta Delta;
    vm::FleetResult FR;
    double Sec = onceSeconds([&] { FR = runFleet(*Image, FO); });
    obs::Tracer::setEnabled(false);

    double ChipsPerSec = FR.ChipsCompleted / Sec;
    double Ips = static_cast<double>(FR.InstructionsExecuted) / Sec;
    std::printf("\nFleet: %d-chip Glycomics, %d threads, shared "
                "reservoirs:\n",
                FO.NumChips, FO.Threads);
    std::printf("  completed %d, failed %d in %s wall "
                "(%.0f chips/s, %.3g instr/s)\n",
                FR.ChipsCompleted, FR.ChipsFailed, fmtSeconds(Sec).c_str(),
                ChipsPerSec, Ips);
    std::printf("  makespan %s virtual, reservoir wait %s, "
                "%d online re-manages, %d reruns\n",
                fmtSeconds(FR.MakespanSec).c_str(),
                fmtSeconds(FR.ReservoirWaitSec).c_str(), FR.OnlineRemanages,
                FR.PartitionReruns);

    BenchRecord &Rec = Json.add("glycomics_fleet");
    Rec.param("assay", "Glycomics")
        .metric("chips", FO.NumChips)
        .metric("threads", FO.Threads)
        .metric("chips_completed", FR.ChipsCompleted)
        .metric("chips_failed", FR.ChipsFailed)
        .metric("wall_sec", Sec)
        .metric("chips_per_sec", ChipsPerSec)
        .metric("instructions", static_cast<double>(FR.InstructionsExecuted))
        .metric("instr_per_sec", Ips)
        .metric("makespan_sec", FR.MakespanSec)
        .metric("reservoir_wait_sec", FR.ReservoirWaitSec)
        .metric("online_remanages", FR.OnlineRemanages);
    Delta.addTo(Rec, "m_");

    // The fleet track (obs::PidFleet rows) next to the JSON artifact.
    std::string Dir = ".";
    if (const char *Env = std::getenv("AQUAVOL_BENCH_JSON_DIR"))
      if (Env[0] != '\0')
        Dir = Env;
    obs::Tracer::global().writeChromeTrace(Dir + "/BENCH_vm_fleet_trace.json");

    if (FR.ChipsFailed != 0) {
      std::printf("  ** %d chips failed\n", FR.ChipsFailed);
      Ok = false;
    }

    // ----- 4. Allocations per chip: the same fleet on this thread alone,
    // untraced, so the counter sees every allocation and only those.
    vm::FleetOptions One = FO;
    One.NumChips = 200;
    One.Threads = 1;
    std::uint64_t AllocsBefore = ThreadAllocs;
    vm::FleetResult OneR = runFleet(*Image, One);
    double AllocsPerChip =
        static_cast<double>(ThreadAllocs - AllocsBefore) / One.NumChips;
    std::printf("  one thread, %d chips: %.1f heap allocations per chip\n",
                One.NumChips, AllocsPerChip);
    Json.add("glycomics_fleet_allocs")
        .param("assay", "Glycomics")
        .metric("chips", One.NumChips)
        .metric("chips_completed", OneR.ChipsCompleted)
        .metric("allocs_per_chip", AllocsPerChip);
    if (OneR.ChipsFailed != 0) {
      std::printf("  ** %d chips failed\n", OneR.ChipsFailed);
      Ok = false;
    }
  }

  Json.write();
  return Ok ? 0 : 1;
}
