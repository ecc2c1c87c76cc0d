//===- bench_service_throughput.cpp - Compile-service throughput ------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Throughput study of the concurrent compilation service on the workload
// shape of the paper's evaluation (many independent assay submissions,
// Table 2 / Figures 9-11): a batch of 200 requests cycling over 10
// distinct paper/library assays, swept over worker counts 1/2/4/8 with
// the memoizing solve cache off and on.
//
// With the cache on, only the 10 distinct structures are solved; the
// other 190 requests are fingerprint hits (95% hit rate), so throughput
// is bounded by hashing rather than by the LP/DAGSolve hierarchy.
// Acceptance targets printed at the end: >= 5x throughput for 4 threads +
// cache over 1 thread without cache, and >= 90% hit rate.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "aqua/assays/ExtraAssays.h"
#include "aqua/assays/PaperAssays.h"
#include "aqua/service/CompileService.h"

#include <memory>
#include <vector>

using namespace aqua;
using namespace benchutil;

namespace {

struct Workload {
  const char *Name;
  std::shared_ptr<const ir::AssayGraph> Graph;
};

std::vector<Workload> buildWorkloads() {
  auto Share = [](ir::AssayGraph G) {
    return std::make_shared<const ir::AssayGraph>(std::move(G));
  };
  return {
      {"glucose", Share(assays::buildGlucoseAssay())},
      {"figure2", Share(assays::buildFigure2Example())},
      {"enzyme3", Share(assays::buildEnzymeAssay(3))},
      {"enzyme4", Share(assays::buildEnzymeAssay(4))},
      {"enzyme5", Share(assays::buildEnzymeAssay(5))},
      {"bradford", Share(assays::buildBradfordProtein())},
      {"bradford4", Share(assays::buildBradfordProtein(4, 2))},
      {"pcr8", Share(assays::buildPcrMasterMix(8))},
      {"pcr12", Share(assays::buildPcrMasterMix(12))},
      {"mic8", Share(assays::buildMicPanel(8))},
  };
}

std::vector<service::CompileRequest>
buildBatch(const std::vector<Workload> &Workloads, int Requests) {
  std::vector<service::CompileRequest> Batch;
  Batch.reserve(Requests);
  for (int I = 0; I < Requests; ++I) {
    const Workload &W = Workloads[I % Workloads.size()];
    service::CompileRequest R;
    R.Name = W.Name;
    R.Graph = W.Graph;
    Batch.push_back(std::move(R));
  }
  return Batch;
}

struct RunResult {
  double WallSec = 0.0;
  double Throughput = 0.0;
  double HitRate = 0.0;
  double ReuseRate = 0.0; // (hits + single-flight joins) / requests
  std::uint64_t Joins = 0;
  std::size_t Failures = 0;
};

RunResult runConfig(const std::vector<Workload> &Workloads, int Requests,
                    int Threads, bool CacheOn) {
  service::ServiceOptions Options;
  Options.Threads = Threads;
  Options.EnableCache = CacheOn;
  service::CompileService Service(Options);
  WallTimer Wall;
  std::vector<service::CompileResponse> Responses =
      Service.compileBatch(buildBatch(Workloads, Requests));
  RunResult R;
  R.WallSec = Wall.seconds();
  R.Throughput = Requests / R.WallSec;
  for (const service::CompileResponse &Resp : Responses)
    if (!Resp.Ok)
      ++R.Failures;
  service::ServiceStats Stats = Service.stats();
  R.HitRate = Stats.Cache.hitRate();
  R.Joins = Stats.SingleFlightJoins;
  R.ReuseRate =
      static_cast<double>(Stats.CacheHits + Stats.SingleFlightJoins) / Requests;
  return R;
}

} // namespace

int main() {
  const int Requests = 200;
  std::vector<Workload> Workloads = buildWorkloads();
  JsonReporter Json("service_throughput");

  header("Compile-service throughput (200 requests over 10 assays)");
  std::printf("  %-8s %-6s %12s %14s %10s %8s\n", "threads", "cache", "wall",
              "throughput", "hit rate", "joins");

  double Baseline = 0.0;  // 1 thread, cache off.
  double NoCacheAt4 = 0.0; // 4 threads, cache off.
  double CachedAt1 = 0.0; // 1 thread, cache on.
  double CachedAt4 = 0.0; // 4 threads, cache on.
  double CachedAt8 = 0.0; // 8 threads, cache on.
  double ReuseAt4 = 0.0;
  std::size_t Failures = 0;
  for (bool CacheOn : {false, true}) {
    for (int Threads : {1, 2, 4, 8}) {
      MetricsDelta Delta; // Registry counters moved by this config's run.
      RunResult R = runConfig(Workloads, Requests, Threads, CacheOn);
      Failures += R.Failures;
      std::printf("  %-8d %-6s %12s %10.1f/s %9.1f%% %8llu\n", Threads,
                  CacheOn ? "on" : "off", fmtSeconds(R.WallSec).c_str(),
                  R.Throughput, R.HitRate * 100.0,
                  static_cast<unsigned long long>(R.Joins));
      std::string Name = "threads" + std::to_string(Threads) +
                         (CacheOn ? "_cache" : "_nocache");
      BenchRecord &Rec =
          Json.add(Name)
              .param("threads", std::to_string(Threads))
              .param("cache", CacheOn ? "on" : "off")
              .param("requests", std::to_string(Requests))
              .metric("wall_sec", R.WallSec)
              .metric("throughput_per_sec", R.Throughput)
              .metric("hit_rate", R.HitRate)
              .metric("reuse_rate", R.ReuseRate)
              .metric("failures", static_cast<double>(R.Failures));
      Delta.addTo(Rec);
      if (!CacheOn && Threads == 1)
        Baseline = R.Throughput;
      if (!CacheOn && Threads == 4)
        NoCacheAt4 = R.Throughput;
      if (CacheOn && Threads == 1)
        CachedAt1 = R.Throughput;
      if (CacheOn && Threads == 4) {
        CachedAt4 = R.Throughput;
        ReuseAt4 = R.ReuseRate;
      }
      if (CacheOn && Threads == 8)
        CachedAt8 = R.Throughput;
    }
  }

  double Speedup = Baseline > 0 ? CachedAt4 / Baseline : 0.0;
  std::printf("\n  speedup (4 threads + cache vs 1 thread no cache): "
              "%.1fx (target >= 5x): %s\n",
              Speedup, Speedup >= 5.0 ? "PASS" : "FAIL");
  // Hits and single-flight joins are both avoided solves; their split is
  // scheduling-dependent, the sum is deterministic (190 of 200 requests).
  std::printf("  cache reuse (hits + joins) at 4 threads: %.1f%% "
              "(target >= 90%%): %s\n",
              ReuseAt4 * 100.0, ReuseAt4 >= 0.90 ? "PASS" : "FAIL");
  // Worker scaling with the cache off is the pure queue/pipeline path:
  // adding workers must never *lose* throughput (the pre-idle-tracking
  // queue did, from cross-thread futex churn). A single hardware thread
  // caps the upside, so the gate is non-regression, not linear speedup.
  double Scaling = Baseline > 0 ? NoCacheAt4 / Baseline : 0.0;
  std::printf("  no-cache scaling 1 -> 4 threads: %.2fx "
              "(target >= 1.0x): %s\n",
              Scaling, Scaling >= 1.0 ? "PASS" : "FAIL");
  // Cache-on scaling is the batched hit path end to end (drain handle,
  // fair dequeue, shard-locked LRU L1). It stays flat if workers wake
  // once per response; the dedicated scaling *gate* (hardware-aware)
  // lives in bench_service_hitpath -- here the ratio is recorded for
  // trend diffs.
  double CacheScaling = CachedAt1 > 0 ? CachedAt8 / CachedAt1 : 0.0;
  std::printf("  cache-on scaling 1 -> 8 threads: %.2fx\n", CacheScaling);
  Json.add("summary")
      .metric("speedup_4t_cache_vs_1t", Speedup)
      .metric("nocache_scaling_1t_to_4t", Scaling)
      .metric("cache_scaling_1t_to_8t", CacheScaling)
      .metric("reuse_rate_4t", ReuseAt4)
      .metric("failures", static_cast<double>(Failures));
  if (Failures) {
    std::printf("  %zu requests failed\n", Failures);
    return 1;
  }
  if (Speedup >= 5.0 && ReuseAt4 >= 0.90 && Scaling >= 1.0)
    return 0;
  // Timing-dependent targets: a loaded CI runner can miss them without
  // anything being wrong with the code; perf-smoke disables the gate and
  // fails only on real failures (above).
  return noTimingGate() ? 0 : 1;
}
