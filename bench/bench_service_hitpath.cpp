//===- bench_service_hitpath.cpp - Zero-copy read-path throughput ---------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The read path under a microscope: what does a *hit* cost, and how does
// it scale? Four phases over the LP-bound volume sweep:
//
//  1. l1_scaling       -- one in-process service, cache pre-warmed, then
//                         1/2/4/8 client threads hammer compileNow on the
//                         warm keys. Every request must be an L1 hit (hard
//                         gate: zero misses) served by the seqlock read
//                         path with the front-end memo engaged. The
//                         timing gate asks for 8T/1T throughput scaling
//                         against a hardware-aware target (3x on >= 4
//                         cores; see DESIGN 12.5 for the re-basing rule) --
//                         a single-core box can only prove non-regression.
//  1b. source_hit      -- the shape aquad serves: the paper assays sent as
//                         source text under the same 16-capacity sweep, at
//                         1 and 4 threads. Hard gates: pure hits, and every
//                         request a front-end memo hit (no parse, lower or
//                         canonicalization). Records source_over_graph_p50,
//                         the same-run ratio of the source-hit p50 to the
//                         graph-hit p50 at one thread, which CI gates.
//  2. mp_warm_hitpath  -- the fleet shape: one process populates a shared
//                         persistent store, then 4 forked workers each
//                         re-serve the sweep for many rounds. Round one is
//                         L2 (mmap'd side-car index + zero-copy view +
//                         decode), every later round is L1. Hard gates:
//                         zero cold solves, exactly Workers*Slots L2
//                         promotions. Timing gate: sustained aggregate
//                         throughput >= 10,000 req/s (CI re-asserts this
//                         from the JSON record unconditionally).
//  3. l2_first_touch   -- a fresh service over the now-sealed store serves
//                         the sweep once from L2 only. Hard gates: zero
//                         cold solves and the reads actually went through
//                         mapped side-car indexes (IndexProbes >= Slots,
//                         IndexFallbackScans == 0).
//
// Latencies are recorded per request into log2-nanosecond histograms
// (merged across threads and, via the report pipe, across processes), so
// the JSON carries p50/p99 without any per-request allocation on the
// measured path. The in-process phases also keep every sample in a
// pre-sized buffer, so the source/graph ratio compares exact medians
// rather than power-of-two bucket midpoints.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "aqua/assays/ExtraAssays.h"
#include "aqua/assays/PaperAssays.h"
#include "aqua/ir/AssayGraph.h"
#include "aqua/obs/Metrics.h"
#include "aqua/service/CompileService.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace aqua;
using namespace benchutil;

namespace {

/// Same LP-bound structure as bench_service_mp: the skewed 1:24 mix next
/// to heavy 1:1 uses of A forces the Figure 3 LP, so the artifacts being
/// cached are real solves, not trivial ones.
std::shared_ptr<const ir::AssayGraph> buildLpBoundAssay(int Uses) {
  ir::AssayGraph G;
  ir::NodeId A = G.addInput("A");
  ir::NodeId B = G.addInput("B");
  ir::NodeId MixP = G.addMix("mixP", {{A, 1}, {B, 24}});
  G.addUnary(ir::NodeKind::Sense, "P", MixP);
  for (int I = 0; I < Uses; ++I) {
    ir::NodeId MixQ = G.addMix("mixQ" + std::to_string(I), {{A, 1}, {B, 1}});
    G.addUnary(ir::NodeKind::Sense, "Q" + std::to_string(I), MixQ);
  }
  return std::make_shared<const ir::AssayGraph>(std::move(G));
}

service::CompileRequest sweepRequest(
    const std::shared_ptr<const ir::AssayGraph> &Graph, int I) {
  service::CompileRequest R;
  R.Name = "sweep" + std::to_string(I);
  R.Graph = Graph;
  R.Spec.MaxCapacityNl = 100.0 - 0.5 * I;
  R.Manage.AllowCascading = false;
  R.Manage.AllowReplication = false;
  return R;
}

/// Log2-nanosecond latency histogram: bucket B holds [2^(B-1), 2^B) ns.
/// Fixed-size POD so worker processes can ship it through a pipe.
struct LatencyHist {
  std::uint64_t Buckets[64] = {};

  void add(std::uint64_t Ns) {
    unsigned B = Ns == 0 ? 0u : 64u - __builtin_clzll(Ns);
    Buckets[B > 63 ? 63 : B] += 1;
  }
  void merge(const LatencyHist &O) {
    for (int B = 0; B < 64; ++B)
      Buckets[B] += O.Buckets[B];
  }
  std::uint64_t total() const {
    std::uint64_t T = 0;
    for (std::uint64_t C : Buckets)
      T += C;
    return T;
  }
  /// Quantile in microseconds; buckets only bound the true value, so the
  /// estimate is the geometric-ish bucket midpoint.
  double quantileUs(double Q) const {
    std::uint64_t Total = total();
    if (Total == 0)
      return 0.0;
    std::uint64_t Rank = static_cast<std::uint64_t>(Q * (Total - 1));
    std::uint64_t Seen = 0;
    for (int B = 0; B < 64; ++B) {
      Seen += Buckets[B];
      if (Seen > Rank) {
        double Lo = B == 0 ? 0.0 : std::ldexp(1.0, B - 1);
        double Hi = std::ldexp(1.0, B);
        return (Lo + Hi) * 0.5 / 1e3;
      }
    }
    return 0.0;
  }
};

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The hardware-aware scaling target for l1_scaling (the DESIGN 12.5
/// re-basing rule): a box with >= 4 cores must show the ISSUE's 3x; with
/// 2-3 cores, 0.75x per core; a single core can only prove that 8 threads
/// are not slower than 1 (contention non-regression at 0.5x).
double scalingTarget(unsigned Hw) {
  if (Hw >= 4)
    return 3.0;
  if (Hw >= 2)
    return 0.75 * Hw;
  return 0.5;
}

/// One timed in-process run: \p Threads clients each send \p PerThread
/// requests, cycling through \p Requests from a per-thread offset.
struct HammerResult {
  double WallSec = 0.0;
  LatencyHist Hist;
  double ExactP50Us = 0.0;
  std::uint64_t Failures = 0;
  std::uint64_t Hits = 0, Misses = 0, MemoHits = 0, SeqlockRetries = 0;
};

HammerResult hammer(service::CompileService &Service,
                    const std::vector<service::CompileRequest> &Requests,
                    int Threads, int PerThread) {
  service::ServiceStats Before = Service.stats();
  std::atomic<bool> Go{false};
  std::atomic<std::uint64_t> Failures{0};
  std::vector<LatencyHist> Hists(Threads);
  std::vector<std::vector<std::uint64_t>> Samples(Threads);
  for (auto &S : Samples)
    S.reserve(PerThread);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire)) {
      }
      for (int I = 0; I < PerThread; ++I) {
        const service::CompileRequest &R = Requests[(T + I) % Requests.size()];
        std::uint64_t Start = nowNs();
        bool Ok = Service.compileNow(R).Ok;
        std::uint64_t Ns = nowNs() - Start;
        Hists[T].add(Ns);
        Samples[T].push_back(Ns);
        if (!Ok)
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  WallTimer Wall;
  Go.store(true, std::memory_order_release);
  for (std::thread &Th : Pool)
    Th.join();
  HammerResult Out;
  Out.WallSec = Wall.seconds();
  service::ServiceStats After = Service.stats();
  std::vector<std::uint64_t> All;
  for (int T = 0; T < Threads; ++T) {
    Out.Hist.merge(Hists[T]);
    All.insert(All.end(), Samples[T].begin(), Samples[T].end());
  }
  std::nth_element(All.begin(), All.begin() + All.size() / 2, All.end());
  Out.ExactP50Us = All.empty() ? 0.0 : All[All.size() / 2] / 1e3;
  Out.Failures = Failures.load();
  Out.Hits = After.CacheHits - Before.CacheHits;
  Out.Misses = After.Cache.Misses - Before.Cache.Misses;
  Out.MemoHits = After.CanonMemoHits - Before.CanonMemoHits;
  Out.SeqlockRetries = After.Cache.SeqlockRetries - Before.Cache.SeqlockRetries;
  return Out;
}

/// What a forked warm-path worker reports back through its pipe.
struct HitWorkerReport {
  std::uint64_t Requests = 0;
  std::uint64_t Failures = 0;
  std::uint64_t ColdSolves = 0;
  std::uint64_t L2Hits = 0;
  std::uint64_t L1Hits = 0;
  std::uint64_t SeqlockRetries = 0;
  std::uint64_t CanonMemoHits = 0;
  double WallSec = 0.0;
  LatencyHist Hist;
};

std::string makeTempDir() {
  char Template[] = "/tmp/aqua-bench-hitpath-XXXXXX";
  char *Dir = mkdtemp(Template);
  return Dir ? Dir : "bench-hitpath-store";
}

} // namespace

/// The hit-phase correctness gate: no failures, no misses, every request
/// a cache hit and a front-end memo hit. Prints what broke it.
bool pureHits(const HammerResult &H, std::uint64_t Total, const char *Phase,
              int Threads) {
  if (H.Failures == 0 && H.Misses == 0 && H.Hits == Total &&
      H.MemoHits == Total)
    return true;
  std::fprintf(stderr,
               "%s %dT not pure hit traffic: %llu misses, %llu/%llu hits, "
               "%llu memo hits, %llu failures\n",
               Phase, Threads, static_cast<unsigned long long>(H.Misses),
               static_cast<unsigned long long>(H.Hits),
               static_cast<unsigned long long>(Total),
               static_cast<unsigned long long>(H.MemoHits),
               static_cast<unsigned long long>(H.Failures));
  return false;
}

int main() {
  const int Slots = 16;
  const unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  auto Graph = buildLpBoundAssay(420);
  std::vector<service::CompileRequest> Requests;
  for (int I = 0; I < Slots; ++I)
    Requests.push_back(sweepRequest(Graph, I));

  JsonReporter Json("service_hitpath");
  header("Read-path throughput: L1 seqlock hits and the mmap'd L2 index");
  std::printf("  hardware_concurrency: %u\n", Hw);
  double GraphP50Us = 0.0;

  // ---- Phase 1: in-process L1 hit scaling, 1 -> 8 client threads.
  {
    service::ServiceOptions Options;
    Options.Threads = 1;
    service::CompileService Service(Options);
    for (const service::CompileRequest &R : Requests)
      if (!Service.compileNow(R).Ok) {
        std::fprintf(stderr, "warmup solve failed\n");
        return 1;
      }

    const int PerThread = 8000;
    double Rps1 = 0.0, Rps8 = 0.0;
    for (int Threads : {1, 2, 4, 8}) {
      MetricsDelta Delta;
      HammerResult H = hammer(Service, Requests, Threads, PerThread);
      std::uint64_t Total = static_cast<std::uint64_t>(Threads) * PerThread;
      double Rps = H.WallSec > 0 ? Total / H.WallSec : 0.0;
      if (Threads == 1) {
        Rps1 = Rps;
        GraphP50Us = H.ExactP50Us;
      }
      if (Threads == 8)
        Rps8 = Rps;
      std::printf("  l1 %dT: %8.0f req/s  p50 %6.1f us  p99 %6.1f us  "
                  "(%llu hits, %llu seqlock retries)\n",
                  Threads, Rps, H.Hist.quantileUs(0.50),
                  H.Hist.quantileUs(0.99),
                  static_cast<unsigned long long>(H.Hits),
                  static_cast<unsigned long long>(H.SeqlockRetries));
      BenchRecord &Rec = Json.add("l1_scaling");
      Rec.param("threads", std::to_string(Threads))
          .metric("requests", static_cast<double>(Total))
          .metric("wall_sec", H.WallSec)
          .metric("throughput_rps", Rps)
          .metric("p50_us", H.Hist.quantileUs(0.50))
          .metric("p99_us", H.Hist.quantileUs(0.99))
          .metric("exact_p50_us", H.ExactP50Us)
          .metric("hits", static_cast<double>(H.Hits))
          .metric("misses", static_cast<double>(H.Misses))
          .metric("canon_memo_hits", static_cast<double>(H.MemoHits))
          .metric("failures", static_cast<double>(H.Failures));
      Delta.addTo(Rec, "d_");
      // Hard gates (not timing): the hammer must be pure L1 hit traffic
      // with the front-end memo engaged -- otherwise this bench is
      // measuring solves, not the read path.
      if (!pureHits(H, Total, "l1", Threads))
        return 1;
    }

    double Scaling = Rps1 > 0 ? Rps8 / Rps1 : 0.0;
    double Target = scalingTarget(Hw);
    std::printf("  l1 scaling 1T -> 8T: %.2fx (target %.2fx on %u cores)\n",
                Scaling, Target, Hw);
    Json.add("l1_scaling_summary")
        .metric("hw_concurrency", static_cast<double>(Hw))
        .metric("throughput_rps_1t", Rps1)
        .metric("throughput_rps_8t", Rps8)
        .metric("scaling_1t_to_8t", Scaling)
        .metric("scaling_target", Target);
    if (!noTimingGate() && Scaling < Target) {
      std::fprintf(stderr, "l1 scaling %.2fx < %.2fx target\n", Scaling,
                   Target);
      return 1;
    }
  }

  // ---- Phase 1b: the same hits, sent as source text (what aquad sends).
  {
    std::vector<service::CompileRequest> Sources;
    const char *Texts[] = {assays::glucoseSource(), assays::glycomicsSource(),
                           assays::enzymeSource(), assays::bradfordSource()};
    for (int I = 0; I < Slots; ++I)
      for (const char *Text : Texts) {
        service::CompileRequest R;
        R.Name = "source" + std::to_string(I);
        R.Source = Text;
        R.Spec.MaxCapacityNl = 100.0 - 0.5 * I;
        Sources.push_back(std::move(R));
      }
    service::ServiceOptions Options;
    Options.Threads = 1;
    service::CompileService Service(Options);
    for (const service::CompileRequest &R : Sources) {
      service::CompileResponse W = Service.compileNow(R);
      if (!W.Ok) {
        std::fprintf(stderr, "source warmup failed for %s: %s\n",
                     R.Name.c_str(), W.Error.c_str());
        return 1;
      }
    }
    const int PerThread = 8000;
    double SourceP50Us = 0.0;
    for (int Threads : {1, 4}) {
      HammerResult H = hammer(Service, Sources, Threads, PerThread);
      std::uint64_t Total = static_cast<std::uint64_t>(Threads) * PerThread;
      double Rps = H.WallSec > 0 ? Total / H.WallSec : 0.0;
      if (Threads == 1)
        SourceP50Us = H.ExactP50Us;
      std::printf("  source %dT: %8.0f req/s  p50 %6.1f us  p99 %6.1f us  "
                  "(%llu hits, %llu memo hits)\n",
                  Threads, Rps, H.Hist.quantileUs(0.50),
                  H.Hist.quantileUs(0.99),
                  static_cast<unsigned long long>(H.Hits),
                  static_cast<unsigned long long>(H.MemoHits));
      Json.add("source_hit")
          .param("threads", std::to_string(Threads))
          .param("keys", std::to_string(Sources.size()))
          .metric("requests", static_cast<double>(Total))
          .metric("wall_sec", H.WallSec)
          .metric("throughput_rps", Rps)
          .metric("p50_us", H.Hist.quantileUs(0.50))
          .metric("p99_us", H.Hist.quantileUs(0.99))
          .metric("exact_p50_us", H.ExactP50Us)
          .metric("hits", static_cast<double>(H.Hits))
          .metric("misses", static_cast<double>(H.Misses))
          .metric("canon_memo_hits", static_cast<double>(H.MemoHits))
          .metric("failures", static_cast<double>(H.Failures));
      if (!pureHits(H, Total, "source", Threads))
        return 1;
    }
    // A same-run ratio, so it holds on a loaded runner; CI fails above 4.
    double Ratio = GraphP50Us > 0 ? SourceP50Us / GraphP50Us : 0.0;
    std::printf("  source/graph hit p50 (1T, exact): %.2f us / %.2f us = "
                "%.2fx\n",
                SourceP50Us, GraphP50Us, Ratio);
    Json.add("source_hit_summary")
        .metric("graph_p50_us_1t", GraphP50Us)
        .metric("source_p50_us_1t", SourceP50Us)
        .metric("source_over_graph_p50", Ratio);
  }

  // ---- Phase 2: forked workers re-serving a pre-populated shared store.
  const std::string StoreDir = makeTempDir();
  {
    // Populate: one process solves the sweep and writes through. Destroyed
    // before the fork so its writer segment seals (and gains a side-car
    // index) when the workers open the directory.
    {
      service::ServiceOptions Options;
      Options.Threads = 1;
      Options.StoreDir = StoreDir;
      service::CompileService Service(Options);
      for (const service::CompileRequest &R : Requests)
        if (!Service.compileNow(R).Ok) {
          std::fprintf(stderr, "populate solve failed\n");
          return 1;
        }
    }

    const int Workers = 4;
    const int Rounds = 500;
    std::vector<int> ReadFds;
    std::vector<pid_t> Pids;
    for (int W = 0; W < Workers; ++W) {
      int Fds[2];
      if (pipe(Fds) != 0) {
        std::perror("pipe");
        return 1;
      }
      pid_t Pid = fork();
      if (Pid < 0) {
        std::perror("fork");
        return 1;
      }
      if (Pid == 0) {
        close(Fds[0]);
        service::ServiceOptions Options;
        Options.Threads = 1;
        Options.StoreDir = StoreDir;
        HitWorkerReport Rep;
        {
          service::CompileService Service(Options);
          WallTimer Wall;
          for (int Round = 0; Round < Rounds; ++Round)
            for (int I = 0; I < Slots; ++I) {
              ++Rep.Requests;
              std::uint64_t Start = nowNs();
              bool Ok = Service.compileNow(Requests[I]).Ok;
              Rep.Hist.add(nowNs() - Start);
              if (!Ok)
                ++Rep.Failures;
            }
          Rep.WallSec = Wall.seconds();
          service::ServiceStats S = Service.stats();
          Rep.ColdSolves = S.Cache.Insertions - S.CacheHitsL2;
          Rep.L2Hits = S.CacheHitsL2;
          Rep.L1Hits = S.CacheHits - S.CacheHitsL2;
          Rep.SeqlockRetries = S.Cache.SeqlockRetries;
          Rep.CanonMemoHits = S.CanonMemoHits;
        }
        ssize_t N = write(Fds[1], &Rep, sizeof(Rep));
        close(Fds[1]);
        _exit(N == sizeof(Rep) ? 0 : 1);
      }
      close(Fds[1]);
      ReadFds.push_back(Fds[0]);
      Pids.push_back(Pid);
    }

    HitWorkerReport Sum;
    LatencyHist Merged;
    double MaxWall = 0.0;
    int Reported = 0;
    for (int W = 0; W < Workers; ++W) {
      HitWorkerReport Rep;
      ssize_t N = read(ReadFds[W], &Rep, sizeof(Rep));
      close(ReadFds[W]);
      int Status = 0;
      waitpid(Pids[W], &Status, 0);
      if (N != sizeof(Rep) || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
        continue;
      ++Reported;
      Sum.Requests += Rep.Requests;
      Sum.Failures += Rep.Failures;
      Sum.ColdSolves += Rep.ColdSolves;
      Sum.L2Hits += Rep.L2Hits;
      Sum.L1Hits += Rep.L1Hits;
      Sum.SeqlockRetries += Rep.SeqlockRetries;
      Sum.CanonMemoHits += Rep.CanonMemoHits;
      Merged.merge(Rep.Hist);
      MaxWall = std::max(MaxWall, Rep.WallSec);
    }
    if (Reported != Workers) {
      std::fprintf(stderr, "worker failure in mp_warm_hitpath\n");
      return 1;
    }
    // Sustained rate = total served work over the slowest worker's wall:
    // the honest aggregate when workers time-share cores.
    double Rps = MaxWall > 0 ? Sum.Requests / MaxWall : 0.0;
    const double GateRps = 10000.0;
    std::printf("  mp warm hitpath: %llu requests / %d procs, %8.0f req/s  "
                "p50 %6.1f us  p99 %6.1f us  (%llu L2 promotions, "
                "%llu cold)\n",
                static_cast<unsigned long long>(Sum.Requests), Workers, Rps,
                Merged.quantileUs(0.50), Merged.quantileUs(0.99),
                static_cast<unsigned long long>(Sum.L2Hits),
                static_cast<unsigned long long>(Sum.ColdSolves));
    Json.add("mp_warm_hitpath")
        .param("workers", std::to_string(Workers))
        .param("slots", std::to_string(Slots))
        .param("rounds", std::to_string(Rounds))
        .metric("requests", static_cast<double>(Sum.Requests))
        .metric("max_worker_wall_sec", MaxWall)
        .metric("throughput_rps", Rps)
        .metric("gate_rps", GateRps)
        .metric("p50_us", Merged.quantileUs(0.50))
        .metric("p99_us", Merged.quantileUs(0.99))
        .metric("l2_hits", static_cast<double>(Sum.L2Hits))
        .metric("l1_hits", static_cast<double>(Sum.L1Hits))
        .metric("cold_solves", static_cast<double>(Sum.ColdSolves))
        .metric("failures", static_cast<double>(Sum.Failures))
        .metric("seqlock_retries", static_cast<double>(Sum.SeqlockRetries))
        .metric("canon_memo_hits", static_cast<double>(Sum.CanonMemoHits));
    // Hard gates: warm means warm. Every worker's first pass promotes all
    // Slots keys from L2 (single process, sequential -- exactly one
    // promotion per key) and nothing is ever re-solved.
    if (Sum.Failures != 0 || Sum.ColdSolves != 0 ||
        Sum.L2Hits != static_cast<std::uint64_t>(Workers) * Slots) {
      std::fprintf(stderr,
                   "mp warm hitpath not loss-free: %llu cold, %llu L2 "
                   "(want %d), %llu failures\n",
                   static_cast<unsigned long long>(Sum.ColdSolves),
                   static_cast<unsigned long long>(Sum.L2Hits),
                   Workers * Slots,
                   static_cast<unsigned long long>(Sum.Failures));
      return 1;
    }
    // The ISSUE's throughput gate. CI perf-smoke re-asserts this number
    // from the JSON unconditionally; the in-binary check honours the
    // timing-gate escape like every other wall-clock assertion.
    if (!noTimingGate() && Rps < GateRps) {
      std::fprintf(stderr, "mp warm hitpath %.0f req/s < %.0f gate\n", Rps,
                   GateRps);
      return 1;
    }
  }

  // ---- Phase 3: L2 first touch through the side-car index.
  {
    service::ServiceOptions Options;
    Options.Threads = 1;
    Options.StoreDir = StoreDir;
    service::CompileService Service(Options);
    MetricsDelta Delta;
    LatencyHist Hist;
    std::uint64_t Failures = 0;
    WallTimer Wall;
    for (const service::CompileRequest &R : Requests) {
      std::uint64_t Start = nowNs();
      if (!Service.compileNow(R).Ok)
        ++Failures;
      Hist.add(nowNs() - Start);
    }
    double WallSec = Wall.seconds();
    service::ServiceStats S = Service.stats();
    std::uint64_t Cold = S.Cache.Insertions - S.CacheHitsL2;
    const store::SolveStore *Store = Service.store();
    store::StoreStats SS =
        Store ? Store->stats() : store::StoreStats{};
    std::printf("  l2 first touch: %d keys in %s  p50 %6.1f us  "
                "(%llu index probes, %llu index loads, %llu fallback "
                "scans)\n",
                Slots, fmtSeconds(WallSec).c_str(), Hist.quantileUs(0.50),
                static_cast<unsigned long long>(SS.IndexProbes),
                static_cast<unsigned long long>(SS.IndexLoads),
                static_cast<unsigned long long>(SS.IndexFallbackScans));
    BenchRecord &Rec = Json.add("l2_first_touch");
    Rec.param("slots", std::to_string(Slots))
        .metric("wall_sec", WallSec)
        .metric("p50_us", Hist.quantileUs(0.50))
        .metric("p99_us", Hist.quantileUs(0.99))
        .metric("l2_hits", static_cast<double>(S.CacheHitsL2))
        .metric("cold_solves", static_cast<double>(Cold))
        .metric("index_probes", static_cast<double>(SS.IndexProbes))
        .metric("index_loads", static_cast<double>(SS.IndexLoads))
        .metric("index_fallback_scans",
                static_cast<double>(SS.IndexFallbackScans));
    Delta.addTo(Rec, "d_");
    // Hard gates: the store must serve every key through a mapped side-car
    // index -- zero re-solves, zero fallback scans.
    if (Failures != 0 || Cold != 0 ||
        S.CacheHitsL2 != static_cast<std::uint64_t>(Slots) || !Store ||
        SS.IndexLoads < 1 ||
        SS.IndexProbes < static_cast<std::uint64_t>(Slots) ||
        SS.IndexFallbackScans != 0) {
      std::fprintf(stderr,
                   "l2 first touch did not go through the index: %llu cold, "
                   "%llu L2 hits, %llu probes, %llu loads, %llu scans\n",
                   static_cast<unsigned long long>(Cold),
                   static_cast<unsigned long long>(S.CacheHitsL2),
                   static_cast<unsigned long long>(SS.IndexProbes),
                   static_cast<unsigned long long>(SS.IndexLoads),
                   static_cast<unsigned long long>(SS.IndexFallbackScans));
      return 1;
    }
  }
  return 0;
}
