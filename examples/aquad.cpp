//===- aquad.cpp - The AquaVol assay-compilation service driver ------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// aquad: batch-compile a manifest of assays through the concurrent
// compilation service and report throughput, cache effectiveness, and
// latency percentiles.
//
//   aquad MANIFEST [--threads N] [--no-cache] [--max-entries N]
//                  [--capacity NL] [--least-count NL] [--simulate]
//                  [--fleet N] [--trace-out FILE] [--metrics-out FILE]
//                  [--store DIR] [--warm MANIFEST] [--workers N]
//                  [--deadline-ms N] [--queue-budget N]
//                  [--telemetry DIR] [--flight-out FILE]
//
// --max-entries N sets the in-memory cache's total entry budget (default
// 1280; 0 turns it off). Past ~100k entries, an eviction now and then
// rescans one shard (an eighth of N) under its lock, stalling hits on
// that shard for ~3 ms at 131k entries and ~30 ms at 1M (4-core x86-64).
// --store attaches a persistent solve store at DIR as the service's
// write-through L2: a restarted aquad re-serves prior solves from disk
// (zero LP cold solves on a warm store), and several aquad processes
// pointed at one DIR share each other's work.
// --warm pre-compiles the unique assays of MANIFEST (untimed) before the
// main run, priming the cache and the store.
// --workers N forks N worker processes that each run the whole manifest
// against the shared --store directory.
// --deadline-ms gives every request an absolute deadline N ms after
// submit; requests that expire while queued are shed, not compiled.
// --queue-budget bounds the service queue; normal-priority submits past
// the budget are shed at admission.
// --simulate runs each unique successful artifact once through the
// AquaCore simulator (regeneration on, fixed separation yield).
// --fleet N runs each unique assay as an N-chip aqua/vm fleet (shared
// virtual-time queue, shared reservoirs, Section 3.5 online
// re-management) on the service's worker-thread count.
// --trace-out enables span tracing and writes a Chrome trace-event JSON
// (chrome://tracing, Perfetto); --metrics-out dumps the metrics registry.
// --telemetry DIR starts the live snapshot writer: the metrics registry is
// serialized to DIR/metrics.snap-<pid>.json twice a second (atomic
// temp+rename), which is what `aquatop DIR` tails.
// --flight-out dumps the per-request flight recorder (the last 256
// request digests) as JSON at exit.
//
// Exporters flush on *every* exit route: SIGINT/SIGTERM are handled by a
// dedicated signal thread that writes the trace, metrics, flight record,
// and trace shard before exiting, so a Ctrl-C'd daemon still yields its
// observability artifacts.
//
// With AQUA_TRACE_DIR set, every aquad process (parent and --workers
// children) additionally writes a per-process trace shard there;
// `aquatrace merge` stitches them into one timeline. In --workers mode
// the parent emits a dispatch flow ('s') per (worker, slot) under
// deterministic trace ids that the children re-derive and close ('f'), so
// the merged trace draws request arcs crossing process boundaries.
//
// The manifest has one workload per line: a repeat count followed by an
// assay source path or a builtin name (`builtin:glucose`,
// `builtin:glycomics`, `builtin:enzyme`, `builtin:bradford`); `#` starts
// a comment. Example:
//
//   # plate after plate of the same panels
//   100 builtin:glucose
//   40  assays/my_panel.assay
//
//===----------------------------------------------------------------------===//

#include "aqua/assays/ExtraAssays.h"
#include "aqua/assays/PaperAssays.h"
#include "aqua/lang/Lower.h"
#include "aqua/obs/FlightRecorder.h"
#include "aqua/obs/Metrics.h"
#include "aqua/obs/Snapshot.h"
#include "aqua/obs/Timer.h"
#include "aqua/obs/Trace.h"
#include "aqua/service/CompileService.h"
#include "aqua/support/StringUtils.h"
#include "aqua/vm/Compiler.h"
#include "aqua/vm/Fleet.h"
#include "aqua/vm/VM.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <pthread.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace aqua;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s MANIFEST [--threads N] [--no-cache]"
               " [--max-entries N] [--capacity NL] [--least-count NL]"
               " [--simulate] [--fleet N] [--trace-out FILE]"
               " [--metrics-out FILE] [--store DIR] [--warm MANIFEST]"
               " [--workers N] [--deadline-ms N] [--queue-budget N]"
               " [--telemetry DIR] [--flight-out FILE]\n",
               Argv0);
  return 2;
}

/// Exporter destinations, captured once so every exit route (normal
/// return, SIGINT, SIGTERM) flushes the same set.
struct ShutdownOutputs {
  std::string TraceOut, MetricsOut, FlightOut, TelemetryDir;
};
ShutdownOutputs Outputs;
std::atomic<bool> Flushed{false};

/// Writes every configured exporter exactly once; later calls no-op.
/// Returns false when any write failed.
bool flushOutputsOnce() {
  if (Flushed.exchange(true))
    return true;
  bool Ok = true;
  if (!Outputs.TraceOut.empty())
    Ok = obs::Tracer::global().writeChromeTrace(Outputs.TraceOut) && Ok;
  if (!Outputs.MetricsOut.empty())
    Ok = obs::metrics().writeJsonFile(Outputs.MetricsOut) && Ok;
  if (!Outputs.FlightOut.empty())
    Ok = obs::FlightRecorder::global().writeJsonFile(Outputs.FlightOut) && Ok;
  if (!Outputs.TelemetryDir.empty())
    Ok = obs::writeMetricsSnapshot(Outputs.TelemetryDir, 0) && Ok;
  (void)obs::flushTraceShard();
  return Ok;
}

/// Signal-aware shutdown: SIGINT/SIGTERM are blocked in every thread (the
/// mask is installed before any thread exists and inherited by all) and
/// consumed by one dedicated sigwait thread, which flushes the exporters
/// and exits with the conventional 128+sig status. `_exit` skips atexit,
/// so the flush covers the trace shard explicitly.
void installSignalFlush() {
  static sigset_t SigSet;
  sigemptyset(&SigSet);
  sigaddset(&SigSet, SIGINT);
  sigaddset(&SigSet, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &SigSet, nullptr);
  std::thread([] {
    int Sig = 0;
    if (sigwait(&SigSet, &Sig) != 0)
      return;
    (void)flushOutputsOnce();
    _exit(128 + Sig);
  }).detach();
}

/// Flow arcs emitted per worker are capped: a manifest can hold tens of
/// thousands of repeats and the trace ring holds 64Ki events total.
constexpr std::size_t DispatchFlowCap = 1024;

/// Matches `--flag VALUE` and `--flag=VALUE`; returns the value or null.
const char *flagValue(const char *Flag, int &I, int Argc, char **Argv) {
  std::size_t N = std::strlen(Flag);
  if (std::strncmp(Argv[I], Flag, N))
    return nullptr;
  if (Argv[I][N] == '=')
    return Argv[I] + N + 1;
  if (Argv[I][N] == '\0' && I + 1 < Argc)
    return Argv[++I];
  return nullptr;
}

/// Resolves a manifest entry to assay source text.
bool resolveSource(const std::string &Spec, std::string &Source) {
  if (Spec == "builtin:glucose") {
    Source = assays::glucoseSource();
    return true;
  }
  if (Spec == "builtin:glycomics") {
    Source = assays::glycomicsSource();
    return true;
  }
  if (Spec == "builtin:enzyme") {
    Source = assays::enzymeSource();
    return true;
  }
  if (Spec == "builtin:bradford") {
    Source = assays::bradfordSource();
    return true;
  }
  std::ifstream File(Spec);
  if (!File)
    return false;
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  Source = Buffer.str();
  return true;
}

int parseInt(const char *Flag, const char *Text) {
  char *End = nullptr;
  long V = std::strtol(Text, &End, 10);
  if (End == Text || *End || V < 0) {
    std::fprintf(stderr, "aquad: %s expects a non-negative integer, got '%s'\n",
                 Flag, Text);
    std::exit(2);
  }
  return static_cast<int>(V);
}

double parseNl(const char *Flag, const char *Text) {
  char *End = nullptr;
  double V = std::strtod(Text, &End);
  if (End == Text || *End || !(std::isfinite(V) && V > 0)) {
    std::fprintf(stderr,
                 "aquad: %s expects a finite positive volume in nl, got '%s'\n",
                 Flag, Text);
    std::exit(2);
  }
  return V;
}

double percentile(std::vector<double> Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  std::size_t I = static_cast<std::size_t>(P * (Sorted.size() - 1) + 0.5);
  return Sorted[std::min(I, Sorted.size() - 1)];
}

/// Parses a manifest into one request per repeat. \p UniqueAssays, when
/// non-null, collects unique entries in first-appearance order.
bool loadManifest(const char *Path, const core::MachineSpec &Spec,
                  std::vector<service::CompileRequest> &Batch,
                  std::vector<std::pair<std::string, std::string>> *Unique) {
  std::ifstream Manifest(Path);
  if (!Manifest) {
    std::fprintf(stderr, "aquad: cannot open manifest '%s'\n", Path);
    return false;
  }
  std::set<std::string> SeenSpecs;
  std::string Line;
  int LineNo = 0;
  while (std::getline(Manifest, Line)) {
    ++LineNo;
    std::size_t First = Line.find_first_not_of(" \t");
    if (First == std::string::npos || Line[First] == '#')
      continue; // Blank or comment.
    std::istringstream In(Line);
    long Repeats = 0;
    std::string What;
    if (!(In >> Repeats >> What) || What.empty() || Repeats <= 0) {
      std::fprintf(stderr, "aquad: %s:%d: expected '<count> <assay>'\n", Path,
                   LineNo);
      return false;
    }
    std::string Source;
    if (!resolveSource(What, Source)) {
      std::fprintf(stderr, "aquad: %s:%d: cannot resolve '%s'\n", Path, LineNo,
                   What.c_str());
      return false;
    }
    if (SeenSpecs.insert(What).second && Unique)
      Unique->emplace_back(What, Source);
    for (long R = 0; R < Repeats; ++R) {
      service::CompileRequest Req;
      Req.Name = What;
      Req.Source = Source;
      Req.Spec = Spec;
      Batch.push_back(std::move(Req));
    }
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  const char *Path = nullptr;
  service::ServiceOptions Options;
  Options.Threads = 4;
  core::MachineSpec Spec;
  bool Simulate = false;
  int FleetChips = 0;
  int WorkerProcs = 0;
  int DeadlineMs = 0;
  std::string TraceOut, MetricsOut, WarmPath, TelemetryDir, FlightOut;

  for (int I = 1; I < argc; ++I) {
    const char *V;
    if (!std::strcmp(argv[I], "--threads") && I + 1 < argc)
      Options.Threads = parseInt("--threads", argv[++I]);
    else if (!std::strcmp(argv[I], "--no-cache"))
      Options.EnableCache = false;
    else if (!std::strcmp(argv[I], "--simulate"))
      Simulate = true;
    else if ((V = flagValue("--fleet", I, argc, argv)))
      FleetChips = parseInt("--fleet", V);
    else if (!std::strcmp(argv[I], "--max-entries") && I + 1 < argc)
      Options.Cache.MaxEntries =
          static_cast<std::size_t>(parseInt("--max-entries", argv[++I]));
    else if (!std::strcmp(argv[I], "--capacity") && I + 1 < argc)
      Spec.MaxCapacityNl = parseNl("--capacity", argv[++I]);
    else if (!std::strcmp(argv[I], "--least-count") && I + 1 < argc)
      Spec.LeastCountNl = parseNl("--least-count", argv[++I]);
    else if ((V = flagValue("--trace-out", I, argc, argv)))
      TraceOut = V;
    else if ((V = flagValue("--metrics-out", I, argc, argv)))
      MetricsOut = V;
    else if ((V = flagValue("--store", I, argc, argv)))
      Options.StoreDir = V;
    else if ((V = flagValue("--warm", I, argc, argv)))
      WarmPath = V;
    else if ((V = flagValue("--workers", I, argc, argv)))
      WorkerProcs = parseInt("--workers", V);
    else if ((V = flagValue("--deadline-ms", I, argc, argv)))
      DeadlineMs = parseInt("--deadline-ms", V);
    else if ((V = flagValue("--queue-budget", I, argc, argv)))
      Options.MaxQueueDepth =
          static_cast<std::size_t>(parseInt("--queue-budget", V));
    else if ((V = flagValue("--telemetry", I, argc, argv)))
      TelemetryDir = V;
    else if ((V = flagValue("--flight-out", I, argc, argv)))
      FlightOut = V;
    else if (argv[I][0] == '-')
      return usage(argv[0]);
    else
      Path = argv[I];
  }
  if (!Path)
    return usage(argv[0]);
  if (WorkerProcs > 0 && Options.StoreDir.empty()) {
    std::fprintf(stderr, "aquad: --workers requires --store\n");
    return 2;
  }

  // Exporter destinations are captured before the signal-flush thread
  // exists so every exit route sees them, and the tracer is enabled before
  // the fork so the parent's dispatch spans are recorded.
  Outputs.TraceOut = TraceOut;
  Outputs.MetricsOut = MetricsOut;
  Outputs.FlightOut = FlightOut;
  Outputs.TelemetryDir = TelemetryDir;
  if (!TraceOut.empty())
    obs::Tracer::setEnabled(true);
  if (!MetricsOut.empty() || !TelemetryDir.empty())
    obs::preregisterPipelineMetrics();

  // Shard tracing and the signal-flush thread come up before any other
  // thread (or fork) exists, so every process in the tree inherits the
  // blocked SIGINT/SIGTERM mask and the shard atexit registration.
  obs::initProcessTracing();
  installSignalFlush();

  // Multi-process mode: fork the workers *before* any threads exist; each
  // child runs the whole manifest as an independent aquad sharing the
  // store directory, and the parent just reaps them. The dispatch seed is
  // drawn pre-fork so parent and children derive identical per-(worker,
  // slot) trace ids without any IPC.
  int WorkerIndex = -1;
  std::uint64_t DispatchSeed = 0;
  if (WorkerProcs > 1) {
    DispatchSeed = obs::newTraceId();
    std::vector<pid_t> Children;
    for (int W = 0; W < WorkerProcs; ++W) {
      pid_t Pid = fork();
      if (Pid < 0) {
        std::perror("aquad: fork");
        return 1;
      }
      if (Pid == 0) {
        // Children fall through into single-process mode (and must not
        // reap the siblings they inherited in Children). The inherited
        // trace ring would duplicate the parent's pre-fork events into
        // this child's shard; drop it. The sigwait thread did not survive
        // the fork -- reinstall it.
        Children.clear();
        WorkerIndex = W;
        obs::Tracer::global().clear();
        installSignalFlush();
        // Worker telemetry travels via the shard dir and per-pid
        // snapshots; single-file exporters get a per-worker suffix so
        // siblings don't clobber one another, and the merged trace is the
        // parent's job.
        Outputs.TraceOut.clear();
        if (!Outputs.MetricsOut.empty())
          Outputs.MetricsOut += format(".worker%d", W);
        if (!Outputs.FlightOut.empty())
          Outputs.FlightOut += format(".worker%d", W);
        break;
      }
      Children.push_back(Pid);
    }
    if (!Children.empty()) {
      // Parent: emit one dispatch span + flow 's' per (worker, slot) --
      // each worker's slot I request will close the arc from its own
      // process, drawing "queued in parent, solved in worker" across pid
      // tracks once the shards are merged.
      if (obs::Tracer::enabled()) {
        std::vector<service::CompileRequest> Probe;
        std::size_t Slots = 0;
        if (loadManifest(Path, Spec, Probe, nullptr))
          Slots = std::min(Probe.size(), DispatchFlowCap);
        for (int W = 0; W < static_cast<int>(Children.size()); ++W) {
          for (std::size_t S = 0; S < Slots; ++S) {
            obs::SpanGuard Span("aquad.dispatch", "service");
            Span.arg("worker", W);
            Span.arg("slot", static_cast<std::uint64_t>(S));
            obs::traceFlowBegin("aquad.dispatch",
                                obs::dispatchFlowId(DispatchSeed, W, S));
          }
        }
      }
      int Failures = 0;
      for (pid_t Pid : Children) {
        int WStatus = 0;
        if (waitpid(Pid, &WStatus, 0) < 0 || !WIFEXITED(WStatus) ||
            WEXITSTATUS(WStatus) != 0)
          ++Failures;
      }
      std::printf("aquad: %d worker processes, %d failed, store %s\n",
                  static_cast<int>(Children.size()), Failures,
                  Options.StoreDir.c_str());
      bool FlushOk = flushOutputsOnce();
      return (Failures || !FlushOk) ? 1 : 0;
    }
  }

  std::vector<service::CompileRequest> Batch;
  /// Unique manifest entries in first-appearance order, for --fleet.
  std::vector<std::pair<std::string, std::string>> UniqueAssays;
  if (!loadManifest(Path, Spec, Batch, &UniqueAssays))
    return 1;
  if (Batch.empty()) {
    std::fprintf(stderr, "aquad: manifest is empty\n");
    return 1;
  }

  // --workers child: re-derive the parent's per-slot dispatch ids. The
  // request runs under obs::mixId(flow id) so its own submit/dequeue flow stays
  // distinct from the cross-process dispatch arc, which is closed here.
  if (WorkerIndex >= 0 && obs::Tracer::enabled()) {
    obs::SpanGuard Span("aquad.receive", "service");
    Span.arg("worker", WorkerIndex);
    for (std::size_t S = 0; S < Batch.size(); ++S) {
      std::uint64_t Flow = obs::dispatchFlowId(DispatchSeed, WorkerIndex, S);
      Batch[S].TraceId = obs::mixId(Flow) | 1;
      if (S < DispatchFlowCap)
        obs::traceFlowEnd("aquad.dispatch", Flow);
    }
  }

  std::size_t Submitted = Batch.size();
  service::CompileService Service(Options);

  // Live telemetry: twice-a-second atomic snapshots for `aquatop`.
  obs::SnapshotWriter Telemetry(TelemetryDir, 500);
  if (!TelemetryDir.empty())
    Telemetry.start();

  if (!WarmPath.empty()) {
    // Untimed warm-up: compile each unique warm-manifest assay once. On a
    // warm store these are L2 hits; on a cold one they seed it.
    std::vector<service::CompileRequest> WarmAll;
    std::vector<std::pair<std::string, std::string>> WarmUnique;
    if (!loadManifest(WarmPath.c_str(), Spec, WarmAll, &WarmUnique))
      return 1;
    std::vector<service::CompileRequest> Warm;
    for (const auto &[What, Source] : WarmUnique) {
      service::CompileRequest Req;
      Req.Name = What;
      Req.Source = Source;
      Req.Spec = Spec;
      Warm.push_back(std::move(Req));
    }
    service::ServiceStats Before = Service.stats();
    (void)Service.compileBatch(std::move(Warm));
    service::ServiceStats After = Service.stats();
    std::printf("aquad: warmed %zu assays from %s (%llu from store)\n",
                WarmUnique.size(), WarmPath.c_str(),
                static_cast<unsigned long long>(After.CacheHitsL2 -
                                                Before.CacheHitsL2));
  }

  if (DeadlineMs > 0) {
    std::uint64_t Deadline =
        obs::Tracer::nowMicros() + static_cast<std::uint64_t>(DeadlineMs) * 1000;
    for (service::CompileRequest &Req : Batch)
      Req.DeadlineMicros = Deadline;
  }

  WallTimer Wall;
  std::vector<service::CompileResponse> Responses =
      Service.compileBatch(std::move(Batch));
  double WallSec = Wall.seconds();

  std::size_t Failures = 0, Shed = 0;
  std::vector<double> Latencies;
  Latencies.reserve(Responses.size());
  for (const service::CompileResponse &R : Responses) {
    if (R.Shed != service::ShedReason::None) {
      // Shed by admission control, not a compile failure: the service
      // chose to reject it to protect latency. Report, don't fail.
      ++Shed;
      continue;
    }
    Latencies.push_back(R.LatencySec);
    if (!R.Ok) {
      if (Failures < 5)
        std::fprintf(stderr, "aquad: %s: %s\n", R.Name.c_str(),
                     R.Error.c_str());
      ++Failures;
    }
  }
  std::sort(Latencies.begin(), Latencies.end());

  service::ServiceStats Stats = Service.stats();
  std::printf("aquad: %zu requests, %zu failed, %zu shed, %d threads, "
              "cache %s, store %s\n",
              Submitted, Failures, Shed, std::max(1, Options.Threads),
              Options.EnableCache ? "on" : "off",
              Service.store() ? Options.StoreDir.c_str() : "off");
  std::printf("  wall time     %.3f s\n", WallSec);
  std::printf("  throughput    %.1f assays/s\n",
              WallSec > 0 ? Submitted / WallSec : 0.0);
  std::printf("  cache         %.1f%% hit rate, %llu joins, %llu evictions\n",
              Stats.Cache.hitRate() * 100.0,
              static_cast<unsigned long long>(Stats.SingleFlightJoins),
              static_cast<unsigned long long>(Stats.Cache.Evictions));
  std::printf("  latency       p50 %.3f ms, p95 %.3f ms\n",
              percentile(Latencies, 0.50) * 1e3,
              percentile(Latencies, 0.95) * 1e3);
  std::printf("  %s\n", Stats.str().c_str());

  if (Simulate) {
    // One wet run per *unique* artifact: repeats share the artifact (that
    // is the point of the cache), so simulating each fingerprint once
    // reports the workload's distinct wet-path behaviours.
    std::set<std::string> Seen;
    std::size_t SimRuns = 0, SimFailures = 0;
    int Regens = 0;
    double WetSec = 0.0, DeliveredNl = 0.0, WasteNl = 0.0;
    for (const service::CompileResponse &R : Responses) {
      if (!R.Ok || !R.Artifact || !Seen.insert(R.Key.str()).second)
        continue;
      vm::CompileOptions CO;
      CO.Spec = Spec;
      if (R.Artifact->Managed)
        CO.Graph = &R.Artifact->VM.Graph;
      vm::RunOptions RO;
      RO.FixedSeparationYield = 0.5;
      auto BC = vm::compile(R.Artifact->Program, CO);
      vm::SimResult Sim;
      if (BC.ok())
        Sim = vm::run(*BC, RO);
      else
        Sim.Error = BC.message();
      ++SimRuns;
      if (!Sim.Completed) {
        if (SimFailures < 5)
          std::fprintf(stderr, "aquad: simulate %s: %s\n", R.Name.c_str(),
                       Sim.Error.c_str());
        ++SimFailures;
      }
      Regens += Sim.Regenerations;
      WetSec += Sim.FluidSeconds;
      DeliveredNl += Sim.DeliveredNl;
      WasteNl += Sim.WasteNl;
    }
    std::printf("  simulate      %zu unique artifacts (%zu failed), "
                "%d regenerations, %.1f s wet time, %.1f nl delivered, "
                "%.1f nl waste\n",
                SimRuns, SimFailures, Regens, WetSec, DeliveredNl, WasteNl);
    Failures += SimFailures;
  }

  if (FleetChips > 0) {
    // One fleet per unique manifest assay: compile the fleet image once
    // (partition plan + per-partition bytecode templates), then run N
    // chip instances under the shared virtual-time queue with shared
    // reservoirs and Section 3.5 online re-management enabled.
    vm::FleetOptions FO;
    FO.NumChips = FleetChips;
    FO.Threads = std::max(1, Options.Threads);
    FO.SharedReservoirs = true;
    std::printf("  fleet         %d chips x %zu assays, %d threads\n",
                FleetChips, UniqueAssays.size(), FO.Threads);
    for (const auto &[What, Source] : UniqueAssays) {
      auto Lowered = lang::compileAssay(Source);
      if (!Lowered.ok()) {
        std::fprintf(stderr, "aquad: fleet %s: %s\n", What.c_str(),
                     Lowered.message().c_str());
        ++Failures;
        continue;
      }
      auto Image = vm::compileFleetImage(Lowered->Graph, Spec);
      if (!Image.ok()) {
        std::fprintf(stderr, "aquad: fleet %s: %s\n", What.c_str(),
                     Image.message().c_str());
        ++Failures;
        continue;
      }
      vm::FleetResult FR = vm::runFleet(*Image, FO);
      std::printf("    %-20s %d/%d chips, makespan %.1f s, "
                  "%llu instrs, %llu regens, %d re-manages, %d reruns\n",
                  What.c_str(), FR.ChipsCompleted, FO.NumChips, FR.MakespanSec,
                  static_cast<unsigned long long>(FR.InstructionsExecuted),
                  static_cast<unsigned long long>(FR.Regenerations),
                  FR.OnlineRemanages, FR.PartitionReruns);
      if (FR.ChipsFailed != 0) {
        const char *Why = "";
        for (const vm::ChipResult &C : FR.Chips)
          if (!C.Completed && !C.Error.empty()) {
            Why = C.Error.c_str();
            break;
          }
        std::fprintf(stderr, "aquad: fleet %s: %d chips failed (%s)\n",
                     What.c_str(), FR.ChipsFailed, Why);
        ++Failures;
      }
    }
  }

  Telemetry.stop();
  if (!flushOutputsOnce())
    return 1;
  return Failures ? 1 : 0;
}
