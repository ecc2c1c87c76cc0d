//===- Metrics.cpp - Thread-safe metrics registry -------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// JSON schema (aqua.metrics.v1):
//
//   {
//     "schema": "aqua.metrics.v1",
//     "counters":   { "<name>": <uint>, ... },
//     "gauges":     { "<name>": <number>, ... },
//     "histograms": {
//       "<name>": { "count": <uint>, "sum": <number>,
//                   "buckets": [ { "le": <number|"inf">, "count": <uint> } ] }
//     }
//   }
//
// Keys are sorted (std::map iteration), numbers use %.9g, and non-finite
// doubles clamp to null -- the same rules as bench/BenchUtil.h's reporter,
// so the artifacts diff cleanly. tests/obs/MetricsTest.cpp locks the
// pre-registered schema against a golden file.
//
//===----------------------------------------------------------------------===//

#include "aqua/obs/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>

using namespace aqua;
using namespace aqua::obs;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

Histogram::Histogram(std::vector<double> UpperBounds)
    : Bounds(std::move(UpperBounds)) {
  if (Bounds.empty())
    Bounds = defaultLatencyBucketsSec();
  assert(std::is_sorted(Bounds.begin(), Bounds.end()) &&
         "histogram bounds must be sorted");
  Buckets = std::make_unique<std::atomic<std::uint64_t>[]>(Bounds.size() + 1);
  for (std::size_t I = 0; I <= Bounds.size(); ++I)
    Buckets[I].store(0, std::memory_order_relaxed);
}

void Histogram::observe(double X) {
  // First bound >= X: bucket I tallies observations with X <= Bounds[I],
  // matching the exported "le" labels.
  std::size_t I =
      std::lower_bound(Bounds.begin(), Bounds.end(), X) - Bounds.begin();
  Buckets[I].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  double Old = Sum.load(std::memory_order_relaxed);
  while (!Sum.compare_exchange_weak(Old, Old + X, std::memory_order_relaxed))
    ;
}

void Histogram::reset() {
  for (std::size_t I = 0; I <= Bounds.size(); ++I)
    Buckets[I].store(0, std::memory_order_relaxed);
  Count.store(0, std::memory_order_relaxed);
  Sum.store(0.0, std::memory_order_relaxed);
}

std::vector<double> aqua::obs::defaultLatencyBucketsSec() {
  return {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
          1e-1, 3e-1, 1.0,  3.0,  10.0};
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<Counter> &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<Gauge> &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &MetricsRegistry::histogram(const std::string &Name,
                                      std::vector<double> UpperBounds) {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unique_ptr<Histogram> &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>(std::move(UpperBounds));
  return *Slot;
}

std::map<std::string, std::uint64_t> MetricsRegistry::counterValues() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::map<std::string, std::uint64_t> Out;
  for (const auto &[Name, C] : Counters)
    Out[Name] = C->value();
  return Out;
}

namespace {

void appendQuoted(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

/// JSON has no infinity/nan literals; clamp to null.
void appendNumber(std::string &Out, double V) {
  if (!(V == V) || V == std::numeric_limits<double>::infinity() ||
      V == -std::numeric_limits<double>::infinity()) {
    Out += "null";
    return;
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  Out += Buf;
}

void appendUint(std::string &Out, std::uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu",
                static_cast<unsigned long long>(V));
  Out += Buf;
}

} // namespace

std::string MetricsRegistry::json() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::string Out = "{\n  \"schema\": \"aqua.metrics.v1\",\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, C] : Counters) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    appendQuoted(Out, Name);
    Out += ": ";
    appendUint(Out, C->value());
  }
  Out += "\n  },\n  \"gauges\": {";
  First = true;
  for (const auto &[Name, G] : Gauges) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    appendQuoted(Out, Name);
    Out += ": ";
    appendNumber(Out, G->value());
  }
  Out += "\n  },\n  \"histograms\": {";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    appendQuoted(Out, Name);
    Out += ": {\"count\": ";
    appendUint(Out, H->count());
    Out += ", \"sum\": ";
    appendNumber(Out, H->sum());
    Out += ", \"buckets\": [";
    const std::vector<double> &Bounds = H->bounds();
    for (std::size_t I = 0; I <= Bounds.size(); ++I) {
      if (I)
        Out += ", ";
      Out += "{\"le\": ";
      if (I < Bounds.size())
        appendNumber(Out, Bounds[I]);
      else
        Out += "\"inf\"";
      Out += ", \"count\": ";
      appendUint(Out, H->bucketCount(I));
      Out += '}';
    }
    Out += "]}";
  }
  Out += "\n  }\n}\n";
  return Out;
}

bool MetricsRegistry::writeJsonFile(const std::string &Path) const {
  std::string Doc = json();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "warning: cannot write metrics to %s\n",
                 Path.c_str());
    return false;
  }
  std::fwrite(Doc.data(), 1, Doc.size(), F);
  std::fclose(F);
  return true;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[Name, C] : Counters)
    C->reset();
  for (auto &[Name, G] : Gauges)
    G->reset();
  for (auto &[Name, H] : Histograms)
    H->reset();
}

MetricsRegistry &aqua::obs::metrics() {
  static MetricsRegistry R;
  return R;
}

void aqua::obs::preregisterPipelineMetrics(MetricsRegistry &R) {
  // Compilation service (CompileService.cpp, SolveCache.cpp).
  for (const char *Name :
       {"service.requests.submitted", "service.requests.completed",
        "service.requests.failed", "service.cache.hits",
        "service.cache.misses", "service.cache.insertions",
        "service.cache.evictions", "service.cache.hits_l2",
        "service.cache.seqlock_retries", "service.cache.decoded_hits",
        "service.canon_memo_hits", "service.singleflight.joins",
        "service.warm_miss_hits", "service.shed_total",
        "service.shed.queue_full", "service.shed.deadline"})
    R.counter(Name);
  R.gauge("service.queue_depth");
  R.histogram("service.queue_wait_sec");
  R.histogram("service.latency_sec");
  R.histogram("service.solve_sec");

  // Persistent solve store (store/SolveStore.cpp).
  for (const char *Name :
       {"store.appends", "store.appended_bytes", "store.gets", "store.hits",
        "store.corrupt_records", "store.torn_tails", "store.refreshes",
        "store.refresh_skips", "store.compactions", "store.index_probes",
        "store.index_fallback_scans", "store.index_builds",
        "store.index_loads"})
    R.counter(Name);

  // Volume-management hierarchy (Manager.cpp, DagSolve.cpp).
  for (const char *Name :
       {"core.manage.runs", "core.manage.infeasible",
        "core.manage.iterations", "core.manage.cascades",
        "core.manage.replications", "core.manage.lp_fallbacks",
        "core.dagsolve.runs", "core.dagsolve.infeasible"})
    R.counter(Name);

  // LP/ILP engines (RevisedSimplex.cpp, Cuts.cpp, BranchAndBound.cpp,
  // Solver.cpp).
  for (const char *Name :
       {"lp.pivots", "lp.refactorizations", "lp.cold_solves",
        "lp.warm_reopts", "lp.warm_fast_path", "lp.warm_cold_fallbacks",
        "lp.pricing_full_recomputes", "lp.pricing_drift_repairs",
        "lp.devex_resets", "lp.ftran_hypersparse", "lp.ftran_dense",
        "lp.warm_dual_inherits", "lp.warm_shape_repairs",
        "lp.cuts_generated", "lp.cuts_active", "lp.cut_rounds",
        "lp.bb.solves", "lp.bb.nodes", "lp.bb.pruned", "lp.bb.incumbents",
        "lp.bb.numeric_fallbacks", "ilp.pseudocost_inits",
        "ilp.strong_branches", "ilp.restarts"})
    R.counter(Name);
  R.histogram("lp.bb.nodes_per_worker",
              {1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 100000});
  R.histogram("lp.refactor_sec", {1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3,
                                  3e-3, 1e-2, 3e-2, 1e-1});

  // AquaCore simulator (Simulator.cpp). The volume gauges accumulate
  // nanoliters and feed the paper's Table 2 volume/waste columns.
  for (const char *Name :
       {"sim.runs", "sim.instructions", "sim.regenerations",
        "sim.underflows", "sim.overflows", "sim.sub_least_count_moves"})
    R.counter(Name);
  for (const char *Name :
       {"sim.volume.input_nl", "sim.volume.delivered_nl",
        "sim.volume.waste_nl"})
    R.gauge(Name);

  // Bytecode VM and fleet simulation (vm/VM.cpp, vm/Compiler.cpp,
  // vm/Fleet.cpp). The vm.* counters mirror sim.* so engine comparisons
  // line up column for column.
  for (const char *Name :
       {"vm.runs", "vm.instructions", "vm.regenerations", "vm.underflows",
        "vm.overflows", "vm.sub_least_count_moves", "vm.compile.programs",
        "vm.compile.instrs", "vm.fleet.chips", "vm.fleet.chips_failed",
        "vm.fleet.segments", "vm.fleet.online_remanages",
        "vm.fleet.partition_reruns", "vm.fleet.segment_recompiles"})
    R.counter(Name);
  for (const char *Name :
       {"vm.volume.input_nl", "vm.volume.delivered_nl", "vm.volume.waste_nl",
        "vm.fleet.makespan_sec", "vm.fleet.reservoir_wait_sec"})
    R.gauge(Name);

  // Leveled logging (Log.cpp).
  for (const char *Name : {"obs.log.debug", "obs.log.info", "obs.log.warn",
                           "obs.log.error", "obs.log.suppressed"})
    R.counter(Name);

  // Tracer ring health (Trace.cpp): dropped > 0 means the exported trace
  // window silently truncated older events.
  for (const char *Name : {"obs.trace.recorded", "obs.trace.dropped"})
    R.counter(Name);
  R.gauge("obs.trace.ring_occupancy");

  // Live telemetry (Snapshot.cpp, FlightRecorder.cpp) and per-request
  // digests (CompileService.cpp).
  for (const char *Name : {"obs.snapshot.writes", "obs.snapshot.errors",
                           "obs.flight.overwritten", "service.request_digests"})
    R.counter(Name);
}
