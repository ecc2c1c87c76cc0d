//===- aqua/obs/Metrics.h - Thread-safe metrics registry ---------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead, thread-safe metrics layer shared by every subsystem:
/// monotone counters, double-valued gauges, and fixed-bucket histograms,
/// collected in a registry that snapshots to JSON (`--metrics-out` on the
/// CLIs, `BENCH_*.json` dimensions in the benches).
///
/// Design rules, in order:
///
///  1. *Recording must be cheap enough to leave on in `aquad`.* Counter
///     and gauge updates are single relaxed atomic RMWs; a histogram
///     observation is one binary search over an immutable bound array plus
///     one relaxed increment. No locks, no allocation, no syscalls on the
///     record path.
///
///  2. *Instrument sites pay the name lookup once.* `counter()` /
///     `gauge()` / `histogram()` take a registry mutex and may allocate,
///     but the returned reference is stable for the registry's lifetime --
///     hot paths hoist it into a function-local static (see the
///     `met()`-style bundles in CompileService.cpp and BranchAndBound.cpp)
///     and touch only the atomic afterwards.
///
///  3. *Snapshots are consistent enough.* `json()` reads each atomic with
///     relaxed ordering; per-metric values are exact, cross-metric skew is
///     bounded by whatever was in flight during the read. That is the
///     right trade for monitoring (and the only one that keeps rule 1).
///
/// Metric names are flat dotted paths ("service.cache.hits"); the
/// well-known pipeline names are pre-registered by
/// `preregisterPipelineMetrics()` so a metrics export always carries the
/// full schema even for counters a particular run never touched.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_OBS_METRICS_H
#define AQUA_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace aqua::obs {

/// A monotone event counter. Relaxed increments; exact totals (atomic RMW
/// loses nothing, unlike racy `+=`).
class Counter {
public:
  void add(std::uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  std::uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> V{0};
};

/// A double-valued gauge: `set()` for level quantities (queue depth),
/// `add()` for accumulated physical quantities (nanoliters of waste).
class Gauge {
public:
  void set(double X) { V.store(X, std::memory_order_relaxed); }
  void add(double X) { V.fetch_add(X, std::memory_order_relaxed); }
  double value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> V{0.0};
};

/// A fixed-bucket histogram. Bucket upper bounds are set at registration
/// and immutable afterwards; an implicit +inf bucket catches the tail.
/// Count, sum, and per-bucket tallies are all relaxed atomics, so
/// `observe()` from N threads is race-free and exact per cell (the
/// count/sum/bucket triple for one observation is not atomic as a group --
/// snapshot skew is bounded by in-flight observations, per the header
/// comment).
class Histogram {
public:
  explicit Histogram(std::vector<double> UpperBounds);

  void observe(double X);

  const std::vector<double> &bounds() const { return Bounds; }
  /// Tally of bucket \p I (I == bounds().size() is the +inf bucket).
  std::uint64_t bucketCount(std::size_t I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  double sum() const { return Sum.load(std::memory_order_relaxed); }
  void reset();

private:
  std::vector<double> Bounds; ///< Sorted, strictly increasing.
  std::unique_ptr<std::atomic<std::uint64_t>[]> Buckets; ///< Bounds.size()+1.
  std::atomic<std::uint64_t> Count{0};
  std::atomic<double> Sum{0.0};
};

/// Default histogram bounds for wall-clock latencies, 10 us .. 10 s.
std::vector<double> defaultLatencyBucketsSec();

/// The registry: named counters/gauges/histograms with stable references.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Returns the named metric, creating it on first use. References stay
  /// valid for the registry's lifetime. Registering the same name twice
  /// returns the same object; a histogram's bounds are fixed by whoever
  /// registers it first.
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name,
                       std::vector<double> UpperBounds = {});

  /// Current counter values, sorted by name (for bench deltas and tests).
  std::map<std::string, std::uint64_t> counterValues() const;

  /// One consistent-enough JSON document of everything registered, keys
  /// sorted (see Metrics.cpp for the schema).
  std::string json() const;

  /// Writes json() to \p Path; false (with a warning on stderr) on I/O
  /// failure.
  bool writeJsonFile(const std::string &Path) const;

  /// Zeroes every value; registrations survive. For benches and tests.
  void reset();

private:
  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

/// The process-global registry every subsystem instruments into.
MetricsRegistry &metrics();

/// Registers the documented pipeline metric names (service, lp, core, sim,
/// log) into \p R so exported JSON always carries the full schema. The
/// list doubles as the schema the golden test locks down.
void preregisterPipelineMetrics(MetricsRegistry &R = metrics());

} // namespace aqua::obs

#endif // AQUA_OBS_METRICS_H
