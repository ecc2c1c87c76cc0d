//===- perfbench/harness.h - Closed loop, spans, stats ----------*- C++ -*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workload-independent half of the end-to-end benchmark: the clock,
/// the closed loop, the benchmark's own layer spans (kept in
/// memory, written once as a Chrome-trace shard), exact percentiles, and
/// the JSON line the runner prints.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_PERFBENCH_HARNESS_H
#define AQUA_PERFBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <time.h>

namespace perfbench {

inline double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user+sys CPU seconds (all threads).
inline double cpuSec() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_utime.tv_sec + U.ru_utime.tv_usec * 1e-6 + U.ru_stime.tv_sec +
         U.ru_stime.tv_usec * 1e-6;
}

/// CPU seconds of the calling thread.
inline double threadCpuSec() {
  timespec T{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return T.tv_sec + T.tv_nsec * 1e-9;
}

/// Exact quantile (nearest rank on sorted samples).
inline double quantileSorted(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0.0;
  std::size_t I = static_cast<std::size_t>(std::ceil(Q * Sorted.size()));
  I = std::clamp<std::size_t>(I, 1, Sorted.size());
  return Sorted[I - 1];
}

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One closed span. Self time excludes the time
/// covered by the span's children.
struct SpanRec {
  const char *Name;
  double Start, Dur, Self;
  int Tid;
};

/// Per-thread span sink. Spans nest by scope on one thread; the stack
/// tracks how much of each open span its children covered.
class SpanSink {
public:
  explicit SpanSink(int Tid) : Tid(Tid) {}
  void open() { Child.push_back(0.0); }
  void close(const char *Name, double Start, double End) {
    double Dur = End - Start;
    double Covered = Child.back();
    Child.pop_back();
    if (!Child.empty())
      Child.back() += Dur;
    Spans.push_back({Name, Start, Dur, Dur - Covered, Tid});
  }
  std::vector<SpanRec> Spans;

private:
  int Tid;
  std::vector<double> Child;
};

/// The calling thread's sink; null when the thread is not tracing.
inline thread_local SpanSink *CurrentSink = nullptr;

/// RAII span around one call into a module. Costs one branch when the
/// thread has no sink.
class Span {
public:
  explicit Span(const char *Name) : Name(Name), Sink(CurrentSink) {
    if (Sink) {
      Sink->open();
      Start = nowSec();
    }
  }
  ~Span() {
    if (Sink)
      Sink->close(Name, Start, nowSec());
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  SpanSink *Sink;
  double Start = 0.0;
};

/// Per-name aggregate over a set of spans.
struct SpanStat {
  std::uint64_t Count = 0;
  double DurSec = 0.0, SelfSec = 0.0;
  double meanSelfUs() const { return Count ? SelfSec / Count * 1e6 : 0.0; }
};

inline std::map<std::string, SpanStat>
aggregateSpans(const std::vector<SpanSink> &Sinks) {
  std::map<std::string, SpanStat> Out;
  for (const SpanSink &S : Sinks)
    for (const SpanRec &R : S.Spans) {
      SpanStat &A = Out[R.Name];
      ++A.Count;
      A.DurSec += R.Dur;
      A.SelfSec += R.Self;
    }
  return Out;
}

/// Writes the spans as one Chrome-trace shard in the layout `aquatrace
/// merge DIR` reads (an `aquaShard` header plus `traceEvents`). At most
/// \p MaxEvents spans are written; the header counts the rest as dropped.
/// Timestamps are relative to the earliest span.
bool writeTraceShard(const std::string &Path,
                     const std::vector<SpanSink> &Sinks, std::size_t MaxEvents);

//===----------------------------------------------------------------------===//
// Host calibration
//===----------------------------------------------------------------------===//

/// Runs a fixed reference task that shares no code with the program (a
/// hash map, sorted short strings and a dense elimination, all
/// cache-resident) twice, and records the wall seconds of the second pass. The benchmark takes samples around every timed
/// set-up and every CalibrationEverySec of a timed phase. The host it runs
/// on shares its cores with other machines and changes speed, by up to
/// 2.5x, from seconds to minutes at a time; the reference task slows down
/// with it, while a change to the program does not move it.
double calibrationSample();
/// Wall seconds the reference task takes on the reference host: the
/// 4-vCPU Intel Xeon VM the benchmark was tuned on, in a fast period.
inline constexpr double RefCalibrationSec = 1.0e-3;
/// Seconds between samples in a timed phase.
inline constexpr double CalibrationEverySec = 0.1;
/// Every sample taken so far in this process.
inline std::vector<double> CalibrationSamples;
/// How much slower than the reference host this run's host was: the
/// median sample over RefCalibrationSec. Timings divided by it, and rates
/// multiplied by it, are in reference-host units.
inline double hostFactor() {
  return CalibrationSamples.empty() ? 1.0
                                    : median(CalibrationSamples) /
                                          RefCalibrationSec;
}

//===----------------------------------------------------------------------===//
// The closed loop
//===----------------------------------------------------------------------===//

/// Scope of client-side work inside an operation that is not the system's
/// time, such as checking a response the moment it arrives so the client
/// need not keep it. The closed loop subtracts its wall time from the
/// operation's latency and from its window, and its CPU time from the
/// window's CPU.
class ThinkTime {
public:
  ThinkTime() : Wall0(nowSec()), Cpu0(threadCpuSec()) {}
  ~ThinkTime() {
    Wall += nowSec() - Wall0;
    Cpu += threadCpuSec() - Cpu0;
  }
  ThinkTime(const ThinkTime &) = delete;
  ThinkTime &operator=(const ThinkTime &) = delete;

  /// Totals so far.
  static inline double Wall = 0.0, Cpu = 0.0;

private:
  double Wall0, Cpu0;
};

/// What the client records per timed operation. It is kept small, and
/// its buffer is reserved before the timed phase, so that the client's
/// own memory barely grows with the number of operations: peak_rss_mb
/// must not read higher because the program got faster.
struct OpSample {
  /// Latency, think time excluded.
  float LatencySec = 0.0f;
  bool Ok = false;
};

/// The first operation to complete after a window boundary closes the
/// window; the mark records where.
struct WindowMark {
  std::size_t Ops; ///< Operations completed so far.
  double Sec, Cpu; ///< Seconds into the timed phase; process CPU seconds.
  /// Think wall and CPU seconds of the operations completed so far.
  double ThinkSec, ThinkCpu;
};

struct PhaseResult {
  std::vector<OpSample> Samples;
  /// Marks[0] opens the timed phase; each later mark closes one window.
  std::vector<WindowMark> Marks;
  /// Factor[w]: host factor of the window Marks[w] opens (the last one
  /// has no closing mark), the median of the calibration samples taken in
  /// it over RefCalibrationSec.
  std::vector<double> Factor;
  /// Latency sums and counts of untraced [0] and traced [1] operations
  /// (traced phases trace about half of the ops, chosen so both halves
  /// share one mix).
  double LatencySum[2] = {0, 0}, Count[2] = {0, 0};
  /// Peak resident set over the first RssOps timed operations (over the
  /// whole timed phase if it ran fewer): of those operations alone, with
  /// set-up's freed heap trimmed first, when the kernel could reset the
  /// high-water mark at the phase's start; else of the whole process.
  double PeakRssMb = 0.0;
  bool RssTimedOnly = false, RssOpsReached = false;
};

/// Length of the windows the timed phase is cut into. Throughput and CPU
/// per operation are medians over windows, so a host-level burst of
/// contention shorter than half the run does not move them.
inline constexpr double WindowSec = 0.5;

/// Median over the timed phase's windows of operations per second of
/// non-think time; with \p Normalized, each window's rate is multiplied by
/// its host factor first (reference-host units).
double medianWindowRate(const PhaseResult &R, bool Normalized);
/// Median over windows of process CPU seconds per operation, think CPU
/// excluded; with \p Normalized, divided by each window's host factor.
double medianWindowCpuPerOp(const PhaseResult &R, bool Normalized);
/// Each timed operation's latency; with \p Normalized, divided by the
/// host factor of its window.
std::vector<double> latencies(const PhaseResult &R, bool Normalized);

/// Resets the process's peak-RSS high-water mark (Linux clear_refs).
bool resetPeakRss();
/// Peak resident set (VmHWM) in MiB.
double peakRssMb();

/// Runs one closed-loop client on the calling thread: it calls Op(i,
/// timed) for its i-th operation and waits for it before issuing the next.
/// A warm-up of \p WarmSec (timed = false, unrecorded) precedes \p Seconds
/// of timed operations. Op returns whether the operation succeeded and
/// took its expected path; its latency is measured here around the call.
/// Peak RSS is read after \p RssOps timed operations. With \p Sink
/// non-null, the timed operations i for which Traced(i) holds record spans
/// into it; the others run untraced for comparison.
PhaseResult runClosedLoop(double WarmSec, double Seconds, std::size_t RssOps,
                          const std::function<bool(std::uint64_t, bool)> &Op,
                          SpanSink *Sink = nullptr,
                          const std::function<bool(std::uint64_t)> &Traced = {});

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

/// Ordered name -> (value, unit) map printed as the result's "metrics".
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit) {
    for (auto &E : Entries)
      if (E.Name == Name) {
        E.Value = Value;
        E.Unit = Unit;
        return;
      }
    Entries.push_back({Name, Value, Unit});
  }
  /// Adds \p Name with value 0 unless it is already set.
  void setDefault(const std::string &Name, const std::string &Unit) {
    for (auto &E : Entries)
      if (E.Name == Name)
        return;
    Entries.push_back({Name, 0.0, Unit});
  }
  std::string json() const;

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Entries;
};

std::string jsonEscape(const std::string &S);

} // namespace perfbench

#endif // AQUA_PERFBENCH_HARNESS_H
