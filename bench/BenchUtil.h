//===- BenchUtil.h - Shared helpers for the reproduction benches --*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure reproduction binaries: timing with
/// repetition, row printing, and the AQUAVOL_BENCH_FULL switch that lifts
/// the default time caps (the full Enzyme10 LP runs for minutes by design;
/// that is the paper's point).
///
//===----------------------------------------------------------------------===//

#ifndef AQUAVOL_BENCH_BENCHUTIL_H
#define AQUAVOL_BENCH_BENCHUTIL_H

#include "aqua/obs/Metrics.h"
#include "aqua/obs/Timer.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace benchutil {

/// True when AQUAVOL_BENCH_FULL=1: no time caps, full problem sizes.
inline bool fullRun() {
  const char *Env = std::getenv("AQUAVOL_BENCH_FULL");
  return Env && Env[0] == '1';
}

/// True when AQUAVOL_BENCH_NO_TIMING_GATE=1: benches that normally fail on
/// wall-clock regressions only report them. CI perf-smoke sets this so a
/// loaded runner cannot fail the build on timing noise; solver-status
/// regressions still fail.
inline bool noTimingGate() {
  const char *Env = std::getenv("AQUAVOL_BENCH_NO_TIMING_GATE");
  return Env && Env[0] == '1';
}

/// Median wall-clock seconds of \p Reps runs of \p Fn (after one warmup),
/// in the spirit of the paper's "averaged over 10 runs".
inline double medianSeconds(const std::function<void()> &Fn, int Reps = 5) {
  Fn(); // Warmup.
  std::vector<double> Times;
  Times.reserve(Reps);
  for (int I = 0; I < Reps; ++I) {
    aqua::WallTimer T;
    Fn();
    Times.push_back(T.seconds());
  }
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

/// One timed run (for expensive cases).
inline double onceSeconds(const std::function<void()> &Fn) {
  aqua::WallTimer T;
  Fn();
  return T.seconds();
}

inline void header(const std::string &Title) {
  std::printf("\n=== %s ===\n", Title.c_str());
}

/// "paper vs measured" row.
inline void paperRow(const char *What, const std::string &Paper,
                     const std::string &Measured) {
  std::printf("  %-46s paper: %-14s measured: %s\n", What, Paper.c_str(),
              Measured.c_str());
}

inline std::string fmtSeconds(double S) {
  char Buf[64];
  if (S < 1e-3)
    std::snprintf(Buf, sizeof(Buf), "%.0f us", S * 1e6);
  else if (S < 1.0)
    std::snprintf(Buf, sizeof(Buf), "%.2f ms", S * 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%.2f s", S);
  return Buf;
}

/// Median and p95 wall-clock seconds over repeated runs.
struct TimingStats {
  double MedianSec = 0.0;
  double P95Sec = 0.0;
  int Reps = 0;
};

/// Runs \p Fn \p Reps times (after one warmup) and returns median/p95.
inline TimingStats timedStats(const std::function<void()> &Fn, int Reps = 5) {
  Fn(); // Warmup.
  std::vector<double> Times;
  Times.reserve(Reps);
  for (int I = 0; I < Reps; ++I) {
    aqua::WallTimer T;
    Fn();
    Times.push_back(T.seconds());
  }
  std::sort(Times.begin(), Times.end());
  TimingStats S;
  S.Reps = Reps;
  S.MedianSec = Times[Times.size() / 2];
  S.P95Sec = Times[std::min(Times.size() - 1,
                            static_cast<size_t>(Times.size() * 95 / 100))];
  return S;
}

/// One machine-readable benchmark record: a name, string parameters, and
/// numeric metrics (timings, iteration/node counts, throughputs).
struct BenchRecord {
  std::string Name;
  std::vector<std::pair<std::string, std::string>> Params;
  std::vector<std::pair<std::string, double>> Metrics;

  BenchRecord &param(std::string Key, std::string Value) {
    Params.emplace_back(std::move(Key), std::move(Value));
    return *this;
  }
  BenchRecord &metric(std::string Key, double Value) {
    Metrics.emplace_back(std::move(Key), Value);
    return *this;
  }
  BenchRecord &timing(const TimingStats &S) {
    metric("median_sec", S.MedianSec);
    metric("p95_sec", S.P95Sec);
    metric("reps", S.Reps);
    return *this;
  }
};

/// Snapshot-and-diff over the global metrics registry: construct before a
/// measured region, then `addTo()` folds every counter that moved into a
/// BenchRecord (metric key = prefix + name with '.' -> '_', so the bench
/// JSON stays flat). This is how the benches report solver work (pivots,
/// B&B nodes, cache traffic) without threading counters through APIs.
class MetricsDelta {
public:
  explicit MetricsDelta(aqua::obs::MetricsRegistry &R = aqua::obs::metrics())
      : Registry(R), Before(R.counterValues()) {}

  BenchRecord &addTo(BenchRecord &Rec, const std::string &Prefix = "") const {
    for (const auto &[Name, After] : Registry.counterValues()) {
      auto It = Before.find(Name);
      std::uint64_t Start = It == Before.end() ? 0 : It->second;
      if (After == Start)
        continue;
      std::string Key = Prefix + Name;
      for (char &C : Key)
        if (C == '.')
          C = '_';
      Rec.metric(Key, static_cast<double>(After - Start));
    }
    return Rec;
  }

private:
  aqua::obs::MetricsRegistry &Registry;
  std::map<std::string, std::uint64_t> Before;
};

/// Accumulates BenchRecords and writes them as BENCH_<bench>.json -- the
/// machine-readable artifact the CI perf-smoke job uploads and diffs. The
/// output directory defaults to the working directory and can be overridden
/// with AQUAVOL_BENCH_JSON_DIR.
class JsonReporter {
public:
  explicit JsonReporter(std::string BenchName) : Bench(std::move(BenchName)) {}
  JsonReporter(const JsonReporter &) = delete;
  JsonReporter &operator=(const JsonReporter &) = delete;
  ~JsonReporter() { write(); }

  BenchRecord &add(std::string Name) {
    Records.emplace_back();
    Records.back().Name = std::move(Name);
    return Records.back();
  }

  /// Writes BENCH_<bench>.json; returns false (and warns) on I/O failure.
  bool write() {
    std::string Dir = ".";
    if (const char *Env = std::getenv("AQUAVOL_BENCH_JSON_DIR"))
      if (Env[0] != '\0')
        Dir = Env;
    std::string Path = Dir + "/BENCH_" + Bench + ".json";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
      return false;
    }
    std::fprintf(F, "{\n  \"bench\": %s,\n  \"provenance\": %s,\n"
                 "  \"records\": [",
                 quoted(Bench).c_str(), provenance().c_str());
    for (size_t I = 0; I < Records.size(); ++I) {
      const BenchRecord &R = Records[I];
      std::fprintf(F, "%s\n    {\"name\": %s,\n     \"params\": {",
                   I ? "," : "", quoted(R.Name).c_str());
      for (size_t J = 0; J < R.Params.size(); ++J)
        std::fprintf(F, "%s%s: %s", J ? ", " : "",
                     quoted(R.Params[J].first).c_str(),
                     quoted(R.Params[J].second).c_str());
      std::fprintf(F, "},\n     \"metrics\": {");
      for (size_t J = 0; J < R.Metrics.size(); ++J)
        std::fprintf(F, "%s%s: %s", J ? ", " : "",
                     quoted(R.Metrics[J].first).c_str(),
                     number(R.Metrics[J].second).c_str());
      std::fprintf(F, "}}");
    }
    std::fprintf(F, "\n  ]\n}\n");
    std::fclose(F);
    std::printf("\nwrote %s (%zu records)\n", Path.c_str(), Records.size());
    return true;
  }

private:
  /// Where the numbers came from: the source revision (`git describe`,
  /// "-dirty" with local edits), build type, compiler and core count.
  static std::string provenance() {
    std::string Commit = "unknown";
    if (std::FILE *P = popen("git -C \"" AQUAVOL_SOURCE_DIR
                             "\" describe --always --dirty --abbrev=12 "
                             "2>/dev/null",
                             "r")) {
      char Buf[128];
      if (std::fgets(Buf, sizeof(Buf), P)) {
        Commit = Buf;
        while (!Commit.empty() &&
               (Commit.back() == '\n' || Commit.back() == ' '))
          Commit.pop_back();
      }
      pclose(P);
    }
#if defined(__clang__)
    const std::string Compiler = "Clang " __clang_version__;
#elif defined(__GNUC__)
    const std::string Compiler = "GNU " __VERSION__;
#else
    const std::string Compiler = "unknown";
#endif
    return "{\"commit\": " + quoted(Commit) +
           ", \"build_type\": " + quoted(AQUAVOL_BUILD_TYPE) +
           ", \"compiler\": " + quoted(Compiler) + ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) + "}";
  }

  static std::string quoted(const std::string &S) {
    std::string Out = "\"";
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
    return Out;
  }

  /// JSON has no infinity/nan literals; clamp to null.
  static std::string number(double V) {
    if (!(V == V) || V == std::numeric_limits<double>::infinity() ||
        V == -std::numeric_limits<double>::infinity())
      return "null";
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.9g", V);
    return Buf;
  }

  std::string Bench;
  std::vector<BenchRecord> Records;
};

} // namespace benchutil

#endif // AQUAVOL_BENCH_BENCHUTIL_H
