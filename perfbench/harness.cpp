//===- perfbench/harness.cpp - Closed loop, spans, stats ------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

using namespace perfbench;

std::string perfbench::jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}

std::string Metrics::json() const {
  std::string Out = "{";
  for (std::size_t I = 0; I < Entries.size(); ++I) {
    const Entry &E = Entries[I];
    char Buf[64];
    // %.17g keeps every digit the measurement has.
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(E.Value) ? E.Value : 0.0);
    Out += (I ? ", \"" : "\"") + jsonEscape(E.Name) + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + jsonEscape(E.Unit) + "\"}";
  }
  return Out + "}";
}

bool perfbench::writeTraceShard(const std::string &Path,
                                const std::vector<SpanSink> &Sinks,
                                std::size_t MaxEvents) {
  std::size_t Total = 0;
  double EpochSec = nowSec();
  for (const SpanSink &S : Sinks) {
    Total += S.Spans.size();
    for (const SpanRec &R : S.Spans)
      EpochSec = std::min(EpochSec, R.Start);
  }
  std::size_t Written = 0;
  double WallNow =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  // Wall-clock micros of EpochSec on the steady clock.
  double EpochWall = WallNow - (nowSec() - EpochSec);
  std::string Out = "{\n  \"displayTimeUnit\": \"ms\",\n";
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "  \"aquaShard\": {\"pid\": %d, \"epochWallMicros\": %llu, "
                "\"droppedEvents\": %llu},\n",
                static_cast<int>(getpid()),
                static_cast<unsigned long long>(EpochWall * 1e6),
                static_cast<unsigned long long>(
                    Total > MaxEvents ? Total - MaxEvents : 0));
  Out += Buf;
  Out += "  \"traceEvents\": [\n    {\"name\": \"process_name\", \"ph\": "
         "\"M\", \"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"perfbench "
         "layer spans\"}}";
  for (const SpanSink &S : Sinks)
    for (const SpanRec &R : S.Spans) {
      if (Written++ >= MaxEvents)
        break;
      std::snprintf(Buf, sizeof(Buf),
                    ",\n    {\"name\": \"%s\", \"cat\": \"perfbench\", "
                    "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                    "\"tid\": %d, \"args\": {\"self_us\": %.3f}}",
                    R.Name, (R.Start - EpochSec) * 1e6, R.Dur * 1e6, R.Tid,
                    R.Self * 1e6);
      Out += Buf;
    }
  Out += "\n  ]\n}\n";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
  return std::fclose(F) == 0 && Ok;
}

namespace {
std::uint64_t xorshift(std::uint64_t &X) {
  X ^= X << 13;
  X ^= X >> 7;
  X ^= X << 17;
  return X;
}

/// One pass of the reference task over inputs drawn from \p Seed.
std::uint64_t referenceTask(std::uint64_t Seed) {
  std::uint64_t X = Seed | 1, Acc = 0;
  // Node-allocating hash map, as graph and cache code use.
  std::unordered_map<std::uint64_t, std::uint32_t> Map;
  for (std::uint32_t I = 0; I < 3000; ++I)
    Map[xorshift(X) & 8191] += I;
  for (std::uint32_t I = 0; I < 3000; ++I) {
    auto It = Map.find(xorshift(X) & 8191);
    Acc += It == Map.end() ? 1 : It->second;
  }
  // Short strings: build, sort and compare tokens, as a parser does.
  std::vector<std::string> Tokens;
  for (int I = 0; I < 1500; ++I)
    Tokens.emplace_back(4 + xorshift(X) % 20, static_cast<char>('a' + X % 26));
  std::sort(Tokens.begin(), Tokens.end());
  Acc += Tokens[Tokens.size() / 2].size();
  // Dense Gaussian elimination with partial pivoting, as the LP does.
  constexpr int N = 100;
  static std::vector<double> A(N * N);
  for (double &V : A)
    V = static_cast<double>(xorshift(X) % 1000) / 999.0 + 0.01;
  for (int K = 0; K < N; ++K) {
    int P = K;
    for (int I = K + 1; I < N; ++I)
      if (std::fabs(A[I * N + K]) > std::fabs(A[P * N + K]))
        P = I;
    for (int J = 0; J < N; ++J)
      std::swap(A[K * N + J], A[P * N + J]);
    for (int I = K + 1; I < N; ++I) {
      double F = A[I * N + K] / A[K * N + K];
      for (int J = K; J < N; ++J)
        A[I * N + J] -= F * A[K * N + J];
    }
  }
  Acc += static_cast<std::uint64_t>(std::fabs(A[N * N - 1]) * 1e6);
  return Acc;
}
} // namespace

double perfbench::calibrationSample() {
  static std::uint64_t Seed = 0x9e3779b97f4a7c15ULL;
  static volatile std::uint64_t Sink = 0;
  // The first pass brings the task's code and data back into the caches
  // the program's work evicted; the second is timed.
  Sink = Sink + referenceTask(Seed);
  double Start = nowSec();
  Sink = Sink + referenceTask(Seed);
  double Sec = nowSec() - Start;
  CalibrationSamples.push_back(Sec);
  return Sec;
}

bool perfbench::resetPeakRss() {
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

double perfbench::peakRssMb() {
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    long Kb = -1;
    while (Kb < 0 && std::fgets(Line, sizeof(Line), F))
      if (std::sscanf(Line, "VmHWM: %ld kB", &Kb) != 1)
        Kb = -1;
    std::fclose(F);
    if (Kb >= 0)
      return static_cast<double>(Kb) / 1024.0;
  }
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

PhaseResult
perfbench::runClosedLoop(double WarmSec, double Seconds, std::size_t RssOps,
                         const std::function<bool(std::uint64_t, bool)> &Op,
                         SpanSink *Sink,
                         const std::function<bool(std::uint64_t)> &Traced) {
  PhaseResult R;
  R.Samples.reserve(1 << 22); // Untouched until written.
  std::uint64_t I = 0;
  double Now = nowSec();
  const double WarmEnd = Now + WarmSec;
  while (Now < WarmEnd) { // Warm-up: same operations, nothing recorded.
    (void)Op(I++, false);
    Now = nowSec();
  }
  // Hand memory that set-up freed back to the kernel, so the peak counts
  // what the timed phase holds, not what the allocator kept.
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  R.RssTimedOnly = resetPeakRss();
  Now = nowSec();
  const double T0 = Now, T1 = T0 + Seconds;
  const double Think0 = ThinkTime::Wall, ThinkCpu0 = ThinkTime::Cpu;
  R.Marks.push_back({0, 0.0, cpuSec(), 0.0, 0.0});
  double NextMark = WindowSec, NextCal = CalibrationEverySec;
  std::vector<double> Cal; // The open window's calibration samples.
  auto CloseFactor = [&] {
    R.Factor.push_back(Cal.empty() ? hostFactor()
                                   : median(Cal) / RefCalibrationSec);
    Cal.clear();
  };
  while (Now < T1) {
    bool On = Sink && Traced(I);
    CurrentSink = On ? Sink : nullptr;
    double Start = Now, Think = ThinkTime::Wall;
    bool Ok = Op(I++, true);
    Now = nowSec();
    double Lat = Now - Start - (ThinkTime::Wall - Think);
    R.Samples.push_back({static_cast<float>(Lat), Ok});
    R.LatencySum[On] += Lat;
    R.Count[On] += 1;
    if (R.Samples.size() == RssOps) {
      R.PeakRssMb = peakRssMb();
      R.RssOpsReached = true;
    }
    if (Now - T0 >= NextCal) {
      {
        ThinkTime T; // Counted in no window and no operation.
        Cal.push_back(calibrationSample());
      }
      NextCal = (std::floor((Now - T0) / CalibrationEverySec) + 1) *
                CalibrationEverySec;
      Now = nowSec();
    }
    if (Now - T0 >= NextMark) {
      R.Marks.push_back({R.Samples.size(), Now - T0, cpuSec(),
                         ThinkTime::Wall - Think0, ThinkTime::Cpu - ThinkCpu0});
      CloseFactor();
      NextMark = (std::floor((Now - T0) / WindowSec) + 1) * WindowSec;
    }
  }
  CloseFactor(); // Of the operations after the last mark.
  CurrentSink = nullptr;
  if (!R.RssOpsReached)
    R.PeakRssMb = peakRssMb();
  return R;
}

namespace {
/// Per window: operations completed, the window's wall and CPU time with
/// the think time of its operations taken out, and its host factor.
struct Window {
  double Ops, Sec, CpuSec, Factor;
};
std::vector<Window> windows(const PhaseResult &R, bool Normalized) {
  std::vector<Window> Out;
  for (std::size_t W = 0; W + 1 < R.Marks.size(); ++W) {
    const WindowMark &A = R.Marks[W], &B = R.Marks[W + 1];
    Window X{static_cast<double>(B.Ops - A.Ops),
             B.Sec - A.Sec - (B.ThinkSec - A.ThinkSec),
             B.Cpu - A.Cpu - (B.ThinkCpu - A.ThinkCpu),
             Normalized ? R.Factor[W] : 1.0};
    if (X.Ops > 0 && X.Sec > 0)
      Out.push_back(X);
  }
  return Out;
}
} // namespace

double perfbench::medianWindowRate(const PhaseResult &R, bool Normalized) {
  std::vector<double> Rate;
  for (const Window &W : windows(R, Normalized))
    Rate.push_back(W.Ops / W.Sec * W.Factor);
  return median(Rate);
}

double perfbench::medianWindowCpuPerOp(const PhaseResult &R,
                                       bool Normalized) {
  std::vector<double> PerOp;
  for (const Window &W : windows(R, Normalized))
    PerOp.push_back(W.CpuSec / W.Ops / W.Factor);
  return median(PerOp);
}

std::vector<double> perfbench::latencies(const PhaseResult &R,
                                         bool Normalized) {
  std::vector<double> Out;
  Out.reserve(R.Samples.size());
  std::size_t W = 0;
  for (std::size_t I = 0; I < R.Samples.size(); ++I) {
    while (W + 1 < R.Marks.size() && I >= R.Marks[W + 1].Ops)
      ++W;
    Out.push_back(R.Samples[I].LatencySec / (Normalized ? R.Factor[W] : 1.0));
  }
  return Out;
}
