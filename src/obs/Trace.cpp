//===- Trace.cpp - Span tracer with Chrome-trace export -------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/obs/Trace.h"

#include "aqua/obs/Metrics.h"
#include "aqua/support/Json.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include <unistd.h>

using namespace aqua;
using namespace aqua::obs;

std::atomic<bool> Tracer::Enabled{[] {
  const char *Env = std::getenv("AQUA_TRACE");
  if (Env && Env[0] == '1')
    return true;
  // A shard directory implies tracing: every process in the tree records
  // and flushes a shard without further flag plumbing.
  const char *Dir = std::getenv("AQUA_TRACE_DIR");
  return Dir && Dir[0] != '\0';
}()};

namespace {

/// Registry instruments mirroring the ring's health, resolved once.
/// obs.trace.dropped is the "your trace is silently truncated" signal the
/// ring's bounded memory otherwise hides.
struct TraceMetrics {
  obs::Counter &Recorded = obs::metrics().counter("obs.trace.recorded");
  obs::Counter &Dropped = obs::metrics().counter("obs.trace.dropped");
  obs::Gauge &Occupancy = obs::metrics().gauge("obs.trace.ring_occupancy");
};

TraceMetrics &traceMet() {
  static TraceMetrics M;
  return M;
}

} // namespace

Tracer::Tracer(std::size_t Capacity)
    : Ring(std::max<std::size_t>(16, Capacity)) {}

Tracer &Tracer::global() {
  static Tracer T;
  return T;
}

std::uint64_t Tracer::nowMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               Epoch)
      .count();
}

std::uint64_t Tracer::wallMicrosAtEpoch() {
  // Wall "now" minus steady elapsed-since-epoch: both reads race against
  // each other by nanoseconds, which is far under the NTP skew between the
  // machines (or processes) whose shards a merge re-anchors.
  std::uint64_t WallNow =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  std::uint64_t Steady = nowMicros();
  return WallNow > Steady ? WallNow - Steady : 0;
}

std::uint32_t Tracer::threadId() {
  static std::atomic<std::uint32_t> Next{1};
  thread_local std::uint32_t Id =
      Next.fetch_add(1, std::memory_order_relaxed);
  return Id;
}

void Tracer::record(TraceEvent E) {
  TraceMetrics &M = traceMet();
  M.Recorded.add();
  auto Pushed = Ring.push(std::move(E));
  if (Pushed.Overwrote)
    M.Dropped.add();
  M.Occupancy.set(static_cast<double>(Pushed.Size));
}

void Tracer::instant(std::string Name, const char *Cat) {
  TraceEvent E;
  E.Name = std::move(Name);
  E.Cat = Cat;
  E.Phase = 'i';
  E.TsMicros = nowMicros();
  E.Tid = threadId();
  record(std::move(E));
}

void Tracer::complete(std::string Name, const char *Cat,
                      std::uint64_t TsMicros, std::uint64_t DurMicros,
                      std::uint32_t Pid, std::uint32_t Tid) {
  TraceEvent E;
  E.Name = std::move(Name);
  E.Cat = Cat;
  E.Phase = 'X';
  E.TsMicros = TsMicros;
  E.DurMicros = DurMicros;
  E.Pid = Pid;
  E.Tid = Tid;
  record(std::move(E));
}

void Tracer::flowBegin(std::string Name, std::uint64_t Id, const char *Cat) {
  TraceEvent E;
  E.Name = std::move(Name);
  E.Cat = Cat;
  E.Phase = 's';
  E.TsMicros = nowMicros();
  E.Tid = threadId();
  E.FlowId = Id;
  record(std::move(E));
}

void Tracer::flowEnd(std::string Name, std::uint64_t Id, const char *Cat) {
  TraceEvent E;
  E.Name = std::move(Name);
  E.Cat = Cat;
  E.Phase = 'f';
  E.TsMicros = nowMicros();
  E.Tid = threadId();
  E.FlowId = Id;
  record(std::move(E));
}

namespace {

std::string metadataLine(std::uint32_t Pid, const char *Name) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %u, "
                "\"tid\": 0, \"args\": {\"name\": \"%s\"}}",
                Pid, Name);
  return Buf;
}

/// Serializes one non-metadata event (no leading/trailing separators).
void appendEvent(std::string &Out, const TraceEvent &E) {
  char Buf[160];
  Out += "{\"name\": ";
  json::appendQuoted(Out, E.Name);
  std::snprintf(Buf, sizeof(Buf),
                ", \"cat\": \"%s\", \"ph\": \"%c\", \"ts\": %llu", E.Cat,
                E.Phase, static_cast<unsigned long long>(E.TsMicros));
  Out += Buf;
  if (E.Phase == 'X') {
    std::snprintf(Buf, sizeof(Buf), ", \"dur\": %llu",
                  static_cast<unsigned long long>(E.DurMicros));
    Out += Buf;
  }
  if (E.Phase == 'i')
    Out += ", \"s\": \"t\""; // Thread-scoped instant.
  if (E.Phase == 's' || E.Phase == 'f') {
    // Flow binding id; hex string keeps the full 64 bits JSON-safe.
    std::snprintf(Buf, sizeof(Buf), ", \"id\": \"0x%llx\"",
                  static_cast<unsigned long long>(E.FlowId));
    Out += Buf;
    if (E.Phase == 'f')
      Out += ", \"bp\": \"e\""; // Bind the arrow to the enclosing slice.
  }
  std::snprintf(Buf, sizeof(Buf), ", \"pid\": %u, \"tid\": %u", E.Pid, E.Tid);
  Out += Buf;
  if (!E.Args.empty()) {
    Out += ", \"args\": {";
    bool First = true;
    for (const TraceArg &A : E.Args) {
      if (!First)
        Out += ", ";
      First = false;
      json::appendQuoted(Out, A.Key);
      Out += ": ";
      json::appendQuoted(Out, A.Val);
    }
    Out += '}';
  }
  Out += '}';
}

} // namespace

std::string Tracer::json() const {
  std::vector<TraceEvent> Events = snapshot();
  std::uint64_t Dropped = droppedCount();

  std::string Out = "{\n  \"displayTimeUnit\": \"ms\",\n";
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "  \"aquaDroppedEvents\": %llu,\n",
                static_cast<unsigned long long>(Dropped));
  Out += Buf;
  Out += "  \"traceEvents\": [\n";
  Out += metadataLine(PidPipeline, "aqua pipeline (wall clock)");
  Out += ",\n";
  Out += metadataLine(PidSimulated, "simulated fluidics (wet clock)");
  Out += ",\n";
  Out += metadataLine(PidFleet, "fleet simulation (wet clock, row per chip)");
  for (const TraceEvent &E : Events) {
    Out += ",\n    ";
    appendEvent(Out, E);
  }
  Out += "\n  ]\n}\n";
  return Out;
}

std::string Tracer::shardJson(std::uint32_t OsPid,
                              std::uint64_t EpochWallMicros) const {
  std::vector<TraceEvent> Events = snapshot();
  std::uint64_t Dropped = droppedCount();

  std::string Out = "{\n  \"displayTimeUnit\": \"ms\",\n";
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "  \"aquaShard\": {\"pid\": %u, \"epochWallMicros\": %llu, "
                "\"droppedEvents\": %llu},\n",
                OsPid, static_cast<unsigned long long>(EpochWallMicros),
                static_cast<unsigned long long>(Dropped));
  Out += Buf;
  Out += "  \"traceEvents\": [\n";
  Out += metadataLine(PidPipeline, "aqua pipeline (wall clock)");
  Out += ",\n";
  Out += metadataLine(PidSimulated, "simulated fluidics (wet clock)");
  Out += ",\n";
  Out += metadataLine(PidFleet, "fleet simulation (wet clock, row per chip)");
  for (const TraceEvent &E : Events) {
    Out += ",\n    ";
    appendEvent(Out, E);
  }
  Out += "\n  ]\n}\n";
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::string Doc = json();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "warning: cannot write trace to %s\n", Path.c_str());
    return false;
  }
  std::fwrite(Doc.data(), 1, Doc.size(), F);
  std::fclose(F);
  return true;
}

//===----------------------------------------------------------------------===//
// Request context
//===----------------------------------------------------------------------===//

namespace {

thread_local std::uint64_t ActiveTraceId = 0;

} // namespace

/// splitmix64: a cheap full-avalanche mix.
std::uint64_t aqua::obs::mixId(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

std::uint64_t aqua::obs::dispatchFlowId(std::uint64_t Seed, int Worker,
                                        std::size_t Slot) {
  return mixId(Seed ^ (static_cast<std::uint64_t>(Worker + 1) << 32) ^
               (Slot + 1)) |
         1;
}

std::uint64_t aqua::obs::newTraceId() {
  static std::atomic<std::uint64_t> Counter{0};
  std::uint64_t Seq = Counter.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t Id =
      mixId((static_cast<std::uint64_t>(getpid()) << 40) ^ Seq ^
            (Tracer::wallMicrosAtEpoch() << 20));
  return Id ? Id : 1;
}

std::uint64_t aqua::obs::currentTraceId() { return ActiveTraceId; }

RequestScope::RequestScope(std::uint64_t Id) : Prev(ActiveTraceId) {
  if (Id != 0)
    ActiveTraceId = Id;
}

RequestScope::~RequestScope() { ActiveTraceId = Prev; }

//===----------------------------------------------------------------------===//
// Cross-process trace shards
//===----------------------------------------------------------------------===//

const char *aqua::obs::traceShardDir() {
  const char *Dir = std::getenv("AQUA_TRACE_DIR");
  return (Dir && Dir[0] != '\0') ? Dir : nullptr;
}

bool aqua::obs::flushTraceShard() {
  const char *Dir = traceShardDir();
  if (!Dir)
    return false;
  char Path[512];
  std::snprintf(Path, sizeof(Path), "%s/trace-%d.shard.json", Dir,
                static_cast<int>(getpid()));
  std::string Doc = Tracer::global().shardJson(
      static_cast<std::uint32_t>(getpid()), Tracer::wallMicrosAtEpoch());
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "warning: cannot write trace shard to %s\n", Path);
    return false;
  }
  std::fwrite(Doc.data(), 1, Doc.size(), F);
  std::fclose(F);
  return true;
}

void aqua::obs::initProcessTracing() {
  if (!traceShardDir())
    return;
  Tracer::setEnabled(true);
  static bool Registered = [] {
    // Construct the tracer *before* registering the flush: atexit
    // handlers and static destructors share one LIFO stack, so the
    // handler (registered later) runs first, while the tracer is alive.
    (void)Tracer::global();
    std::atexit([] { (void)flushTraceShard(); });
    return true;
  }();
  (void)Registered;
}

//===----------------------------------------------------------------------===//
// SpanGuard
//===----------------------------------------------------------------------===//

void SpanGuard::finish() {
  std::uint64_t End = Tracer::nowMicros();
  TraceEvent E;
  E.Name = Name;
  E.Cat = Cat;
  E.Phase = 'X';
  E.TsMicros = StartMicros;
  E.DurMicros = End > StartMicros ? End - StartMicros : 0;
  E.Tid = Tracer::threadId();
  if (Args)
    E.Args = std::move(*Args);
  // A span closed while serving a request carries the request's id, so
  // every row of a request's causal arc is greppable by one value.
  if (std::uint64_t Id = currentTraceId()) {
    char Buf[24];
    std::snprintf(Buf, sizeof(Buf), "0x%llx",
                  static_cast<unsigned long long>(Id));
    E.Args.push_back({"trace", Buf});
  }
  Tracer::global().record(std::move(E));
}
