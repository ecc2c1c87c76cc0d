//===- aqua/obs/Trace.h - Span tracer with Chrome-trace export ---*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A span-based tracer for the parse -> lower -> solve -> round -> codegen
/// -> simulate pipeline, exporting the Chrome trace-event JSON format that
/// chrome://tracing and Perfetto load directly.
///
///  * `AQUA_TRACE_SPAN("lp.solve")` opens an RAII span on the calling
///    thread; nested spans form the per-thread stack that renders as
///    flame-graph nesting (Chrome nests "X" events by timestamp/duration
///    per thread row). Timestamps come from one process-wide steady-clock
///    anchor, in microseconds.
///
///  * Tracing is *globally* gated by one relaxed atomic bool: when off,
///    a span construct is exactly `load(relaxed) + branch` and records
///    nothing -- cheap enough that the instrumentation stays compiled in
///    everywhere, including the B&B node loop (the perf-smoke CI job
///    holds this overhead under a fixed per-span budget).
///
///  * Recorded events land in a bounded in-process *ring buffer* (default
///    64Ki events, ~6 MiB): `aquad` can run with tracing on indefinitely
///    and an export shows the most recent window instead of an unbounded
///    heap. Overwritten events are counted, not silently lost -- and the
///    count is mirrored into `obs.trace.*` metrics so truncation shows up
///    in a metrics export, not just in the trace header.
///
///  * Besides wall-clock spans the tracer records *virtual-time* complete
///    events on a separate track (pid 2): the simulator lays out each
///    instruction on the simulated fluidic clock, so one trace shows the
///    compiler's microseconds next to the assay's wet-path seconds.
///
/// Round two adds *request-scoped causal tracing*:
///
///  * Spans can carry key/value `args` (rendered in the Perfetto detail
///    pane), and every span closed while a `RequestScope` is active
///    automatically carries the scope's 64-bit trace id as a `trace` arg
///    -- one grep (or one Perfetto query) finds every span of a request.
///
///  * Flow events (`flowBegin` / `flowEnd`, Chrome phases 's'/'f') draw
///    the connecting arc: the submitting thread begins a flow under the
///    request's trace id, the worker that picks the request up ends it,
///    and the trace renders one arrow across thread -- or, after a shard
///    merge, process -- tracks.
///
///  * With `AQUA_TRACE_DIR` set, tracing is force-enabled and each
///    process writes its ring as a *shard* (`trace-<pid>.shard.json`)
///    whose header carries the wall-clock time of the process's trace
///    epoch. `aquatrace merge` (aqua/obs/TraceMerge.h) re-anchors every
///    shard onto one wall-clock timeline and gives each process its own
///    pid track, so a forked `aquad --workers` fleet renders as one
///    coherent trace with request arcs crossing process boundaries.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_OBS_TRACE_H
#define AQUA_OBS_TRACE_H

#include "aqua/obs/Ring.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace aqua::obs {

/// Track ids (Chrome "pid") used by the exporters.
enum TracePid : std::uint32_t {
  /// Wall-clock spans of the compiler/service pipeline.
  PidPipeline = 1,
  /// Virtual-time events on the simulated fluidic clock.
  PidSimulated = 2,
  /// Virtual-time events of a fleet simulation (one row per chip).
  PidFleet = 3,
};

/// One span argument; the value is exported as a JSON string.
struct TraceArg {
  std::string Key;
  std::string Val;
};

/// One trace-event record. `Phase` follows the trace-event format: 'X' is
/// a complete (begin+duration) event, 'i' an instant, 's'/'f' a flow
/// begin/end bound by `FlowId`.
struct TraceEvent {
  std::string Name;
  const char *Cat = "aqua"; ///< Must point at a static string.
  char Phase = 'X';
  std::uint64_t TsMicros = 0;
  std::uint64_t DurMicros = 0;
  std::uint32_t Pid = PidPipeline;
  std::uint32_t Tid = 0;
  /// Flow-binding id for 's'/'f' events (exported as "id"); 0 elsewhere.
  std::uint64_t FlowId = 0;
  /// Key/value details, exported as the event's "args" object.
  std::vector<TraceArg> Args;
};

/// Bounded-memory event sink plus exporters.
class Tracer {
public:
  /// \p Capacity is the ring size in events (clamped to >= 16).
  explicit Tracer(std::size_t Capacity = 1 << 16);

  /// The process-global tracer the span macros record into.
  static Tracer &global();

  /// The master switch for the recording macros. Off by default; the
  /// AQUA_TRACE=1 or AQUA_TRACE_DIR environment variables or a
  /// `--trace-out` CLI flag turn it on.
  static bool enabled() {
    return Enabled.load(std::memory_order_relaxed);
  }
  static void setEnabled(bool On) {
    Enabled.store(On, std::memory_order_relaxed);
  }

  /// Microseconds since the process-wide trace epoch (steady clock).
  static std::uint64_t nowMicros();

  /// Wall-clock microseconds (Unix time) corresponding to trace-epoch
  /// instant 0 -- the re-anchoring key the shard header carries. Computed
  /// from the current wall clock minus the steady-clock elapsed time, so
  /// shards written by different processes agree to NTP-level skew.
  static std::uint64_t wallMicrosAtEpoch();

  /// Small dense id of the calling thread (Chrome "tid"), assigned on
  /// first use.
  static std::uint32_t threadId();

  /// Appends one event, overwriting the oldest when the ring is full.
  void record(TraceEvent E);

  /// Records an instant event at the current wall clock on this thread.
  void instant(std::string Name, const char *Cat = "aqua");

  /// Records a complete event with explicit (possibly virtual) timing.
  void complete(std::string Name, const char *Cat, std::uint64_t TsMicros,
                std::uint64_t DurMicros, std::uint32_t Pid, std::uint32_t Tid);

  /// Records a flow begin ('s') / end ('f') at the current wall clock on
  /// this thread, bound by \p Id. Chrome draws one arrow per id from the
  /// 's' to the 'f', attached to the enclosing spans.
  void flowBegin(std::string Name, std::uint64_t Id, const char *Cat = "aqua");
  void flowEnd(std::string Name, std::uint64_t Id, const char *Cat = "aqua");

  /// Events currently held (<= capacity).
  std::size_t size() const { return Ring.size(); }
  /// Events ever recorded.
  std::uint64_t recordedCount() const { return Ring.recorded(); }
  /// Events overwritten by ring wraparound.
  std::uint64_t droppedCount() const { return Ring.dropped(); }
  void clear() { Ring.clear(); }

  /// Held events, oldest first.
  std::vector<TraceEvent> snapshot() const { return Ring.snapshot(); }

  /// The full trace-event JSON document ({"traceEvents": [...], ...}),
  /// loadable by chrome://tracing and Perfetto.
  std::string json() const;

  /// One process's *shard* of a multi-process trace: json() plus an
  /// `aquaShard` header `{pid, epochWallMicros, droppedEvents}` that
  /// `aqua/obs/TraceMerge.h` uses to re-anchor this process's steady-clock
  /// timestamps onto the shared wall-clock timeline.
  std::string shardJson(std::uint32_t OsPid, std::uint64_t EpochWallMicros) const;

  /// Writes json() to \p Path; false (with a warning on stderr) on I/O
  /// failure.
  bool writeChromeTrace(const std::string &Path) const;

private:
  static std::atomic<bool> Enabled;

  BoundedRing<TraceEvent> Ring;
};

//===----------------------------------------------------------------------===//
// Request context
//===----------------------------------------------------------------------===//

/// A fresh 64-bit request trace id: unique across the threads and forked
/// processes of one run (mixes pid, a process-local counter, and the
/// clock), never 0.
std::uint64_t newTraceId();

/// The trace id of the request the calling thread is currently serving;
/// 0 when none. Spans closed while a scope is active carry this as their
/// `trace` arg.
std::uint64_t currentTraceId();

/// The splitmix64 finalizer behind the id derivations; pure, so two
/// processes mixing the same value get the same id.
std::uint64_t mixId(std::uint64_t X);

/// The deterministic per-(worker, slot) flow id for a cross-process
/// dispatch arc: a parent draws \p Seed (newTraceId()) *before* forking,
/// children inherit it, and both sides derive identical ids without IPC.
/// The parent emits the 's' under this id; the worker closes the 'f' and
/// serves the request under `mixId(dispatchFlowId(...)) | 1` so the
/// request's own trace id stays distinct from the arc's. Never 0.
std::uint64_t dispatchFlowId(std::uint64_t Seed, int Worker,
                             std::size_t Slot);

/// RAII: marks the calling thread as serving request \p Id for the scope's
/// lifetime (nestable; restores the previous id). Id 0 is a no-op scope.
class RequestScope {
public:
  explicit RequestScope(std::uint64_t Id);
  ~RequestScope();

  RequestScope(const RequestScope &) = delete;
  RequestScope &operator=(const RequestScope &) = delete;

private:
  std::uint64_t Prev;
};

/// Convenience wrappers recording into the global tracer; no-ops when
/// tracing is disabled (one relaxed load).
inline void traceFlowBegin(const char *Name, std::uint64_t Id,
                           const char *Cat = "aqua") {
  if (Tracer::enabled())
    Tracer::global().flowBegin(Name, Id, Cat);
}
inline void traceFlowEnd(const char *Name, std::uint64_t Id,
                         const char *Cat = "aqua") {
  if (Tracer::enabled())
    Tracer::global().flowEnd(Name, Id, Cat);
}

//===----------------------------------------------------------------------===//
// Cross-process trace shards
//===----------------------------------------------------------------------===//

/// The AQUA_TRACE_DIR environment value, or null when unset.
const char *traceShardDir();

/// When AQUA_TRACE_DIR is set: enables tracing and registers an atexit
/// handler that writes this process's shard. Call early in process
/// drivers (daemons, benches); safe to call more than once, and a no-op
/// when the variable is unset. Forked children inherit the registration
/// and write their own shard (keyed by their own pid) -- clear the global
/// ring after fork if the parent's pre-fork events should not be
/// duplicated into the child's shard.
void initProcessTracing();

/// Writes the global tracer's shard to `AQUA_TRACE_DIR/trace-<pid>.shard.json`
/// now. Returns false when the variable is unset or the write fails. Safe
/// to call repeatedly (later writes overwrite the same file with a fresher
/// snapshot) -- `_exit` users must call this themselves since atexit
/// handlers will not run.
bool flushTraceShard();

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// RAII span: captures the start time at construction and records one
/// complete event into the global tracer at destruction. When tracing is
/// disabled at construction the destructor does nothing (a span that
/// straddles an enable records nothing -- half-open spans would lie).
/// While live, `arg()` attaches key/value details; a span closed under an
/// active RequestScope additionally carries the request's `trace` arg.
class SpanGuard {
public:
  /// \p Name must outlive the guard (string literals at every call site).
  explicit SpanGuard(const char *Name, const char *Cat = "aqua")
      : Name(Tracer::enabled() ? Name : nullptr), Cat(Cat),
        StartMicros(this->Name ? Tracer::nowMicros() : 0) {}

  ~SpanGuard() {
    if (Name)
      finish();
    delete Args;
  }

  SpanGuard(const SpanGuard &) = delete;
  SpanGuard &operator=(const SpanGuard &) = delete;

  /// Attaches one key/value detail to the span (last writer wins is NOT
  /// implemented; duplicate keys export both). No-op while tracing is
  /// disabled; \p Key must outlive the guard.
  void arg(const char *Key, std::string Val) {
    if (!Name)
      return;
    if (!Args)
      Args = new std::vector<TraceArg>();
    Args->push_back({Key, std::move(Val)});
  }
  void arg(const char *Key, std::uint64_t V) {
    if (Name)
      arg(Key, std::to_string(V));
  }
  void arg(const char *Key, int V) {
    if (Name)
      arg(Key, std::to_string(V));
  }

private:
  void finish();

  const char *Name;
  const char *Cat;
  std::uint64_t StartMicros;
  std::vector<TraceArg> *Args = nullptr; ///< Lazily allocated.
};

} // namespace aqua::obs

/// Opens a wall-clock span covering the rest of the enclosing scope.
#define AQUA_TRACE_SPAN_CONCAT2(A, B) A##B
#define AQUA_TRACE_SPAN_CONCAT(A, B) AQUA_TRACE_SPAN_CONCAT2(A, B)
#define AQUA_TRACE_SPAN(...)                                                   \
  ::aqua::obs::SpanGuard AQUA_TRACE_SPAN_CONCAT(AquaSpan_,                     \
                                                __LINE__)(__VA_ARGS__)

#endif // AQUA_OBS_TRACE_H
