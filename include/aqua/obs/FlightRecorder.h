//===- aqua/obs/FlightRecorder.h - Per-request digest ring -------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded ring of *request digests*: one compact record per completed
/// (or shed) CompileService request, carrying the trace id, phase
/// durations, cache outcome, front-end path, and shed cause. Where the span tracer answers
/// "what did this process spend its time on", the flight recorder answers
/// "what happened to the last N requests" -- cheap enough to leave on in
/// production (one mutex push per request, no allocation beyond the name
/// string), dumped on demand (`aquad --flight-out`) and at exit.
///
/// The ring overwrites oldest-first; overwrites are counted and mirrored
/// to the `obs.flight.overwritten` metric, and every recorded digest bumps
/// `service.request_digests`.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_OBS_FLIGHTRECORDER_H
#define AQUA_OBS_FLIGHTRECORDER_H

#include "aqua/obs/Ring.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace aqua::obs {

/// How the cache/single-flight pipeline resolved a request.
enum class RequestOutcome : std::uint8_t {
  Miss,  ///< Solved fresh (includes warm-miss donor repairs).
  Hit,   ///< L1 cache hit.
  HitL2, ///< Served from the persistent store, promoted to L1.
  Join,  ///< Coalesced onto an in-flight identical request.
  Shed,  ///< Rejected by admission control; see Cause.
};

/// Why a request was shed (RequestOutcome::Shed only).
enum class ShedCause : std::uint8_t {
  None,
  QueueFull,       ///< Bounced at submit: queue at MaxQueueDepth.
  DeadlineExpired, ///< Dropped at dequeue: deadline already passed.
};

/// What the front end (parse, lower, canonicalize) cost a request.
enum class FrontEndPath : std::uint8_t {
  None,    ///< Never reached the front end (shed).
  Memo,    ///< Reused a memoized graph and canonical form.
  Lowered, ///< Parsed and lowered source text, then canonicalized.
  Graph,   ///< Canonicalized a pre-lowered graph.
};

const char *requestOutcomeName(RequestOutcome O);
const char *shedCauseName(ShedCause C);
const char *frontEndPathName(FrontEndPath P);

/// One request's post-mortem record.
struct RequestDigest {
  std::uint64_t TraceId = 0;
  std::string Name; ///< Request name (assay/program identifier).
  RequestOutcome Outcome = RequestOutcome::Miss;
  ShedCause Cause = ShedCause::None;
  FrontEndPath FrontEnd = FrontEndPath::None;
  bool Ok = true; ///< False when compilation failed (or was shed).
  double QueueWaitSec = 0;
  double SolveSec = 0;   ///< Solve+codegen time (misses only).
  double LatencySec = 0; ///< Submit-to-completion wall time.
  std::uint64_t WallMicros = 0; ///< Completion wall-clock time (Unix us).
};

/// The bounded digest ring. Thread-safe; records unconditionally (the
/// gate, if any, is the caller's -- CompileService records always, the
/// cost is negligible next to a request).
class FlightRecorder {
public:
  explicit FlightRecorder(std::size_t Capacity = 256);

  /// The process-global recorder CompileService records into.
  static FlightRecorder &global();

  void record(RequestDigest D);

  std::size_t size() const { return Ring.size(); }
  std::uint64_t recordedCount() const { return Ring.recorded(); }
  std::uint64_t droppedCount() const { return Ring.dropped(); }
  void clear() { Ring.clear(); }

  /// Held digests, oldest first.
  std::vector<RequestDigest> snapshot() const { return Ring.snapshot(); }

  /// JSON dump (`aqua.flight.v1`): header plus one object per digest,
  /// oldest first.
  std::string json() const;

  /// Writes json() to \p Path; false (with a warning on stderr) on I/O
  /// failure.
  bool writeJsonFile(const std::string &Path) const;

private:
  BoundedRing<RequestDigest> Ring;
};

} // namespace aqua::obs

#endif // AQUA_OBS_FLIGHTRECORDER_H
