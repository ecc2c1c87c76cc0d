//===- FlightRecorder.cpp - Per-request digest ring -----------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// JSON schema (aqua.flight.v1):
//
//   {
//     "schema": "aqua.flight.v1",
//     "recorded": <uint>, "dropped": <uint>,
//     "digests": [
//       { "trace": "0x<hex>", "name": <string>, "outcome": <string>,
//         "cause": <string>, "frontend": <string>, "ok": <bool>,
//         "queueWaitSec": <number>,
//         "solveSec": <number>, "latencySec": <number>,
//         "wallMicros": <uint> }, ...
//     ]
//   }
//
//===----------------------------------------------------------------------===//

#include "aqua/obs/FlightRecorder.h"

#include "aqua/obs/Metrics.h"

#include <algorithm>
#include <cstdio>

using namespace aqua;
using namespace aqua::obs;

const char *aqua::obs::requestOutcomeName(RequestOutcome O) {
  switch (O) {
  case RequestOutcome::Miss:
    return "miss";
  case RequestOutcome::Hit:
    return "hit";
  case RequestOutcome::HitL2:
    return "hit_l2";
  case RequestOutcome::Join:
    return "join";
  case RequestOutcome::Shed:
    return "shed";
  }
  return "unknown";
}

const char *aqua::obs::shedCauseName(ShedCause C) {
  switch (C) {
  case ShedCause::None:
    return "none";
  case ShedCause::QueueFull:
    return "queue_full";
  case ShedCause::DeadlineExpired:
    return "deadline";
  }
  return "unknown";
}

const char *aqua::obs::frontEndPathName(FrontEndPath P) {
  switch (P) {
  case FrontEndPath::None:
    return "none";
  case FrontEndPath::Memo:
    return "memo";
  case FrontEndPath::Lowered:
    return "lowered";
  case FrontEndPath::Graph:
    return "graph";
  }
  return "unknown";
}

namespace {

struct FlightMetrics {
  obs::Counter &Digests = obs::metrics().counter("service.request_digests");
  obs::Counter &Overwritten =
      obs::metrics().counter("obs.flight.overwritten");
};

FlightMetrics &flightMet() {
  static FlightMetrics M;
  return M;
}

} // namespace

FlightRecorder::FlightRecorder(std::size_t Capacity)
    : Capacity(std::max<std::size_t>(8, Capacity)) {
  Ring.reserve(this->Capacity);
}

FlightRecorder &FlightRecorder::global() {
  static FlightRecorder R;
  return R;
}

void FlightRecorder::record(RequestDigest D) {
  FlightMetrics &M = flightMet();
  M.Digests.add();
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Ring.size() < Capacity) {
    Ring.push_back(std::move(D));
  } else {
    Ring[Recorded % Capacity] = std::move(D);
    M.Overwritten.add();
  }
  ++Recorded;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Ring.size();
}

std::uint64_t FlightRecorder::recordedCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Recorded;
}

std::uint64_t FlightRecorder::droppedCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Recorded > Ring.size() ? Recorded - Ring.size() : 0;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Ring.clear();
  Recorded = 0;
}

std::vector<RequestDigest> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<RequestDigest> Out;
  Out.reserve(Ring.size());
  if (Ring.size() < Capacity) {
    Out = Ring;
  } else {
    std::size_t Head = Recorded % Capacity; // Oldest slot.
    for (std::size_t I = 0; I < Capacity; ++I)
      Out.push_back(Ring[(Head + I) % Capacity]);
  }
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

} // namespace

std::string FlightRecorder::json() const {
  std::vector<RequestDigest> Digests = snapshot();
  std::uint64_t Recorded = recordedCount();
  std::uint64_t Dropped = droppedCount();

  std::string Out = "{\n  \"schema\": \"aqua.flight.v1\",\n";
  char Buf[320];
  std::snprintf(Buf, sizeof(Buf),
                "  \"recorded\": %llu, \"dropped\": %llu,\n  \"digests\": [",
                static_cast<unsigned long long>(Recorded),
                static_cast<unsigned long long>(Dropped));
  Out += Buf;
  bool First = true;
  for (const RequestDigest &D : Digests) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    std::snprintf(Buf, sizeof(Buf), "{\"trace\": \"0x%llx\", \"name\": ",
                  static_cast<unsigned long long>(D.TraceId));
    Out += Buf;
    appendQuoted(Out, D.Name);
    std::snprintf(Buf, sizeof(Buf),
                  ", \"outcome\": \"%s\", \"cause\": \"%s\", "
                  "\"frontend\": \"%s\", \"ok\": %s, "
                  "\"queueWaitSec\": %.9g, \"solveSec\": %.9g, "
                  "\"latencySec\": %.9g, \"wallMicros\": %llu}",
                  requestOutcomeName(D.Outcome), shedCauseName(D.Cause),
                  frontEndPathName(D.FrontEnd), D.Ok ? "true" : "false", D.QueueWaitSec, D.SolveSec,
                  D.LatencySec, static_cast<unsigned long long>(D.WallMicros));
    Out += Buf;
  }
  Out += "\n  ]\n}\n";
  return Out;
}

bool FlightRecorder::writeJsonFile(const std::string &Path) const {
  std::string Doc = json();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "warning: cannot write flight record to %s\n",
                 Path.c_str());
    return false;
  }
  std::fwrite(Doc.data(), 1, Doc.size(), F);
  std::fclose(F);
  return true;
}
