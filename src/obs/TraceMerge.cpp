//===- TraceMerge.cpp - Stitch per-process trace shards -------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/obs/TraceMerge.h"

#include "aqua/support/Json.h"
#include "aqua/support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include <dirent.h>

using namespace aqua;
using namespace aqua::obs;

namespace {

void appendNumber(std::string &Out, double V) {
  char Buf[64];
  // Timestamps/durations/counts round-trip as integers; anything else
  // keeps full double precision.
  if (std::nearbyint(V) == V && std::fabs(V) < 9.2e18)
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
  else
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Buf;
}

/// Re-serializes a parsed value verbatim.
void writeValue(const json::Value &V, std::string &Out) {
  switch (V.kind()) {
  case json::Value::Kind::Null:
    Out += "null";
    break;
  case json::Value::Kind::Bool:
    Out += V.boolean() ? "true" : "false";
    break;
  case json::Value::Kind::Number:
    appendNumber(Out, V.number());
    break;
  case json::Value::Kind::String:
    json::appendQuoted(Out, V.str());
    break;
  case json::Value::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const json::Value &E : V.array()) {
      if (!First)
        Out += ", ";
      First = false;
      writeValue(E, Out);
    }
    Out += ']';
    break;
  }
  case json::Value::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[Key, Member] : V.members()) {
      if (!First)
        Out += ", ";
      First = false;
      json::appendQuoted(Out, Key);
      Out += ": ";
      writeValue(Member, Out);
    }
    Out += '}';
    break;
  }
  }
}

struct MergedEvent {
  std::uint64_t TsPrime = 0;
  std::string Json;
};

const char *trackName(std::uint64_t Track) {
  switch (Track) {
  case 1:
    return "aqua pipeline";
  case 2:
    return "simulated fluidics";
  case 3:
    return "fleet simulation";
  default:
    return "aqua";
  }
}

} // namespace

Expected<MergedTrace> aqua::obs::mergeShards(
    const std::vector<std::string> &ShardDocs) {
  if (ShardDocs.empty())
    return Status::error("mergeShards: no shards");

  struct Shard {
    json::Value Doc;
    std::uint64_t OsPid = 0;
    std::uint64_t Epoch = 0;
    std::uint64_t Dropped = 0;
  };

  std::vector<Shard> Shards;
  Shards.reserve(ShardDocs.size());
  std::uint64_t MinEpoch = ~0ULL;
  for (std::size_t I = 0; I < ShardDocs.size(); ++I) {
    Expected<json::Value> Doc = json::parse(ShardDocs[I]);
    if (!Doc)
      return Status::error(
          format("shard %zu: %s", I, Doc.message().c_str()));
    Shard S;
    S.Doc = std::move(*Doc);
    const json::Value *Header = S.Doc.find("aquaShard");
    if (!Header || Header->kind() != json::Value::Kind::Object)
      return Status::error(format("shard %zu: missing aquaShard header", I));
    const json::Value *Pid = Header->find("pid");
    const json::Value *Epoch = Header->find("epochWallMicros");
    if (!Pid || !Epoch)
      return Status::error(format("shard %zu: incomplete aquaShard header", I));
    S.OsPid = Pid->u64();
    S.Epoch = Epoch->u64();
    S.Dropped = static_cast<std::uint64_t>(Header->numberOr("droppedEvents", 0));
    MinEpoch = std::min(MinEpoch, S.Epoch);
    Shards.push_back(std::move(S));
  }

  std::vector<MergedEvent> Events;
  // (merged pid) -> display name, for the metadata records.
  std::map<std::uint64_t, std::string> Tracks;
  std::uint64_t TotalDropped = 0;

  for (std::size_t I = 0; I < Shards.size(); ++I) {
    const Shard &S = Shards[I];
    TotalDropped += S.Dropped;
    std::uint64_t Shift = S.Epoch - MinEpoch;
    const json::Value *List = S.Doc.find("traceEvents");
    if (!List || List->kind() != json::Value::Kind::Array)
      return Status::error(format("shard %zu: missing traceEvents", I));
    for (const json::Value &E : List->array()) {
      if (E.kind() != json::Value::Kind::Object)
        return Status::error(format("shard %zu: non-object event", I));
      // Shards carry their own process_name metadata; the merge re-derives
      // track names from (os pid, track), so drop the per-shard records.
      if (E.strOr("ph", "") == "M")
        continue;
      const json::Value *Ts = E.find("ts");
      const json::Value *Track = E.find("pid");
      if (!Ts || !Track)
        return Status::error(format("shard %zu: event without ts/pid", I));
      std::uint64_t TsPrime = Ts->u64() + Shift;
      std::uint64_t Merged = S.OsPid * 4 + (Track->u64() > 0 ? Track->u64() - 1 : 0);
      Tracks.emplace(Merged, format("pid %llu: %s",
                                    static_cast<unsigned long long>(S.OsPid),
                                    trackName(Track->u64())));

      // Re-emit the event verbatim, with ts shifted and pid remapped.
      std::string Out = "{";
      bool First = true;
      for (const auto &[Key, Member] : E.members()) {
        if (!First)
          Out += ", ";
        First = false;
        json::appendQuoted(Out, Key);
        Out += ": ";
        if (Key == "ts")
          appendNumber(Out, static_cast<double>(TsPrime));
        else if (Key == "pid")
          appendNumber(Out, static_cast<double>(Merged));
        else
          writeValue(Member, Out);
      }
      Out += '}';
      Events.push_back({TsPrime, std::move(Out)});
    }
  }

  // One shared timeline: order by re-anchored timestamp (stable, so ties
  // keep shard order -- in particular an 's' stays ahead of its 'f' when
  // both land on the same microsecond).
  std::stable_sort(Events.begin(), Events.end(),
                   [](const MergedEvent &A, const MergedEvent &B) {
                     return A.TsPrime < B.TsPrime;
                   });

  MergedTrace Result;
  Result.ShardCount = Shards.size();
  Result.DroppedEvents = TotalDropped;
  Result.EventCount = Events.size();

  std::string &Out = Result.Json;
  Out = "{\n  \"displayTimeUnit\": \"ms\",\n";
  Out += format("  \"aquaMerged\": {\"shards\": %zu, \"droppedEvents\": %llu},\n",
                Shards.size(),
                static_cast<unsigned long long>(TotalDropped));
  Out += "  \"traceEvents\": [";
  bool First = true;
  for (const auto &[Pid, Name] : Tracks) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    Out += format("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %llu, "
                  "\"tid\": 0, \"args\": {\"name\": ",
                  static_cast<unsigned long long>(Pid));
    json::appendQuoted(Out, Name);
    Out += "}}";
  }
  for (const MergedEvent &E : Events) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    Out += E.Json;
  }
  Out += "\n  ]\n}\n";
  return Result;
}

Expected<std::vector<std::string>> aqua::obs::listShardPaths(
    const std::string &Dir) {
  DIR *D = opendir(Dir.c_str());
  if (!D)
    return Status::error(format("cannot open directory %s", Dir.c_str()));
  std::vector<std::string> Paths;
  const std::string Suffix = ".shard.json";
  while (dirent *Entry = readdir(D)) {
    std::string Name = Entry->d_name;
    if (Name.size() > Suffix.size() &&
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) == 0)
      Paths.push_back(Dir + "/" + Name);
  }
  closedir(D);
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}
