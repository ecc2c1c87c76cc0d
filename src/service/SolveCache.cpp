//===- SolveCache.cpp - Sharded memoizing solve cache --------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/service/SolveCache.h"

#include "aqua/obs/Metrics.h"
#include "aqua/obs/Trace.h"
#include "aqua/service/ArtifactCodec.h"
#include "aqua/store/SolveStore.h"

#include <algorithm>
#include <utility>

using namespace aqua;
using namespace aqua::service;

namespace {

/// Global-registry instruments, resolved once.
struct CacheMetrics {
  obs::Counter &Insertions =
      obs::metrics().counter("service.cache.insertions");
  obs::Counter &Evictions = obs::metrics().counter("service.cache.evictions");
  obs::Counter &HitsL2 = obs::metrics().counter("service.cache.hits_l2");
};

CacheMetrics &met() {
  static CacheMetrics M;
  return M;
}

std::size_t stringBytes(const std::string &S) { return S.capacity(); }

std::size_t graphBytes(const ir::AssayGraph &G) {
  std::size_t Bytes = G.numNodeSlots() * sizeof(ir::Node) +
                      G.numEdgeSlots() * sizeof(ir::Edge);
  for (ir::NodeId N = 0; N < G.numNodeSlots(); ++N) {
    const ir::Node &Nd = G.node(N);
    Bytes += stringBytes(Nd.Name) + stringBytes(Nd.Params.Flavor) +
             stringBytes(Nd.Params.Matrix) + stringBytes(Nd.Params.Pusher) +
             (Nd.In.size() + Nd.Out.size()) * sizeof(ir::EdgeId);
  }
  return Bytes;
}

/// Shard \p I's share of \p Total split over \p N shards: the remainder
/// goes one unit each to the first shards, so the shares sum to Total.
std::size_t share(std::size_t Total, std::size_t N, std::size_t I) {
  return Total / N + (I < Total % N ? 1 : 0);
}

} // namespace

std::size_t CompileArtifact::approxBytes() const {
  std::size_t Bytes = sizeof(CompileArtifact);
  Bytes += stringBytes(Error) + stringBytes(VM.Log);
  Bytes += graphBytes(VM.Graph);
  Bytes += (VM.Volumes.NodeVolumeNl.size() + VM.Volumes.EdgeVolumeNl.size() +
            Metered.NodeVolumeNl.size() + Metered.EdgeVolumeNl.size()) *
           sizeof(double);
  Bytes += (VM.Rounded.NodeUnits.size() + VM.Rounded.EdgeUnits.size()) *
           sizeof(std::int64_t);
  Bytes += Program.Instrs.size() * sizeof(codegen::Instruction);
  for (const codegen::Instruction &I : Program.Instrs)
    Bytes += stringBytes(I.Note);
  return Bytes;
}

SolveCache::SolveCache(const CacheConfig &Config) {
  // No more shards than entries, so every shard holds at least one entry
  // and the shares sum to MaxEntries exactly. MaxEntries == 0 leaves one
  // shard of budget 0: the L1 is off (an attached L2 is still read).
  std::size_t NumShards = std::max<std::size_t>(
      1, std::min<std::size_t>(std::max(1, Config.Shards), Config.MaxEntries));
  Shards.reserve(NumShards);
  for (std::size_t I = 0; I < NumShards; ++I) {
    auto S = std::make_unique<Shard>();
    S->MaxEntries = share(Config.MaxEntries, NumShards, I);
    S->MaxBytes = share(Config.MaxBytes, NumShards, I);
    Shards.push_back(std::move(S));
  }
}

SolveCache::Shard &SolveCache::shardFor(const ir::Fingerprint &Key) const {
  // The fingerprint is uniformly mixed; the top bits pick the shard (the
  // index hash mixes all 128 bits).
  return *Shards[(Key.Hi >> 32) % Shards.size()];
}

std::shared_ptr<const CompileArtifact>
SolveCache::hitLocked(Shard &S, const ir::Fingerprint &Key) {
  auto It = S.Entries.find(Key);
  if (It == S.Entries.end())
    return nullptr;
  It->second.LastUse = ++S.Tick;
  ++S.Hits;
  return It->second.Value;
}

std::shared_ptr<const CompileArtifact>
SolveCache::lookupL1(const ir::Fingerprint &Key) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.Mutex);
  return hitLocked(S, Key);
}

std::shared_ptr<const CompileArtifact>
SolveCache::lookup(const ir::Fingerprint &Key, bool *FromL2) {
  if (FromL2)
    *FromL2 = false;
  Shard &S = shardFor(Key);
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    if (std::shared_ptr<const CompileArtifact> Hit = hitLocked(S, Key))
      return Hit;
    if (!L2) {
      ++S.Misses;
      return nullptr;
    }
  }
  // Consult the store via its zero-copy view path (the payload stays in
  // the segment mapping; only the decode allocates).
  obs::SpanGuard Span("service.cache.l2", "service");
  store::ArtifactView View;
  if (!L2->getView(Key, View)) {
    Span.arg("outcome", "miss");
    std::lock_guard<std::mutex> Lock(S.Mutex);
    ++S.Misses;
    return nullptr;
  }
  Span.arg("outcome", "hit");
  Expected<CompileArtifact> Decoded = decodeArtifact(View.Payload);
  if (!Decoded.ok()) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    ++S.Misses;
    ++S.L2DecodeErrors;
    return nullptr;
  }
  auto Value =
      std::make_shared<const CompileArtifact>(std::move(Decoded.get()));
  // Promote into L1 without writing back. A racing insert may already
  // have published an (identical -- the pipeline is deterministic)
  // artifact; replacing it is harmless.
  std::size_t Bytes = Value->approxBytes();
  Dropped Out;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    if (S.MaxEntries)
      publishLocked(S, Key, Value, Bytes, Out);
    ++S.Hits;
    ++S.HitsL2;
  }
  met().HitsL2.add();
  if (FromL2)
    *FromL2 = true;
  return Value;
}

void SolveCache::insert(const ir::Fingerprint &Key,
                        std::shared_ptr<const CompileArtifact> Value) {
  Shard &S = shardFor(Key);
  if (!S.MaxEntries || !Value)
    return;
  // Write through to the persistent store first, outside the shard lock. A
  // store failure (disk full, unwritable dir) costs persistence only.
  if (L2)
    (void)L2->put(Key, encodeArtifact(*Value));
  std::size_t Bytes = Value->approxBytes();
  Dropped Out;
  std::lock_guard<std::mutex> Lock(S.Mutex);
  publishLocked(S, Key, std::move(Value), Bytes, Out);
}

void SolveCache::publishLocked(Shard &S, const ir::Fingerprint &Key,
                               std::shared_ptr<const CompileArtifact> Value,
                               std::size_t Bytes, Dropped &Out) {
  auto [It, Inserted] = S.Entries.try_emplace(Key);
  Entry &E = It->second;
  S.Bytes = S.Bytes - E.Bytes + Bytes;
  if (!Inserted)
    Out.push_back(std::move(E.Value));
  E = Entry{std::move(Value), Bytes, ++S.Tick};
  ++S.Insertions;
  met().Insertions.add();
  while (S.Entries.size() > S.MaxEntries ||
         (S.Bytes > S.MaxBytes && S.Entries.size() > 1))
    evictOldestLocked(S, Out);
}

void SolveCache::evictOldestLocked(Shard &S, Dropped &Out) {
  for (;;) {
    if (S.Victims.empty()) {
      // Scan the shard once for its oldest eighth, so an eviction costs
      // O(1) scanned entries amortized rather than a scan of the shard.
      std::vector<Victim> All;
      All.reserve(S.Entries.size());
      for (const auto &[Key, E] : S.Entries)
        All.push_back(Victim{E.LastUse, Key});
      auto Newer = [](const Victim &A, const Victim &B) {
        return A.LastUse > B.LastUse;
      };
      std::size_t Keep = All.size() / 8 + 1;
      std::nth_element(All.begin(), All.end() - Keep, All.end(), Newer);
      S.Victims.assign(All.end() - Keep, All.end());
      std::sort(S.Victims.begin(), S.Victims.end(), Newer);
    }
    Victim V = S.Victims.back();
    S.Victims.pop_back();
    // A candidate used or replaced since the scan has a newer stamp. One
    // that still has its stamp is older than every entry the scan left
    // out, and than every entry stamped since, so it is the LRU entry.
    auto It = S.Entries.find(V.Key);
    if (It == S.Entries.end() || It->second.LastUse != V.LastUse)
      continue;
    S.Bytes -= It->second.Bytes;
    Out.push_back(std::move(It->second.Value));
    S.Entries.erase(It);
    ++S.Evictions;
    met().Evictions.add();
    return;
  }
}

CacheStats SolveCache::stats() const {
  CacheStats Total;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    Total.Hits += S->Hits;
    Total.Misses += S->Misses;
    Total.Insertions += S->Insertions;
    Total.Evictions += S->Evictions;
    Total.HitsL2 += S->HitsL2;
    Total.L2DecodeErrors += S->L2DecodeErrors;
    Total.Entries += S->Entries.size();
    Total.Bytes += S->Bytes;
  }
  return Total;
}

void SolveCache::clear() {
  for (const std::unique_ptr<Shard> &S : Shards) {
    // The dropped artifacts are freed after the lock is released.
    decltype(S->Entries) Gone;
    std::lock_guard<std::mutex> Lock(S->Mutex);
    Gone.swap(S->Entries);
    S->Victims.clear();
    S->Bytes = 0;
  }
}
