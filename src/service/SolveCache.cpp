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

SolveCache::SolveCache(const CacheConfig &Config)
    : L1(Config.MaxEntries, Config.MaxBytes, Config.Shards) {}

SolveCache::Value SolveCache::readStore(const ir::Fingerprint &Key) {
  if (!L2)
    return nullptr;
  // Consult the store via its zero-copy view path (the payload stays in
  // the segment mapping; only the decode allocates).
  obs::SpanGuard Span("service.cache.l2", "service");
  store::ArtifactView View;
  if (!L2->getView(Key, View)) {
    Span.arg("outcome", "miss");
    return nullptr;
  }
  Span.arg("outcome", "hit");
  Expected<CompileArtifact> Decoded = decodeArtifact(View.Payload);
  if (!Decoded.ok()) {
    ++L2DecodeErrors;
    return nullptr;
  }
  ++HitsL2;
  met().HitsL2.add();
  return std::make_shared<const CompileArtifact>(std::move(Decoded.get()));
}

void SolveCache::writeThrough(const ir::Fingerprint &Key,
                              const CompileArtifact &V) {
  // A store failure (disk full, unwritable dir) costs persistence only.
  if (L2 && L1.maxEntries())
    (void)L2->put(Key, encodeArtifact(V));
}

void SolveCache::countPublish(std::size_t Evicted) {
  if (!L1.maxEntries())
    return;
  met().Insertions.add();
  met().Evictions.add(Evicted);
}

SolveCache::Value SolveCache::lookup(const ir::Fingerprint &Key,
                                     bool *FromL2) {
  if (FromL2)
    *FromL2 = false;
  if (Value Hit = L1.find(Key))
    return Hit;
  // Promote a store hit into L1 without writing it back. A racing insert
  // may already have published an (identical -- the pipeline is
  // deterministic) artifact; replacing it is harmless.
  Value V = readStore(Key);
  if (V) {
    countPublish(L1.put(Key, V, V->approxBytes()));
    if (FromL2)
      *FromL2 = true;
  }
  return V;
}

void SolveCache::insert(const ir::Fingerprint &Key, Value V) {
  if (!V)
    return;
  // Write through to the persistent store first, outside the shard lock.
  writeThrough(Key, *V);
  countPublish(L1.put(Key, V, V->approxBytes()));
}

CacheStats SolveCache::stats() const {
  CacheStats S;
  S.HitsL2 = HitsL2.load();
  S.L2DecodeErrors = L2DecodeErrors.load();
  static_cast<KeyedTableStats &>(S) = L1.stats();
  // A store hit is an L1 miss the L2 answered.
  S.Hits += S.HitsL2;
  S.Misses -= S.HitsL2;
  return S;
}
