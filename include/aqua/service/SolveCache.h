//===- aqua/service/SolveCache.h - Sharded memoizing solve cache -*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, sharded, byte- and entry-budgeted cache of compile
/// artifacts, keyed on the canonical request fingerprint (see
/// RequestKey.h). Real PLoC deployments re-submit structurally identical
/// assays thousands of times (calibration reruns, plate after plate of the
/// same panel); the volume-management hierarchy is deterministic, so its
/// result can be memoized wholesale -- the managed graph, the volume
/// assignment, and the generated AIS program.
///
/// The in-memory L1 is a KeyedTable (KeyedTable.h); fetch() is the
/// service's single-flight path through both tiers.
///
/// Values are immutable `shared_ptr<const CompileArtifact>`: a hit hands
/// out a reference to the cached artifact with no copy, and eviction never
/// invalidates an artifact a client still holds.
///
/// `attachStore()` layers the cache over a persistent content-addressed
/// solve store (aqua/store) as a write-through L2. Inserts encode the
/// artifact (ArtifactCodec.h) and append it to the store; an L1 miss reads
/// the store via its zero-copy `getView` path, decodes the payload and
/// promotes it into the L1. The store outlives the process, so a restarted
/// daemon re-serves every previously solved fingerprint without a cold LP
/// solve, and N daemons sharing one store directory share each other's
/// solves.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_SERVICE_SOLVECACHE_H
#define AQUA_SERVICE_SOLVECACHE_H

#include "aqua/ir/Canonical.h"
#include "aqua/obs/FlightRecorder.h"
#include "aqua/service/KeyedTable.h"
#include "aqua/service/Pipeline.h"

#include <atomic>
#include <cstdint>
#include <memory>

namespace aqua::store {
class SolveStore;
} // namespace aqua::store

namespace aqua::service {

/// Cache sizing and sharding.
struct CacheConfig {
  /// Total entry budget across all shards (0 disables caching). After
  /// enough distinct inserts exactly this many artifacts are resident.
  /// Evictions cost O(1) entries scanned amortized, but each refill of a
  /// shard's victim list scans its whole share under the shard's lock.
  std::size_t MaxEntries = 1280;
  /// Total approximate byte budget across all shards. A shard always
  /// keeps its most recently used entry, even one over its byte share.
  std::size_t MaxBytes = std::size_t(256) << 20;
  /// Number of independently locked shards. At least 1 and at most
  /// MaxEntries are used, so no shard has a budget of zero entries unless
  /// caching is disabled.
  int Shards = 8;
};

/// The L1's counters, with store hits moved from Misses to Hits: Hits
/// counts L1 and L2 hits, Misses the fetches and lookups neither tier
/// answered, and Joins the fetches that waited for another caller's miss
/// of the same key (neither hits nor misses).
struct CacheStats : KeyedTableStats {
  /// L1 misses satisfied by the attached L2 store (a subset of Hits).
  std::uint64_t HitsL2 = 0;
  /// L2 payloads that failed to decode (version skew, corruption the
  /// store's checksums could not see) and were demoted to misses.
  std::uint64_t L2DecodeErrors = 0;

  double hitRate() const {
    std::uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / Total : 0.0;
  }
};

/// Sharded LRU map from fingerprint to compile artifact, over an optional
/// persistent L2.
class SolveCache {
public:
  using Value = std::shared_ptr<const CompileArtifact>;

  explicit SolveCache(const CacheConfig &Config = {});

  /// Attaches \p Store as the write-through L2 (non-owning; pass nullptr
  /// to detach). Attach before serving traffic -- the pointer is read
  /// without synchronization.
  void attachStore(store::SolveStore *Store) { L2 = Store; }

  /// Returns \p Key's artifact, and in \p How which tier produced it: Hit
  /// (L1), HitL2 (the store, decoded and promoted into the L1), Join
  /// (another caller's fetch of the key, waited for) or Miss (\p Solve(),
  /// run by this caller and inserted as insert() does).
  template <class SolveFn>
  Value fetch(const ir::Fingerprint &Key, SolveFn &&Solve,
              obs::RequestOutcome &How);

  /// Returns the cached artifact or nullptr; a hit makes the entry its
  /// shard's most recently used. On an L1 miss with an L2 attached,
  /// consults the store and promotes any hit into L1 without writing it
  /// back. If \p FromL2 is non-null it is set to true exactly when the
  /// hit came from the store's encoded bytes. Never waits on a fetch().
  Value lookup(const ir::Fingerprint &Key, bool *FromL2 = nullptr);

  /// Publishes \p V under \p Key (replacing any previous entry) as its
  /// shard's most recently used, evicting to budget. Write-through: with
  /// an L2 attached the encoded artifact is also appended to the store (a
  /// store failure only drops persistence, never the L1 insert). With
  /// MaxEntries == 0 nothing is kept or written.
  void insert(const ir::Fingerprint &Key, Value V);

  /// Aggregated counters (consistent per shard, not across shards).
  CacheStats stats() const;

  /// Drops all entries (counters are retained).
  void clear() { L1.clear(); }

private:
  /// A fingerprint is uniformly mixed, so its high word serves as the
  /// hash: its top bits pick the shard and the whole word the bucket.
  struct HighWord {
    std::size_t operator()(const ir::Fingerprint &F) const { return F.Hi; }
  };
  using Table = KeyedTable<ir::Fingerprint, Value, HighWord>;

  /// Reads and decodes \p Key from the L2; null when there is no L2, the
  /// store misses, or the payload fails to decode.
  Value readStore(const ir::Fingerprint &Key);
  /// Appends \p V to the L2 when one is attached and the L1 is on.
  void writeThrough(const ir::Fingerprint &Key, const CompileArtifact &V);
  void countPublish(std::size_t Evicted);

  Table L1;
  /// Optional persistent L2 (not owned). SolveStore is itself thread-safe.
  store::SolveStore *L2 = nullptr;
  /// L1 misses the store answered, and store payloads that failed to
  /// decode. stats() reads them before the L1's counters, so they never
  /// exceed the misses they are carved out of.
  std::atomic<std::uint64_t> HitsL2{0}, L2DecodeErrors{0};
};

template <class SolveFn>
SolveCache::Value SolveCache::fetch(const ir::Fingerprint &Key,
                                    SolveFn &&Solve,
                                    obs::RequestOutcome &How) {
  Table::Claim C = L1.claim(Key);
  if (C.found() != Table::Found::Owner) {
    How = C.found() == Table::Found::Hit ? obs::RequestOutcome::Hit
                                         : obs::RequestOutcome::Join;
    return C.get();
  }
  Value V = readStore(Key);
  How = V ? obs::RequestOutcome::HitL2 : obs::RequestOutcome::Miss;
  if (!V) {
    V = Solve();
    writeThrough(Key, *V);
  }
  countPublish(C.publish(V, V->approxBytes()));
  return V;
}

} // namespace aqua::service

#endif // AQUA_SERVICE_SOLVECACHE_H
