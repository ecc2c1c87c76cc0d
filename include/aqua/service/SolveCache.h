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
/// The in-memory table (the L1) is a set of independently locked shards,
/// each holding its share of the entry and byte budgets. Eviction is
/// exact LRU: every use stamps the entry with the shard's next tick, and
/// an insert over budget evicts the entry with the oldest stamp. A hit
/// takes the shard's mutex for one hash probe and one stamp. Evictions
/// take their victims from a list of the shard's oldest eighth, found by
/// one scan and refilled when it runs out; a listed entry used since the
/// scan is skipped. Replaced and evicted artifacts are released after the
/// mutex is dropped.
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
#include "aqua/service/Pipeline.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

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

/// Aggregate counters across shards. Monotone except Entries/Bytes.
struct CacheStats {
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
  std::uint64_t Insertions = 0;
  std::uint64_t Evictions = 0;
  /// L1 misses satisfied by the attached L2 store (a subset of Hits).
  std::uint64_t HitsL2 = 0;
  /// L2 payloads that failed to decode (version skew, corruption the
  /// store's checksums could not see) and were demoted to misses.
  std::uint64_t L2DecodeErrors = 0;
  std::size_t Entries = 0;
  std::size_t Bytes = 0;

  double hitRate() const {
    std::uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / Total : 0.0;
  }
};

/// Sharded LRU map from fingerprint to compile artifact.
class SolveCache {
public:
  explicit SolveCache(const CacheConfig &Config = {});

  /// Attaches \p Store as the write-through L2 (non-owning; pass nullptr
  /// to detach). Attach before serving traffic -- the pointer is read
  /// without synchronization.
  void attachStore(store::SolveStore *Store) { L2 = Store; }

  /// Returns the cached artifact or nullptr; a hit makes the entry its
  /// shard's most recently used. On an L1 miss with an L2 attached,
  /// consults the store and promotes any hit into L1 without writing it
  /// back. If \p FromL2 is non-null it is set to true exactly when the
  /// hit came from the store's encoded bytes.
  std::shared_ptr<const CompileArtifact> lookup(const ir::Fingerprint &Key,
                                                bool *FromL2 = nullptr);

  /// The L1 half of lookup(): a hit counts and stamps the entry as
  /// lookup() does, but a miss counts nothing and never reads the store.
  /// For a caller that already counted this key's miss through lookup()
  /// and re-checks under its own lock.
  std::shared_ptr<const CompileArtifact> lookupL1(const ir::Fingerprint &Key);

  /// Publishes \p Value under \p Key (replacing any previous entry) as
  /// its shard's most recently used, then evicts least recently used
  /// entries until the shard is within its entry and byte budgets.
  /// Write-through: with an L2 attached the encoded artifact is also
  /// appended to the store (a store failure only drops persistence, never
  /// the L1 insert).
  void insert(const ir::Fingerprint &Key,
              std::shared_ptr<const CompileArtifact> Value);

  /// Aggregated counters (consistent per shard, not across shards).
  CacheStats stats() const;

  /// Drops all entries (counters are retained).
  void clear();

private:
  struct Entry {
    std::shared_ptr<const CompileArtifact> Value;
    std::size_t Bytes = 0;
    std::uint64_t LastUse = 0;
  };
  using Dropped = std::vector<std::shared_ptr<const CompileArtifact>>;

  /// An eviction candidate: a key and its stamp when the shard was last
  /// scanned.
  struct Victim {
    std::uint64_t LastUse;
    ir::Fingerprint Key;
  };

  /// One shard: its entries, each stamped with the shard's tick at its
  /// last use, and the oldest of them as of the last eviction scan,
  /// oldest last; guarded by Mutex together with the budgets' accounting
  /// and counters. Cache-line aligned, and the two fields every hit
  /// writes share the mutex's line, so a hit dirties that line and the
  /// entry it stamps, and no other part of the shard.
  struct alignas(64) Shard {
    std::mutex Mutex;
    std::uint64_t Tick = 0, Hits = 0;
    std::unordered_map<ir::Fingerprint, Entry, ir::FingerprintHash> Entries;
    std::vector<Victim> Victims;
    std::size_t MaxEntries = 0, MaxBytes = 0;
    std::size_t Bytes = 0;
    std::uint64_t Misses = 0, Insertions = 0, Evictions = 0;
    std::uint64_t HitsL2 = 0, L2DecodeErrors = 0;
  };

  Shard &shardFor(const ir::Fingerprint &Key) const;
  /// The L1 probe (caller holds S.Mutex): on a hit, stamps the entry as
  /// the shard's most recent, counts the hit and returns the artifact.
  /// Counts nothing on a miss.
  std::shared_ptr<const CompileArtifact> hitLocked(Shard &S,
                                                   const ir::Fingerprint &Key);
  /// Publishes \p Value as the most recent entry of \p S under \p Key
  /// (caller holds S.Mutex), then evicts least recently used entries until
  /// S is within budget. Replaced and evicted values go to \p Out, so the
  /// caller frees them after it drops the lock.
  void publishLocked(Shard &S, const ir::Fingerprint &Key,
                     std::shared_ptr<const CompileArtifact> Value,
                     std::size_t Bytes, Dropped &Out);
  /// Evicts the least recently used entry of \p S (caller holds S.Mutex;
  /// S has at least two entries) into \p Out.
  void evictOldestLocked(Shard &S, Dropped &Out);

  std::vector<std::unique_ptr<Shard>> Shards;

  /// Optional persistent L2 (not owned). SolveStore is itself thread-safe.
  store::SolveStore *L2 = nullptr;
};

} // namespace aqua::service

#endif // AQUA_SERVICE_SOLVECACHE_H
