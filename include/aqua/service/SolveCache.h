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
/// The L1 hit path is lock-free for readers. Each shard is a fixed-size
/// open-addressing table of *versioned slots* read with a seqlock-style
/// optimistic protocol: a reader samples the slot version (odd = writer in
/// the slot), reads the key and state with relaxed loads, and re-checks the
/// version; a change means the reader raced a writer and retries. The
/// artifact handle itself is a `shared_ptr` copied under a per-slot spin
/// flag (a shared_ptr copy cannot be torn-read), so a hit costs one probe,
/// two version loads, and one refcount increment -- no shard mutex.
/// Writers (insert / evict / clear) still serialize on the shard mutex and
/// bump slot versions around every mutation.
///
/// Eviction is CLOCK-approximate rather than exact LRU: every hit sets the
/// slot's reference bit with a relaxed store (never a lock), and the
/// eviction hand sweeps the table clearing bits, evicting the first slot
/// found cold. A continuously re-referenced entry therefore survives an
/// insert storm, but the precise eviction *order* among cold entries is
/// approximate -- callers that asserted exact LRU order must assert CLOCK
/// reachability instead.
///
/// Values are immutable `shared_ptr<const CompileArtifact>`: a hit hands
/// out a reference to the cached artifact with no copy, and eviction never
/// invalidates an artifact a client still holds.
///
/// The in-memory table is the L1 of the hierarchy: `attachStore()` layers
/// the cache over a persistent content-addressed solve store (aqua/store)
/// as a write-through L2. Inserts encode the artifact (ArtifactCodec.h)
/// and append it to the store; an L1 miss consults a small *decoded
/// victim cache* first (artifacts evicted from L1 or previously decoded
/// from L2, kept in decoded form so repeat cross-process hits skip the
/// codec entirely), then the store via its zero-copy `getView` path. The
/// store outlives the process, so a restarted daemon re-serves every
/// previously solved fingerprint without a cold LP solve, and N daemons
/// sharing one store directory share each other's solves.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_SERVICE_SOLVECACHE_H
#define AQUA_SERVICE_SOLVECACHE_H

#include "aqua/ir/Canonical.h"
#include "aqua/service/Pipeline.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace aqua::store {
class SolveStore;
} // namespace aqua::store

namespace aqua::service {

/// Cache sizing and sharding.
struct CacheConfig {
  /// Total entry budget across all shards (0 disables caching).
  std::size_t MaxEntries = 1024;
  /// Total approximate byte budget across all shards.
  std::size_t MaxBytes = std::size_t(256) << 20;
  /// Number of independently locked shards (clamped to >= 1).
  int Shards = 8;
  /// Entry budget of the decoded-artifact victim cache that fronts the L2
  /// store (0 disables it). Evicted L1 entries and freshly decoded L2
  /// payloads land here in decoded form, so a repeat miss skips the codec.
  std::size_t DecodedEntries = 256;
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
  /// Optimistic L1 reads that observed a concurrent writer and re-ran.
  std::uint64_t SeqlockRetries = 0;
  /// L1 misses satisfied by the decoded victim cache without touching the
  /// codec or the store (a subset of Hits, disjoint from HitsL2).
  std::uint64_t DecodedHits = 0;
  std::size_t Entries = 0;
  std::size_t Bytes = 0;

  double hitRate() const {
    std::uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / Total : 0.0;
  }
};

/// Sharded lock-free-read map from fingerprint to compile artifact.
class SolveCache {
public:
  explicit SolveCache(const CacheConfig &Config = {});

  /// Attaches \p Store as the write-through L2 (non-owning; pass nullptr
  /// to detach). Attach before serving traffic -- the pointer is read
  /// without synchronization.
  void attachStore(store::SolveStore *Store) { L2 = Store; }

  /// Returns the cached artifact or nullptr; a hit refreshes the slot's
  /// CLOCK reference bit. On an L1 miss, consults the decoded victim
  /// cache, then (with an L2 attached) the store, promoting any hit into
  /// L1 without writing it back. If \p FromL2 is non-null it is set to
  /// true exactly when the hit came from the store's encoded bytes.
  std::shared_ptr<const CompileArtifact> lookup(const ir::Fingerprint &Key,
                                                bool *FromL2 = nullptr);

  /// Publishes \p Value under \p Key (replacing any previous entry), then
  /// evicts CLOCK-cold entries until the shard is within its entry and
  /// byte budgets. Write-through: with an L2 attached the encoded
  /// artifact is also appended to the store (a store failure only drops
  /// persistence, never the L1 insert).
  void insert(const ir::Fingerprint &Key,
              std::shared_ptr<const CompileArtifact> Value);

  /// Aggregated counters (consistent per shard, not across shards).
  CacheStats stats() const;

  /// Drops all entries, including the decoded victim cache (counters are
  /// retained).
  void clear();

private:
  /// A relaxed counter striped across cache lines so concurrent readers
  /// on different cores do not contend on one hot line; aggregated only
  /// on snapshot.
  class StripedCounter {
  public:
    void add(std::uint64_t N = 1) {
      Cells[stripe()].V.fetch_add(N, std::memory_order_relaxed);
    }
    std::uint64_t total() const {
      std::uint64_t Sum = 0;
      for (const Cell &C : Cells)
        Sum += C.V.load(std::memory_order_relaxed);
      return Sum;
    }

  private:
    struct alignas(64) Cell {
      std::atomic<std::uint64_t> V{0};
    };
    static std::size_t stripe();
    std::array<Cell, 16> Cells;
  };

  /// One versioned slot of a shard's open-addressing table. Readers use
  /// the seqlock protocol on `Version`; `Value` is copied under the
  /// per-slot `ValueLock` spin flag; `EntryBytes` is writer-private
  /// (only ever touched under the shard mutex).
  struct alignas(64) Slot {
    /// Seqlock version: odd while a writer is mutating the slot. Writers
    /// bump it twice around every mutation.
    std::atomic<std::uint64_t> Version{0};
    std::atomic<std::uint64_t> KeyHi{0};
    std::atomic<std::uint64_t> KeyLo{0};
    /// Empty / Full / Tombstone (probe chains skip tombstones, stop at
    /// empties).
    std::atomic<std::uint8_t> State{0};
    /// CLOCK reference bit: set by hits (relaxed, lock-free), cleared by
    /// the sweeping eviction hand.
    std::atomic<std::uint8_t> Ref{0};
    /// Byte charge of the resident value; shard-mutex-private.
    std::size_t EntryBytes = 0;
    /// The artifact handle. Guarded by ValueLock, not the seqlock: a
    /// shared_ptr copy is not tearable-readable, so readers briefly spin
    /// here and then re-validate the version.
    std::shared_ptr<const CompileArtifact> Value;
    mutable std::atomic_flag ValueLock = ATOMIC_FLAG_INIT;
  };

  /// One shard: a fixed-size slot table written under Mutex, read
  /// optimistically without it.
  struct Shard {
    mutable std::mutex Mutex;
    std::vector<Slot> Slots;
    /// Writer-side occupancy and budget accounting (under Mutex).
    std::size_t Entries = 0;
    std::size_t Tombstones = 0;
    std::size_t Bytes = 0;
    /// CLOCK hand: next slot index the eviction sweep examines.
    std::size_t Hand = 0;
    /// Rare, writer-side counters (under Mutex).
    std::uint64_t Insertions = 0, Evictions = 0;
    std::uint64_t HitsL2 = 0, L2DecodeErrors = 0;
  };

  /// An entry displaced from L1, en route to the decoded victim cache.
  struct Victim {
    ir::Fingerprint Key;
    std::shared_ptr<const CompileArtifact> Value;
  };

  struct KeyHash {
    std::size_t operator()(const ir::Fingerprint &F) const {
      return static_cast<std::size_t>(F.Hi ^ (F.Lo * 0x9e3779b97f4a7c15ULL));
    }
  };
  struct KeyEq {
    bool operator()(const ir::Fingerprint &A, const ir::Fingerprint &B) const {
      return A == B;
    }
  };

  Shard &shardFor(const ir::Fingerprint &Key);
  /// Lock-free optimistic probe; returns the value on a hit (setting the
  /// CLOCK bit) or nullptr. Falls back to `lockedFind` after too many
  /// seqlock retries under heavy write contention.
  std::shared_ptr<const CompileArtifact> findOptimistic(Shard &S,
                                                        const ir::Fingerprint &Key);
  /// Probe under the shard mutex (writers excluded).
  std::shared_ptr<const CompileArtifact> lockedFind(Shard &S,
                                                    const ir::Fingerprint &Key);
  /// Insert/replace under the shard mutex. Entries evicted to make room
  /// are appended to \p Victims (handled by the caller after unlock, so
  /// the decoded-cache mutex is never taken under a shard mutex).
  void insertLocked(Shard &S, const ir::Fingerprint &Key,
                    std::shared_ptr<const CompileArtifact> Value,
                    std::vector<Victim> &Victims);
  void evictOverBudgetLocked(Shard &S, std::vector<Victim> &Victims);
  /// Rebuilds the slot table in place when tombstones crowd it (under the
  /// shard mutex; readers see transient misses, which are benign).
  void rebuildLocked(Shard &S);
  /// Copies Value out of / into a slot under its spin flag. setSlotValue
  /// returns the displaced value; both destroy nothing inside the spin
  /// window.
  static std::shared_ptr<const CompileArtifact> slotValue(const Slot &SL);
  static std::shared_ptr<const CompileArtifact>
  setSlotValue(Slot &SL, std::shared_ptr<const CompileArtifact> Value);
  /// Seqlock write window around a slot mutation (caller holds the shard
  /// mutex).
  static void beginSlotWrite(Slot &SL);
  static void endSlotWrite(Slot &SL);

  /// Moves displaced L1 entries into the decoded victim cache.
  void stashVictims(std::vector<Victim> &&Victims);
  /// Removes and returns the decoded-cache entry for Key, if present.
  std::shared_ptr<const CompileArtifact> takeDecoded(const ir::Fingerprint &Key);

  std::vector<std::unique_ptr<Shard>> Shards;
  std::size_t MaxEntriesPerShard;
  std::size_t MaxBytesPerShard;
  std::size_t SlotMask = 0;

  /// Decoded-artifact victim cache fronting L2: FIFO-bounded, own mutex,
  /// touched only on the miss path.
  std::size_t DecodedCap = 0;
  std::mutex DecodedMutex;
  std::unordered_map<ir::Fingerprint, std::shared_ptr<const CompileArtifact>,
                     KeyHash, KeyEq>
      DecodedMap;
  std::deque<ir::Fingerprint> DecodedFifo;

  /// Hot read-path counters, striped and relaxed.
  StripedCounter HitCount, MissCount, SeqlockRetryCount, DecodedHitCount;

  /// Optional persistent L2 (not owned). SolveStore is itself thread-safe.
  store::SolveStore *L2 = nullptr;
};

} // namespace aqua::service

#endif // AQUA_SERVICE_SOLVECACHE_H
