//===- aqua/service/KeyedTable.h - Sharded LRU, pending keys -*- C++ -*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service's one keyed table (DESIGN.md §7): a thread-safe, sharded
/// map with exact LRU eviction, an entry budget and an optional byte
/// budget, whose keys may also be *pending*. The first claim() of a
/// missing key makes its caller the Owner, who computes the value with no
/// lock held and then publish()es it or abandon()s the key; later claims
/// Join and wait for that value. Pending keys count against no budget, so
/// they are never evicted and coalesce even when the budget is zero. A
/// probe that is not a K needs transparent Hash and Eq and a K
/// constructor from it.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_SERVICE_KEYEDTABLE_H
#define AQUA_SERVICE_KEYEDTABLE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <future>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace aqua::service {

/// A table's counters. Monotone except Entries and Bytes.
struct KeyedTableStats {
  std::uint64_t Hits = 0;   ///< Claims and finds of a resident key.
  std::uint64_t Misses = 0; ///< Owner claims, and finds that missed.
  std::uint64_t Joins = 0;  ///< Claims that waited on a pending key.
  std::uint64_t Insertions = 0;
  std::uint64_t Evictions = 0;
  std::size_t Entries = 0; ///< Resident keys (pending ones excluded).
  std::size_t Bytes = 0;
};

template <class K, class V, class Hash, class Eq = std::equal_to<K>>
class KeyedTable {
  struct Shard;

public:
  /// \p MaxEntries and \p MaxBytes are totals across at least one and at
  /// most MaxEntries shards, split so the shares sum to them.
  KeyedTable(std::size_t MaxEntries, std::size_t MaxBytes, int NumShards)
      : Capacity(MaxEntries),
        Shards(std::max<std::size_t>(
            1, std::min<std::size_t>(std::max(1, NumShards), MaxEntries))) {
    const std::size_t N = Shards.size();
    for (std::size_t I = 0; I < N; ++I) {
      // The remainder goes one unit each to the first shards.
      Shards[I].MaxEntries = MaxEntries / N + (I < MaxEntries % N);
      Shards[I].MaxBytes = MaxBytes / N + (I < MaxBytes % N);
    }
  }

  enum class Found : std::uint8_t { Hit, Join, Owner };

  /// One caller's claim on a key; an owner's ends in the scope that made it.
  class Claim {
  public:
    Claim(const Claim &) = delete;
    Claim &operator=(const Claim &) = delete;
    ~Claim() {
      if (Owned)
        release(); // Waiters' get() throws: the owner left without a value.
    }

    Found found() const { return How; }

    /// A hit's resident value, or a join's owner's value (waits for it).
    /// Call at most once, and not as the owner.
    V get() { return How == Found::Hit ? std::move(Value) : Result.get(); }

    /// Owner only: makes \p Val the key's resident value and hands it to
    /// the waiters. Returns the number of entries evicted to fit it.
    std::size_t publish(V Val, std::size_t Bytes = 0) {
      std::size_t Evicted = 0;
      Dropped Out; // Freed after the lock is released.
      {
        std::lock_guard<std::mutex> Lock(S.Mutex);
        auto Node = S.Pending.extract(S.Pending.find(*Owned));
        Owned = nullptr;
        Evicted = putLocked(S, std::move(Node.key()), Val, Bytes, Out);
      }
      Promise->set_value(std::move(Val));
      return Evicted;
    }

    /// Owner only: hands \p Val to the waiters and forgets the key.
    void abandon(V Val) {
      release();
      Promise->set_value(std::move(Val));
    }

  private:
    friend class KeyedTable;

    template <class Q>
    Claim(KeyedTable &T, const Q &Probe) : S(T.shardFor(Probe)) {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      if (auto It = S.Entries.find(Probe); It != S.Entries.end()) {
        How = Found::Hit;
        Value = hitLocked(S, It->second);
      } else if (auto P = S.Pending.find(Probe); P != S.Pending.end()) {
        How = Found::Join;
        ++S.Count.Joins;
        Result = P->second;
      } else {
        ++S.Count.Misses;
        Promise.emplace();
        Owned = &S.Pending.emplace(K(Probe), Promise->get_future().share())
                     .first->first;
      }
    }

    void release() {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      S.Pending.erase(S.Pending.find(*Owned));
      Owned = nullptr;
    }

    Shard &S;
    Found How = Found::Owner;
    V Value;                      ///< Hit.
    std::shared_future<V> Result; ///< Join.
    const K *Owned = nullptr; ///< Owner: its key in the Pending node.
    std::optional<std::promise<V>> Promise;
  };

  template <class Q> Claim claim(const Q &Probe) { return Claim(*this, Probe); }

  /// The resident value for \p Probe's key, or a value-initialized V on a
  /// miss. Never waits: a pending key misses.
  template <class Q> V find(const Q &Probe) {
    Shard &S = shardFor(Probe);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Entries.find(Probe);
    if (It == S.Entries.end()) {
      ++S.Count.Misses;
      return V();
    }
    return hitLocked(S, It->second);
  }

  /// Makes \p Val the resident value of \p Key, replacing any, without
  /// touching a pending claim on it. Returns the number of entries evicted.
  std::size_t put(const K &Key, V Val, std::size_t Bytes = 0) {
    Shard &S = shardFor(Key);
    Dropped Out;
    std::lock_guard<std::mutex> Lock(S.Mutex);
    return putLocked(S, Key, std::move(Val), Bytes, Out);
  }

  std::size_t maxEntries() const { return Capacity; }

  /// Counters summed over the shards (consistent per shard only).
  KeyedTableStats stats() const {
    KeyedTableStats T;
    for (const Shard &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      T.Hits += S.Count.Hits;
      T.Misses += S.Count.Misses;
      T.Joins += S.Count.Joins;
      T.Insertions += S.Count.Insertions;
      T.Evictions += S.Count.Evictions;
      T.Entries += S.Entries.size();
      T.Bytes += S.Count.Bytes;
    }
    return T;
  }

  /// Drops every resident entry; counters and pending keys are kept.
  void clear() {
    for (Shard &S : Shards) {
      decltype(S.Entries) Gone; // Freed after the lock is released.
      std::lock_guard<std::mutex> Lock(S.Mutex);
      Gone.swap(S.Entries);
      S.Victims.clear();
      S.Count.Bytes = 0;
    }
  }

private:
  struct Entry {
    V Value;
    std::size_t Bytes = 0;
    std::uint64_t LastUse = 0;
  };
  using Dropped = std::vector<V>;
  /// An eviction candidate: a key and its stamp at the last scan.
  struct Victim {
    std::uint64_t LastUse;
    K Key;
  };

  /// Guarded by Mutex. Victims holds the oldest entries as of the last
  /// scan, oldest last. The two fields every hit writes (Tick, Count.Hits)
  /// share the mutex's cache line, so a hit dirties only that line and the
  /// entry it stamps.
  struct alignas(64) Shard {
    mutable std::mutex Mutex;
    std::uint64_t Tick = 0;
    KeyedTableStats Count; ///< Entries unused: that is Entries.size().
    std::unordered_map<K, Entry, Hash, Eq> Entries;
    std::unordered_map<K, std::shared_future<V>, Hash, Eq> Pending;
    std::vector<Victim> Victims;
    std::size_t MaxEntries = 0, MaxBytes = 0;
  };

  /// The top bits pick the shard; the shard's map buckets by the low ones.
  template <class Q> Shard &shardFor(const Q &Probe) {
    return Shards[(static_cast<std::uint64_t>(Hash{}(Probe)) >> 32) %
                  Shards.size()];
  }

  static V hitLocked(Shard &S, Entry &E) {
    E.LastUse = ++S.Tick;
    ++S.Count.Hits;
    return E.Value;
  }

  /// put() under S.Mutex; replaced and evicted values go to \p Out.
  static std::size_t putLocked(Shard &S, K Key, V Val, std::size_t Bytes,
                               Dropped &Out) {
    if (!S.MaxEntries)
      return 0;
    auto [It, Inserted] = S.Entries.try_emplace(std::move(Key));
    Entry &E = It->second;
    S.Count.Bytes = S.Count.Bytes - E.Bytes + Bytes;
    if (!Inserted)
      Out.push_back(std::move(E.Value));
    E = Entry{std::move(Val), Bytes, ++S.Tick};
    ++S.Count.Insertions;
    std::size_t Evicted = 0;
    for (; S.Entries.size() > S.MaxEntries ||
           (S.Count.Bytes > S.MaxBytes && S.Entries.size() > 1);
         ++Evicted)
      evictOldestLocked(S, Out);
    return Evicted;
  }

  /// Evicts the least recently used entry of \p S (caller holds S.Mutex;
  /// S has at least two entries) into \p Out.
  static void evictOldestLocked(Shard &S, Dropped &Out) {
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
        S.Victims.assign(std::make_move_iterator(All.end() - Keep),
                         std::make_move_iterator(All.end()));
        std::sort(S.Victims.begin(), S.Victims.end(), Newer);
      }
      Victim Vi = std::move(S.Victims.back());
      S.Victims.pop_back();
      // A candidate used or replaced since the scan has a newer stamp. One
      // that still has its stamp is older than every entry the scan left
      // out, and than every entry stamped since, so it is the LRU entry.
      auto It = S.Entries.find(Vi.Key);
      if (It == S.Entries.end() || It->second.LastUse != Vi.LastUse)
        continue;
      S.Count.Bytes -= It->second.Bytes;
      Out.push_back(std::move(It->second.Value));
      S.Entries.erase(It);
      ++S.Count.Evictions;
      return;
    }
  }

  const std::size_t Capacity;
  std::vector<Shard> Shards;
};

} // namespace aqua::service

#endif // AQUA_SERVICE_KEYEDTABLE_H
