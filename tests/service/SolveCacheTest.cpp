//===- SolveCacheTest.cpp - Sharded LRU solve-cache tests ------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/service/SolveCache.h"
#include "aqua/store/SolveStore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <list>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace aqua;
using namespace aqua::service;

namespace {

ir::Fingerprint key(std::uint64_t I) {
  // Distinct, well-spread keys.
  return ir::Fingerprint{I * 0x9e3779b97f4a7c15ULL + 1, I};
}

std::shared_ptr<const CompileArtifact> artifact(const std::string &Tag) {
  auto A = std::make_shared<CompileArtifact>();
  A->Ok = true;
  A->Error = Tag; // Repurposed as an identity marker for the test.
  return A;
}

/// One shard so whole-cache LRU order is exact.
CacheConfig singleShard(std::size_t MaxEntries) {
  CacheConfig C;
  C.Shards = 1;
  C.MaxEntries = MaxEntries;
  return C;
}

} // namespace

TEST(SolveCache, HitAndMissCounting) {
  SolveCache Cache(singleShard(8));
  EXPECT_EQ(Cache.lookup(key(1)), nullptr);
  Cache.insert(key(1), artifact("one"));
  auto Hit = Cache.lookup(key(1));
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Error, "one");
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Insertions, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_GT(S.Bytes, 0u);
  EXPECT_DOUBLE_EQ(S.hitRate(), 0.5);
}

TEST(SolveCache, LruEvictsLeastRecentlyUsedFirst) {
  // One shard of budget 4: keys 1..4 enter in order, a lookup refreshes 1,
  // so the exact recency order (coldest first) is 2, 3, 4, 1. Each further
  // insert evicts exactly the coldest entry.
  SolveCache Cache(singleShard(4));
  for (std::uint64_t I = 1; I <= 4; ++I)
    Cache.insert(key(I), artifact(std::to_string(I)));
  ASSERT_NE(Cache.lookup(key(1)), nullptr);

  Cache.insert(key(5), artifact("5"));
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_EQ(Cache.lookup(key(2)), nullptr) << "2 was the coldest";
  // Recency now (coldest first): 3, 4, 1, 5. Re-inserting 3 refreshes it.
  Cache.insert(key(3), artifact("3"));
  EXPECT_EQ(Cache.stats().Evictions, 1u) << "a replace evicts nothing";
  Cache.insert(key(6), artifact("6"));
  EXPECT_EQ(Cache.lookup(key(4)), nullptr) << "4 was the coldest";
  for (std::uint64_t I : {1, 3, 5, 6})
    EXPECT_NE(Cache.lookup(key(I)), nullptr) << "key " << I;
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 4u);
  EXPECT_EQ(S.Evictions, 2u);
}

TEST(SolveCache, LruEvictionHoldsBudgetAndKeepsHotEntries) {
  // An entry referenced before every insert is always the most recent
  // but one, so an insert storm never evicts it; the budget holds
  // exactly and evictions account for every displaced entry.
  SolveCache Cache(singleShard(8));
  Cache.insert(key(0), artifact("hot"));
  const std::uint64_t Storm = 200;
  for (std::uint64_t I = 1; I <= Storm; ++I) {
    ASSERT_NE(Cache.lookup(key(0)), nullptr) << "hot entry lost at " << I;
    Cache.insert(key(I), artifact(std::to_string(I)));
  }
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 8u);
  EXPECT_EQ(S.Evictions, S.Insertions - S.Entries);
  // The survivors are the hot key and the seven newest.
  for (std::uint64_t I = Storm - 6; I <= Storm; ++I)
    EXPECT_NE(Cache.lookup(key(I)), nullptr) << "key " << I;
  EXPECT_EQ(Cache.lookup(key(Storm - 7)), nullptr);
}

TEST(SolveCache, EvictionMatchesAReferenceLruUnderRandomTraffic) {
  // One shard of 64 against a list-based LRU model over 160 keys, so
  // eviction candidates found by one scan are often used, replaced or
  // re-inserted before their turn. Every lookup must hit exactly when
  // the model holds the key.
  const std::size_t Budget = 64;
  SolveCache Cache(singleShard(Budget));
  std::list<std::uint64_t> Model; // Most recent first.
  std::mt19937_64 Rng(7);
  for (int Op = 0; Op < 20000; ++Op) {
    std::uint64_t K = Rng() % 160;
    auto InModel = std::find(Model.begin(), Model.end(), K);
    if (Rng() % 2) {
      bool Hit = Cache.lookup(key(K)) != nullptr;
      ASSERT_EQ(Hit, InModel != Model.end()) << "key " << K << " op " << Op;
      if (Hit)
        Model.splice(Model.begin(), Model, InModel);
      continue;
    }
    Cache.insert(key(K), artifact(std::to_string(K)));
    if (InModel != Model.end())
      Model.erase(InModel);
    Model.push_front(K);
    if (Model.size() > Budget)
      Model.pop_back();
  }
  EXPECT_EQ(Cache.stats().Entries, Budget);
}

TEST(SolveCache, MaxEntriesIsATotalBudget) {
  // With the default shard count, the resident entry count after many
  // distinct inserts is exactly MaxEntries: never over a budget smaller
  // than the shard count, never under one that does not divide evenly.
  for (std::size_t Budget : {std::size_t(1), std::size_t(3), std::size_t(10),
                             std::size_t(1025)}) {
    CacheConfig C;
    C.MaxEntries = Budget;
    SolveCache Cache(C);
    for (std::uint64_t I = 0; I < 5000; ++I)
      Cache.insert(key(I), artifact("x"));
    EXPECT_EQ(Cache.stats().Entries, Budget) << "MaxEntries=" << Budget;
  }
}

TEST(SolveCache, ReinsertReplacesWithoutEviction) {
  SolveCache Cache(singleShard(2));
  Cache.insert(key(1), artifact("old"));
  Cache.insert(key(1), artifact("new"));
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Evictions, 0u);
  auto Hit = Cache.lookup(key(1));
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Error, "new");
}

TEST(SolveCache, ByteBudgetEvictsButKeepsAtLeastOne) {
  CacheConfig C = singleShard(100);
  C.MaxBytes = 1; // Every artifact is over budget on its own.
  SolveCache Cache(C);
  Cache.insert(key(1), artifact("1"));
  EXPECT_EQ(Cache.stats().Entries, 1u) << "a lone over-budget entry stays";
  Cache.insert(key(2), artifact("2"));
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_NE(Cache.lookup(key(2)), nullptr) << "most recent entry survives";
}

TEST(SolveCache, EvictedArtifactsSurviveForHolders) {
  SolveCache Cache(singleShard(1));
  Cache.insert(key(1), artifact("held"));
  auto Held = Cache.lookup(key(1));
  ASSERT_NE(Held, nullptr);
  Cache.insert(key(2), artifact("evictor"));
  // Budget 1: the insert evicts key 1, the least recently used entry.
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(Cache.lookup(key(1)), nullptr);
  EXPECT_NE(Cache.lookup(key(2)), nullptr);
  EXPECT_EQ(Held->Error, "held") << "eviction must not invalidate holders";
}

TEST(SolveCache, WorkingSetWithinBudgetNeverReadsTheStore) {
  // The L1 is the only decoded tier: a working set of at most a shard's
  // MaxEntries keys stays resident, so with a store attached every repeat
  // lookup is an L1 hit -- no store read and no decode.
  store::MemEnv E;
  auto Opened = store::SolveStore::open("db", {}, E);
  ASSERT_TRUE(Opened.ok());
  CacheConfig C = singleShard(16);
  SolveCache Cache(C);
  Cache.attachStore(Opened->get());
  for (std::uint64_t I = 0; I < C.MaxEntries; ++I)
    Cache.insert(key(I), artifact(std::to_string(I)));
  std::uint64_t StoreGets = (*Opened)->stats().Gets;
  for (int Round = 0; Round < 4; ++Round)
    for (std::uint64_t I = 0; I < C.MaxEntries; ++I) {
      bool FromL2 = true;
      auto A = Cache.lookup(key(I), &FromL2);
      ASSERT_NE(A, nullptr) << "round " << Round << " key " << I;
      EXPECT_EQ(A->Error, std::to_string(I));
      EXPECT_FALSE(FromL2);
    }
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 4 * C.MaxEntries);
  EXPECT_EQ(S.Misses, 0u);
  EXPECT_EQ(S.HitsL2, 0u);
  EXPECT_EQ(S.L2DecodeErrors, 0u);
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ((*Opened)->stats().Gets, StoreGets) << "the store was read";

  // clear() empties the L1: the next lookup is served by the store.
  Cache.clear();
  bool FromL2 = false;
  ASSERT_NE(Cache.lookup(key(0), &FromL2), nullptr);
  EXPECT_TRUE(FromL2);
  EXPECT_EQ(Cache.stats().HitsL2, 1u);
}

TEST(SolveCache, LockFreeReadersUnderConcurrentInsertEvictAreSane) {
  // The TSan hammer for the read path: readers spin lookups over a small
  // key space while writers force constant insert / evict churn in the
  // same shard. Every hit must return an internally
  // consistent artifact (the identity tag must match the key it was
  // inserted under), and the counters must balance.
  CacheConfig C;
  C.Shards = 1;
  C.MaxEntries = 8;
  SolveCache Cache(C);

  constexpr std::uint64_t KeySpace = 32;
  constexpr int Readers = 4;
  constexpr int Writers = 2;
  constexpr int OpsPerThread = 20000;
  std::atomic<std::uint64_t> Lookups{0};
  std::atomic<bool> Mismatch{false};

  std::vector<std::thread> Threads;
  Threads.reserve(Readers + Writers);
  for (int W = 0; W < Writers; ++W) {
    Threads.emplace_back([&, W] {
      std::uint64_t State = 0x2545f4914f6cdd1dULL * (W + 1);
      for (int I = 0; I < OpsPerThread; ++I) {
        State = State * 6364136223846793005ULL + 1442695040888963407ULL;
        std::uint64_t K = (State >> 33) % KeySpace;
        Cache.insert(key(K), artifact(std::to_string(K)));
      }
    });
  }
  for (int T = 0; T < Readers; ++T) {
    Threads.emplace_back([&, T] {
      std::uint64_t State = 0x9e3779b97f4a7c15ULL * (T + 1);
      for (int I = 0; I < OpsPerThread; ++I) {
        State = State * 6364136223846793005ULL + 1442695040888963407ULL;
        std::uint64_t K = (State >> 33) % KeySpace;
        Lookups.fetch_add(1, std::memory_order_relaxed);
        if (auto Hit = Cache.lookup(key(K))) {
          if (Hit->Error != std::to_string(K))
            Mismatch.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_FALSE(Mismatch.load()) << "a reader saw a torn key/value pair";
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits + S.Misses, Lookups.load());
  EXPECT_LE(S.Entries, C.MaxEntries);
  EXPECT_GT(S.Evictions, 0u);
}

TEST(SolveCache, ShardedCountersAggregate) {
  CacheConfig C;
  C.Shards = 4;
  C.MaxEntries = 64;
  SolveCache Cache(C);
  for (std::uint64_t I = 0; I < 32; ++I)
    Cache.insert(key(I), artifact("x"));
  for (std::uint64_t I = 0; I < 32; ++I)
    EXPECT_NE(Cache.lookup(key(I)), nullptr);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Insertions, 32u);
  EXPECT_EQ(S.Hits, 32u);
  EXPECT_EQ(S.Entries, 32u);

  Cache.clear();
  EXPECT_EQ(Cache.stats().Entries, 0u);
  EXPECT_EQ(Cache.stats().Bytes, 0u);
  EXPECT_EQ(Cache.stats().Insertions, 32u) << "clear() keeps counters";
}

TEST(SolveCache, ConcurrentEvictionRaceKeepsCountersAndArtifactsSane) {
  // Eight threads hammer a single shard whose budgets force constant
  // eviction: every lookup must be a clean hit or miss (hits + misses ==
  // lookups issued), held artifacts must stay intact after their entry is
  // evicted, and the shard must end within budget.
  CacheConfig C;
  C.Shards = 1;
  C.MaxEntries = 16;
  C.MaxBytes = 16 * sizeof(CompileArtifact); // Byte budget bites too.
  SolveCache Cache(C);

  constexpr int Threads = 8;
  constexpr int OpsPerThread = 4000;
  constexpr std::uint64_t KeySpace = 64; // Far beyond the entry budget.

  std::atomic<std::uint64_t> Lookups{0};
  std::vector<std::thread> Workers;
  std::vector<std::vector<std::shared_ptr<const CompileArtifact>>> Held(
      Threads);
  Workers.reserve(Threads);
  for (int T = 0; T < Threads; ++T) {
    Workers.emplace_back([&, T] {
      std::uint64_t State = 0x9e3779b97f4a7c15ULL * (T + 1);
      for (int I = 0; I < OpsPerThread; ++I) {
        State = State * 6364136223846793005ULL + 1442695040888963407ULL;
        std::uint64_t K = (State >> 33) % KeySpace;
        ++Lookups;
        if (auto Hit = Cache.lookup(key(K))) {
          // Hold a reference across future evictions.
          if (Held[T].size() < 64)
            Held[T].push_back(std::move(Hit));
        } else {
          Cache.insert(key(K), artifact(std::to_string(K)));
        }
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits + S.Misses, Lookups.load());
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_LE(S.Entries, C.MaxEntries);
  EXPECT_LE(S.Bytes, C.MaxBytes);

  // Every artifact held through an eviction is still readable and carries
  // the identity it was inserted with.
  for (int T = 0; T < Threads; ++T)
    for (const auto &A : Held[T]) {
      ASSERT_NE(A, nullptr);
      EXPECT_TRUE(A->Ok);
      EXPECT_FALSE(A->Error.empty());
    }
}
