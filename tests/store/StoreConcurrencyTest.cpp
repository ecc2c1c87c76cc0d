//===- StoreConcurrencyTest.cpp - Threaded store + L2 write-through hammer ------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Single-process concurrency coverage, built to run under TSan (the CI
// sanitizer job runs this binary): raw SolveStore put/get/compact races,
// and the SolveCache -> store write-through / L2-promotion paths under
// contention. The fork-based multi-process coverage lives in
// MultiProcessTest.cpp, outside the TSan target list.
//
//===----------------------------------------------------------------------===//

#include "aqua/service/ArtifactCodec.h"
#include "aqua/service/SolveCache.h"
#include "aqua/store/SolveStore.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace aqua;
using namespace aqua::service;
using namespace aqua::store;

namespace {

ir::Fingerprint key(std::uint64_t Hi, std::uint64_t Lo) {
  ir::Fingerprint F;
  F.Hi = Hi;
  F.Lo = Lo;
  return F;
}

std::string payloadFor(std::uint64_t I) {
  return "payload-" + std::to_string(I) + std::string(I % 64, '.');
}

/// A small synthetic artifact whose encoding is deterministic in \p I.
std::shared_ptr<const CompileArtifact> artifactFor(std::uint64_t I) {
  auto A = std::make_shared<CompileArtifact>();
  A->Ok = true;
  A->Error = "tag-" + std::to_string(I);
  return A;
}

} // namespace

TEST(StoreConcurrency, ParallelPutGetAcrossThreads) {
  MemEnv E;
  auto Opened = SolveStore::open("db", {}, E);
  ASSERT_TRUE(Opened.ok());
  SolveStore &S = **Opened;

  constexpr int Threads = 8, PerThread = 100;
  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I) {
        std::uint64_t Id = static_cast<std::uint64_t>(T) * 1000 + I;
        if (!S.put(key(Id, Id), payloadFor(Id)).ok())
          ++Mismatches;
        // Read back something another thread probably wrote.
        std::uint64_t Probe =
            (static_cast<std::uint64_t>(Threads - 1 - T)) * 1000 +
            (I ? I - 1 : 0);
        std::string Out;
        if (S.get(key(Probe, Probe), Out) && Out != payloadFor(Probe))
          ++Mismatches;
      }
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0);
  for (int T = 0; T < Threads; ++T)
    for (int I = 0; I < PerThread; ++I) {
      std::uint64_t Id = static_cast<std::uint64_t>(T) * 1000 + I;
      std::string Out;
      ASSERT_TRUE(S.get(key(Id, Id), Out)) << "lost key " << Id;
      EXPECT_EQ(Out, payloadFor(Id));
    }
}

TEST(StoreConcurrency, CompactionRacesReadersAndWriters) {
  MemEnv E;
  auto Opened = SolveStore::open("db", {}, E);
  ASSERT_TRUE(Opened.ok());
  SolveStore &S = **Opened;
  for (std::uint64_t I = 0; I < 50; ++I)
    ASSERT_TRUE(S.put(key(I, 0), payloadFor(I)).ok());

  std::atomic<bool> Stop{false};
  std::atomic<int> Bad{0};
  std::thread Compactor([&] {
    while (!Stop.load())
      if (!S.compact().ok())
        ++Bad;
  });
  // The writer runs to completion (the final sweep asserts every key);
  // only the compactor is stop-gated.
  std::thread Writer([&] {
    for (std::uint64_t I = 50; I < 150; ++I)
      if (!S.put(key(I, 0), payloadFor(I)).ok())
        ++Bad;
  });
  for (int Round = 0; Round < 200; ++Round)
    for (std::uint64_t I = 0; I < 50; ++I) {
      std::string Out;
      if (S.get(key(I, 0), Out) && Out != payloadFor(I))
        ++Bad;
    }
  Writer.join();
  Stop.store(true);
  Compactor.join();
  EXPECT_EQ(Bad.load(), 0);
  for (std::uint64_t I = 0; I < 150; ++I) {
    std::string Out;
    ASSERT_TRUE(S.get(key(I, 0), Out)) << "key " << I << " lost in the race";
    EXPECT_EQ(Out, payloadFor(I));
  }
}

TEST(StoreConcurrency, WriteThroughCacheHammer) {
  MemEnv E;
  auto Opened = SolveStore::open("db", {}, E);
  ASSERT_TRUE(Opened.ok());

  CacheConfig Cfg;
  Cfg.Shards = 4;
  // Tiny L1: constant eviction, so lookups keep falling through to the L2
  // promotion path while inserts write through -- the racy paths by design.
  Cfg.MaxEntries = 8;
  SolveCache Cache(Cfg);
  Cache.attachStore(Opened->get());

  constexpr int Threads = 8, Keys = 40, Rounds = 60;
  std::atomic<int> Bad{0};
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (int R = 0; R < Rounds; ++R)
        for (std::uint64_t I = 0; I < Keys; ++I) {
          if ((T + R + I) % 3 == 0)
            Cache.insert(key(I, I * 3), artifactFor(I));
          bool FromL2 = false;
          if (auto Hit = Cache.lookup(key(I, I * 3), &FromL2))
            if (Hit->Error != "tag-" + std::to_string(I))
              ++Bad;
        }
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Bad.load(), 0);

  CacheStats St = Cache.stats();
  EXPECT_GT(St.HitsL2, 0u) << "the tiny L1 must have promoted from the L2";
  EXPECT_EQ(St.L2DecodeErrors, 0u);

  // Everything written through is durable: a *fresh* cache over the same
  // store serves every key from disk alone.
  SolveCache Cold(Cfg);
  Cold.attachStore(Opened->get());
  for (std::uint64_t I = 0; I < Keys; ++I) {
    bool FromL2 = false;
    auto Hit = Cold.lookup(key(I, I * 3), &FromL2);
    ASSERT_NE(Hit, nullptr) << "key " << I << " not persisted";
    EXPECT_TRUE(FromL2);
    EXPECT_EQ(Hit->Error, "tag-" + std::to_string(I));
  }
  EXPECT_EQ(Cold.stats().HitsL2, static_cast<std::uint64_t>(Keys));
}

TEST(StoreConcurrency, DetachedCacheNeverTouchesStore) {
  MemEnv E;
  auto Opened = SolveStore::open("db", {}, E);
  ASSERT_TRUE(Opened.ok());
  SolveCache Cache;
  Cache.attachStore(Opened->get());
  Cache.insert(key(1, 1), artifactFor(1));
  Cache.attachStore(nullptr);
  Cache.insert(key(2, 2), artifactFor(2));
  EXPECT_TRUE((*Opened)->contains(key(1, 1)));
  EXPECT_FALSE((*Opened)->contains(key(2, 2)))
      << "detached cache must not write through";
}
