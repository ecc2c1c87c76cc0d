//===- KeyedTableTest.cpp - Sharded LRU with pending keys -----------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/service/KeyedTable.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace aqua::service;

namespace {

/// Spreads small integer keys over the shards (the top bits pick one).
struct Mix {
  std::size_t operator()(int K) const {
    return static_cast<std::size_t>(K) * 0x9e3779b97f4a7c15ULL;
  }
};

using Table = KeyedTable<int, std::string, Mix>;
using Found = Table::Found;

constexpr std::size_t NoByteBudget = SIZE_MAX;

} // namespace

TEST(KeyedTable, OwnerPublishesAndLaterClaimsHit) {
  Table T(4, NoByteBudget, 1);
  {
    auto Owner = T.claim(1);
    ASSERT_EQ(Owner.found(), Found::Owner);
    EXPECT_EQ(T.stats().Entries, 0u) << "a pending key is not resident";
    EXPECT_EQ(Owner.publish("one"), 0u);
  }
  auto Again = T.claim(1);
  ASSERT_EQ(Again.found(), Found::Hit);
  EXPECT_EQ(Again.get(), "one");
  KeyedTableStats S = T.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Joins, 0u);
  EXPECT_EQ(S.Insertions, 1u);
  EXPECT_EQ(S.Entries, 1u);
}

TEST(KeyedTable, ClaimsOnAPendingKeyJoinItsOwner) {
  Table T(4, NoByteBudget, 1);
  auto Owner = T.claim(7);
  auto A = T.claim(7);
  auto B = T.claim(7);
  ASSERT_EQ(Owner.found(), Found::Owner);
  EXPECT_EQ(A.found(), Found::Join);
  EXPECT_EQ(B.found(), Found::Join);
  EXPECT_EQ(T.find(7), "") << "find() neither waits on nor sees a pending key";
  Owner.publish("seven");
  EXPECT_EQ(A.get(), "seven");
  EXPECT_EQ(B.get(), "seven");
  KeyedTableStats S = T.stats();
  EXPECT_EQ(S.Joins, 2u);
  EXPECT_EQ(S.Misses, 2u) << "the owner's claim and the find()";
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Entries, 1u);
}

TEST(KeyedTable, AbandonHandsWaitersTheValueAndForgetsTheKey) {
  // The failure rule: a value not worth keeping (a source that fails to
  // parse) still reaches every waiter, and the next claim computes again.
  Table T(4, NoByteBudget, 1);
  auto Owner = T.claim(3);
  auto Waiter = T.claim(3);
  ASSERT_EQ(Waiter.found(), Found::Join);
  Owner.abandon("parse error");
  EXPECT_EQ(Waiter.get(), "parse error");
  EXPECT_EQ(T.stats().Entries, 0u);
  EXPECT_EQ(T.stats().Insertions, 0u);
  auto Next = T.claim(3);
  EXPECT_EQ(Next.found(), Found::Owner) << "an abandoned key is recomputed";
}

TEST(KeyedTable, AnOwnerThatLeavesWithoutAValueFailsItsWaiters) {
  // An owner that throws abandons the key from its destructor; its waiters
  // see the failure instead of blocking forever, and the key is free.
  Table T(4, NoByteBudget, 1);
  std::unique_ptr<Table::Claim> Owner(new Table::Claim(T.claim(5)));
  ASSERT_EQ(Owner->found(), Found::Owner);
  auto Waiter = T.claim(5);
  ASSERT_EQ(Waiter.found(), Found::Join);
  Owner.reset();
  EXPECT_THROW(Waiter.get(), std::future_error);
  EXPECT_EQ(T.claim(5).found(), Found::Owner);
}

TEST(KeyedTable, PendingKeysAreNeverEvicted) {
  // A budget of two and ten publishes while key 100 is pending: eight
  // evictions, none of them the pending key, which later claims still join
  // and which its owner publishes as the most recent entry.
  Table T(2, NoByteBudget, 1);
  auto Pending = T.claim(100);
  ASSERT_EQ(Pending.found(), Found::Owner);
  for (int K = 0; K < 10; ++K) {
    auto C = T.claim(K);
    ASSERT_EQ(C.found(), Found::Owner);
    C.publish(std::to_string(K));
  }
  EXPECT_EQ(T.stats().Evictions, 8u);
  EXPECT_EQ(T.stats().Entries, 2u);
  auto Waiter = T.claim(100);
  ASSERT_EQ(Waiter.found(), Found::Join) << "the pending key survived";
  EXPECT_EQ(Pending.publish("late"), 1u);
  EXPECT_EQ(Waiter.get(), "late");
  EXPECT_EQ(T.find(100), "late");
  EXPECT_EQ(T.find(9), "9");
  EXPECT_EQ(T.find(8), "") << "the publish evicted the oldest entry";
}

TEST(KeyedTable, ZeroBudgetKeepsNothingButStillCoalesces) {
  Table T(0, NoByteBudget, 8);
  auto Owner = T.claim(1);
  auto Waiter = T.claim(1);
  ASSERT_EQ(Owner.found(), Found::Owner);
  ASSERT_EQ(Waiter.found(), Found::Join) << "single flight without a budget";
  EXPECT_EQ(Owner.publish("v"), 0u);
  EXPECT_EQ(Waiter.get(), "v");
  KeyedTableStats S = T.stats();
  EXPECT_EQ(S.Entries, 0u);
  EXPECT_EQ(S.Insertions, 0u);
  EXPECT_EQ(T.claim(1).found(), Found::Owner) << "nothing was kept";
}

TEST(KeyedTable, ConcurrentClaimsComputeOncePerResidency) {
  // The TSan hammer for the table: eight threads claim 64 keys through
  // 16 entries in four shards, so keys are evicted and computed again,
  // and owners abandon every fifth key. At most one owner per key is ever
  // computing, every claim yields its key's value, and the counters
  // balance: each claim is one hit, join or miss, and each miss is one
  // computation.
  constexpr int Threads = 8, Ops = 4000, KeySpace = 64;
  Table T(16, NoByteBudget, 4);
  std::array<std::atomic<int>, KeySpace> Computing{};
  std::atomic<std::uint64_t> Claims{0}, Computations{0};
  std::atomic<bool> Overlap{false}, Wrong{false};
  std::vector<std::thread> Workers;
  for (int W = 0; W < Threads; ++W)
    Workers.emplace_back([&, W] {
      std::uint64_t State = 0x9e3779b97f4a7c15ULL * (W + 1);
      for (int I = 0; I < Ops; ++I) {
        State = State * 6364136223846793005ULL + 1442695040888963407ULL;
        const int K = static_cast<int>((State >> 33) % KeySpace);
        ++Claims;
        auto C = T.claim(K);
        std::string V;
        if (C.found() == Found::Owner) {
          ++Computations;
          if (Computing[K].fetch_add(1) != 0)
            Overlap = true;
          V = std::to_string(K);
          std::this_thread::yield(); // Let other claims find it pending.
          Computing[K].fetch_sub(1);
          if (K % 5 == 0)
            C.abandon(V);
          else
            C.publish(V);
        } else {
          V = C.get();
        }
        if (V != std::to_string(K))
          Wrong = true;
      }
    });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_FALSE(Overlap.load()) << "two owners computed one key at once";
  EXPECT_FALSE(Wrong.load()) << "a claim yielded another key's value";
  KeyedTableStats S = T.stats();
  EXPECT_EQ(S.Hits + S.Joins + S.Misses, Claims.load());
  EXPECT_EQ(S.Misses, Computations.load());
  EXPECT_LE(S.Entries, 16u);
  EXPECT_GT(S.Evictions, 0u);
}
