//===- StoreTest.cpp - Persistent solve-store unit tests ------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/store/SolveStore.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace aqua;
using namespace aqua::store;

namespace {

ir::Fingerprint key(std::uint64_t Hi, std::uint64_t Lo) {
  ir::Fingerprint F;
  F.Hi = Hi;
  F.Lo = Lo;
  return F;
}

std::unique_ptr<SolveStore> openOrDie(const std::string &Dir, Env &E,
                                      StoreOptions Opts = {}) {
  auto S = SolveStore::open(Dir, Opts, E);
  EXPECT_TRUE(S.ok()) << (S.ok() ? "" : S.message());
  return std::move(S.get());
}

} // namespace

TEST(SolveStore, PutGetRoundTrip) {
  MemEnv E;
  auto S = openOrDie("db", E);
  ASSERT_TRUE(S->put(key(1, 2), "hello payload").ok());
  std::string Out;
  ASSERT_TRUE(S->get(key(1, 2), Out));
  EXPECT_EQ(Out, "hello payload");
  EXPECT_FALSE(S->get(key(9, 9), Out));
  EXPECT_TRUE(S->contains(key(1, 2)));
  EXPECT_FALSE(S->contains(key(9, 9)));
  StoreStats St = S->stats();
  EXPECT_EQ(St.Appends, 1u);
  EXPECT_EQ(St.Keys, 1u);
  EXPECT_EQ(St.Hits, 1u);
}

TEST(SolveStore, EmptyPayloadAndBinaryBytes) {
  MemEnv E;
  auto S = openOrDie("db", E);
  std::string Binary("\x00\xff\x31\x43\x52\x41\x00", 7); // Embedded NULs +
                                                         // the record magic.
  ASSERT_TRUE(S->put(key(1, 1), "").ok());
  ASSERT_TRUE(S->put(key(2, 2), Binary).ok());
  std::string Out;
  ASSERT_TRUE(S->get(key(1, 1), Out));
  EXPECT_EQ(Out, "");
  ASSERT_TRUE(S->get(key(2, 2), Out));
  EXPECT_EQ(Out, Binary);
}

TEST(SolveStore, SurvivesReopen) {
  MemEnv E;
  {
    auto S = openOrDie("db", E);
    ASSERT_TRUE(S->put(key(1, 2), "persisted").ok());
    ASSERT_TRUE(S->put(key(3, 4), "also persisted").ok());
  }
  auto S2 = openOrDie("db", E);
  std::string Out;
  ASSERT_TRUE(S2->get(key(1, 2), Out));
  EXPECT_EQ(Out, "persisted");
  ASSERT_TRUE(S2->get(key(3, 4), Out));
  EXPECT_EQ(Out, "also persisted");
  EXPECT_EQ(S2->stats().Keys, 2u);
}

TEST(SolveStore, LastWriterWinsOnRewrite) {
  MemEnv E;
  auto S = openOrDie("db", E);
  ASSERT_TRUE(S->put(key(1, 2), "v1").ok());
  ASSERT_TRUE(S->put(key(1, 2), "v2").ok());
  std::string Out;
  ASSERT_TRUE(S->get(key(1, 2), Out));
  EXPECT_EQ(Out, "v2");
  // Still v2 after a reopen: the later record supersedes at scan time too.
  auto S2 = openOrDie("db", E);
  ASSERT_TRUE(S2->get(key(1, 2), Out));
  EXPECT_EQ(Out, "v2");
}

TEST(SolveStore, TwoHandlesShareOneDirectory) {
  MemEnv E;
  auto A = openOrDie("db", E);
  auto B = openOrDie("db", E);
  ASSERT_TRUE(A->put(key(1, 0), "from A").ok());
  ASSERT_TRUE(B->put(key(2, 0), "from B").ok());
  std::string Out;
  // RefreshOnMiss finds the other writer's segment.
  ASSERT_TRUE(A->get(key(2, 0), Out));
  EXPECT_EQ(Out, "from B");
  ASSERT_TRUE(B->get(key(1, 0), Out));
  EXPECT_EQ(Out, "from A");
}

TEST(SolveStore, RefreshSeesTailAppendsOfLiveWriters) {
  MemEnv E;
  auto A = openOrDie("db", E);
  auto B = openOrDie("db", E);
  ASSERT_TRUE(A->put(key(1, 0), "first").ok());
  std::string Out;
  ASSERT_TRUE(B->get(key(1, 0), Out)); // B now knows A's segment.
  ASSERT_TRUE(A->put(key(2, 0), "second, same segment").ok());
  // B's next refresh must pick up the *tail* of the known segment.
  ASSERT_TRUE(B->get(key(2, 0), Out));
  EXPECT_EQ(Out, "second, same segment");
}

TEST(SolveStore, NoRefreshOnMissStaysStale) {
  MemEnv E;
  StoreOptions Opts;
  Opts.RefreshOnMiss = false;
  auto A = openOrDie("db", E);
  auto B = openOrDie("db", E, Opts);
  ASSERT_TRUE(A->put(key(1, 0), "x").ok());
  std::string Out;
  EXPECT_FALSE(B->get(key(1, 0), Out));
  B->refresh(); // Explicit refresh still works.
  EXPECT_TRUE(B->get(key(1, 0), Out));
}

TEST(SolveStore, OversizedPayloadRejected) {
  MemEnv E;
  StoreOptions Opts;
  Opts.MaxPayloadBytes = 16;
  auto S = openOrDie("db", E, Opts);
  EXPECT_FALSE(S->put(key(1, 1), std::string(17, 'x')).ok());
  EXPECT_TRUE(S->put(key(1, 1), std::string(16, 'x')).ok());
}

TEST(SolveStore, CompactionMergesAndDropsSuperseded) {
  MemEnv E;
  {
    // Three writers, one key superseded twice: compaction should keep only
    // the winners.
    auto A = openOrDie("db", E);
    ASSERT_TRUE(A->put(key(1, 0), "old").ok());
    ASSERT_TRUE(A->put(key(2, 0), "keep2").ok());
  }
  {
    auto B = openOrDie("db", E);
    ASSERT_TRUE(B->put(key(1, 0), "new").ok());
    ASSERT_TRUE(B->put(key(3, 0), "keep3").ok());
  }
  auto S = openOrDie("db", E);
  std::uint64_t Before = E.listDir("db").get().size();
  ASSERT_TRUE(S->compact().ok());
  StoreStats St = S->stats();
  EXPECT_EQ(St.Compactions, 1u);
  EXPECT_GE(St.SegmentsCompacted, 2u);
  // Fewer files than before (two inputs became one output; LOCK remains).
  EXPECT_LT(E.listDir("db").get().size(), Before + 1);
  std::string Out;
  ASSERT_TRUE(S->get(key(1, 0), Out));
  EXPECT_EQ(Out, "new");
  ASSERT_TRUE(S->get(key(2, 0), Out));
  EXPECT_EQ(Out, "keep2");
  ASSERT_TRUE(S->get(key(3, 0), Out));
  EXPECT_EQ(Out, "keep3");
  // And the compacted store reopens clean.
  auto S2 = openOrDie("db", E);
  ASSERT_TRUE(S2->get(key(1, 0), Out));
  EXPECT_EQ(Out, "new");
  EXPECT_EQ(S2->stats().Keys, 3u);
}

TEST(SolveStore, CompactionOfACompactStoreRewritesNothing) {
  MemEnv E;
  auto S = openOrDie("db", E);
  ASSERT_TRUE(S->put(key(1, 0), "one").ok());
  ASSERT_TRUE(S->put(key(2, 0), "two").ok());
  ASSERT_TRUE(S->compact().ok());
  const std::vector<std::string> Files = E.listDir("db").get();
  // One clean segment: further passes leave every file and count alone.
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(S->compact().ok());
  EXPECT_EQ(S->stats().Compactions, 1u);
  EXPECT_EQ(E.listDir("db").get(), Files);
  // A put, or a segment written by another store, is work again.
  ASSERT_TRUE(S->put(key(1, 0), "one again").ok());
  ASSERT_TRUE(S->compact().ok());
  EXPECT_EQ(S->stats().Compactions, 2u);
  {
    auto Other = openOrDie("db", E);
    ASSERT_TRUE(Other->put(key(3, 0), "three").ok());
  }
  ASSERT_TRUE(S->compact().ok());
  EXPECT_EQ(S->stats().Compactions, 3u);
  EXPECT_EQ(S->stats().Segments, 1u);
  std::string Out;
  ASSERT_TRUE(S->get(key(1, 0), Out));
  EXPECT_EQ(Out, "one again");
  ASSERT_TRUE(S->get(key(3, 0), Out));
  EXPECT_EQ(Out, "three");
}

TEST(SolveStore, CompactionSkipsLiveWriterSegments) {
  MemEnv E;
  auto A = openOrDie("db", E);
  auto B = openOrDie("db", E);
  ASSERT_TRUE(A->put(key(1, 0), "live A").ok());
  ASSERT_TRUE(B->put(key(2, 0), "live B").ok());
  // A compacts: B's segment has a live writer lock, so it must survive;
  // A rotates its own writer, so its own segment is eligible.
  ASSERT_TRUE(A->compact().ok());
  std::string Out;
  ASSERT_TRUE(A->get(key(1, 0), Out));
  EXPECT_EQ(Out, "live A");
  ASSERT_TRUE(A->get(key(2, 0), Out));
  EXPECT_EQ(Out, "live B");
  // B can still append to its held segment afterwards.
  ASSERT_TRUE(B->put(key(3, 0), "post-compaction append").ok());
  ASSERT_TRUE(A->get(key(3, 0), Out));
  EXPECT_EQ(Out, "post-compaction append");
}

TEST(SolveStore, KeysEnumeratesEverything) {
  MemEnv E;
  auto S = openOrDie("db", E);
  for (std::uint64_t I = 0; I < 20; ++I)
    ASSERT_TRUE(S->put(key(I, I * 7), "p" + std::to_string(I)).ok());
  std::vector<ir::Fingerprint> Keys = S->keys();
  EXPECT_EQ(Keys.size(), 20u);
}

TEST(SolveStoreProperty, ManyKeysSurviveReopenAndCompaction) {
  MemEnv E;
  constexpr int N = 500;
  {
    auto S = openOrDie("db", E);
    for (int I = 0; I < N; ++I)
      ASSERT_TRUE(
          S->put(key(I, I), std::string(1 + I % 97, char('a' + I % 26))).ok());
  }
  auto S = openOrDie("db", E);
  ASSERT_TRUE(S->compact().ok());
  auto S2 = openOrDie("db", E);
  for (int I = 0; I < N; ++I) {
    std::string Out;
    ASSERT_TRUE(S2->get(key(I, I), Out)) << "key " << I;
    EXPECT_EQ(Out, std::string(1 + I % 97, char('a' + I % 26)));
  }
}
