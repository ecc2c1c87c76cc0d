//===- InlineHitTest.cpp - Cache hits served on the submitting thread ------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// submit and compileBatch serve a request whose front end the memo holds
// and whose artifact the L1 holds on the caller's thread: the future is
// ready when submit returns, and neither pause() nor queue-depth
// admission applies to it. Everything else -- memo misses, L1 misses and
// expired requests -- takes the queue, and each request counts exactly
// one memo outcome and one L1 outcome.
//
//===----------------------------------------------------------------------===//

#include "aqua/service/CompileService.h"

#include "aqua/assays/PaperAssays.h"
#include "aqua/obs/FlightRecorder.h"
#include "aqua/obs/Trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace aqua;
using namespace aqua::service;

namespace {

CompileRequest glucose(double CapacityNl = 100.0) {
  CompileRequest R;
  R.Name = "glucose";
  R.Source = assays::glucoseSource();
  R.Spec.MaxCapacityNl = CapacityNl;
  return R;
}

/// A request the memo has never seen: its own graph object.
CompileRequest freshGraph() {
  CompileRequest R;
  R.Name = "fresh";
  R.Graph =
      std::make_shared<const ir::AssayGraph>(assays::buildGlucoseAssay());
  return R;
}

ServiceOptions oneWorker(std::size_t MaxQueueDepth = 0) {
  ServiceOptions O;
  O.Threads = 1;
  O.MaxQueueDepth = MaxQueueDepth;
  return O;
}

bool ready(std::future<CompileResponse> &F) {
  return F.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// The global flight recorder's digest for \p TraceId.
obs::RequestDigest digestOf(std::uint64_t TraceId) {
  for (const obs::RequestDigest &D : obs::FlightRecorder::global().snapshot())
    if (D.TraceId == TraceId)
      return D;
  ADD_FAILURE() << "no digest for trace " << TraceId;
  return {};
}

} // namespace

TEST(InlineHit, CachedRequestResolvesBeforeSubmitReturnsWhilePaused) {
  CompileService Service(oneWorker());
  ASSERT_TRUE(Service.submit(glucose()).get().Ok);
  Service.pause();
  std::future<CompileResponse> F = Service.submit(glucose());
  ASSERT_TRUE(ready(F)) << "a hit must not wait for a paused worker";
  EXPECT_EQ(Service.queueDepth(), 0u);
  CompileResponse R = F.get();
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.CacheHit);
  EXPECT_FALSE(R.CacheHitL2);
  EXPECT_FALSE(R.Deduplicated);
  EXPECT_NE(R.TraceId, 0u);
  EXPECT_GT(R.LatencySec, 0.0);
  obs::RequestDigest D = digestOf(R.TraceId);
  EXPECT_EQ(D.Outcome, obs::RequestOutcome::Hit);
  EXPECT_EQ(D.FrontEnd, obs::FrontEndPath::Memo);
  EXPECT_EQ(D.QueueWaitSec, 0.0);
  EXPECT_EQ(D.LatencySec, R.LatencySec);
  Service.resume();
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Submitted, 2u);
  EXPECT_EQ(S.Completed, 2u);
}

TEST(InlineHit, HitIsServedWhenTheQueueIsFull) {
  CompileService Service(oneWorker(/*MaxQueueDepth=*/1));
  ASSERT_TRUE(Service.submit(glucose()).get().Ok);
  Service.pause();
  std::future<CompileResponse> Queued = Service.submit(freshGraph());
  std::future<CompileResponse> Turned = Service.submit(freshGraph());
  ASSERT_EQ(Service.queueDepth(), 1u);
  ASSERT_TRUE(ready(Turned));
  EXPECT_EQ(Turned.get().Shed, ShedReason::QueueFull);

  std::future<CompileResponse> Hit = Service.submit(glucose());
  ASSERT_TRUE(ready(Hit));
  CompileResponse R = Hit.get();
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Shed, ShedReason::None);
  EXPECT_TRUE(R.CacheHit);
  EXPECT_EQ(Service.queueDepth(), 1u);
  EXPECT_EQ(Service.stats().ShedQueueFull, 1u);
  Service.resume();
  EXPECT_TRUE(Queued.get().Ok);
}

TEST(InlineHit, ExpiredCachedRequestStillShedsAtDequeue) {
  CompileService Service(oneWorker());
  ASSERT_TRUE(Service.submit(glucose()).get().Ok);
  // Anchor the tracer epoch and let the clock pass 1 us, so a deadline of
  // 1 has certainly expired.
  while (obs::Tracer::nowMicros() < 2)
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  Service.pause();
  CompileRequest Expired = glucose();
  Expired.DeadlineMicros = 1;
  std::future<CompileResponse> F = Service.submit(std::move(Expired));
  EXPECT_FALSE(ready(F)) << "an expired request takes the queue";
  EXPECT_EQ(Service.queueDepth(), 1u);
  Service.resume();
  CompileResponse R = F.get();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Shed, ShedReason::DeadlineExpired);
  EXPECT_FALSE(R.CacheHit);
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.ShedDeadline, 1u);
  EXPECT_EQ(S.Cache.Hits, 0u) << "the shed request never probed the L1";
  EXPECT_EQ(S.CanonMemoHits, 0u) << "nor the memo";
}

TEST(InlineHit, EachRequestCountsOneMemoAndOneL1Outcome) {
  // A source miss, its repeat, the same source under a new spec (a memo
  // hit, then an L1 miss the worker solves), and that repeat.
  CompileService Service(oneWorker());
  CompileResponse Miss = Service.submit(glucose(100)).get();
  CompileResponse Hit = Service.submit(glucose(100)).get();
  CompileResponse NewSpec = Service.submit(glucose(150)).get();
  CompileResponse Again = Service.submit(glucose(150)).get();
  for (const CompileResponse *R : {&Miss, &Hit, &NewSpec, &Again})
    ASSERT_TRUE(R->Ok) << R->Error;
  EXPECT_FALSE(Miss.CacheHit);
  EXPECT_TRUE(Hit.CacheHit);
  EXPECT_FALSE(NewSpec.CacheHit);
  EXPECT_TRUE(Again.CacheHit);
  EXPECT_NE(NewSpec.Key, Miss.Key);
  EXPECT_EQ(Again.Key, NewSpec.Key);
  EXPECT_EQ(digestOf(NewSpec.TraceId).FrontEnd, obs::FrontEndPath::Memo)
      << "the worker starts from the caller's memo hit";

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.CanonMemoHits, 3u) << "one memo outcome per request";
  EXPECT_EQ(S.Cache.Hits, 2u);
  EXPECT_EQ(S.Cache.Misses, 2u) << "one L1 outcome per request";
  EXPECT_EQ(S.Cache.Joins, 0u);
  EXPECT_EQ(S.Cache.Insertions, 2u);
  EXPECT_EQ(S.Completed, 4u);
}

TEST(InlineHit, ConcurrentSubmitsMixHitsAndMisses) {
  // Four clients submit and batch one source under four specs, so hits
  // probe on the clients while misses solve on the workers. Every request
  // counts one memo and one L1 outcome, and every key has one artifact.
  const double Caps[] = {100, 125, 150, 200};
  constexpr int Clients = 4, PerClient = 48;
  ServiceOptions O;
  O.Threads = 2;
  CompileService Service(O);
  std::vector<std::vector<CompileResponse>> Got(Clients);
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      std::vector<CompileRequest> Batch;
      std::vector<std::future<CompileResponse>> Futures;
      for (int I = 0; I < PerClient; ++I) {
        CompileRequest R = glucose(Caps[(C + I) % 4]);
        if (I % 2)
          Futures.push_back(Service.submit(std::move(R)));
        else
          Batch.push_back(std::move(R));
      }
      Got[C] = Service.compileBatch(std::move(Batch));
      for (auto &F : Futures)
        Got[C].push_back(F.get());
    });
  for (std::thread &T : Threads)
    T.join();

  std::map<ir::Fingerprint, const CompileArtifact *> ArtifactOf;
  for (const auto &Responses : Got) {
    ASSERT_EQ(Responses.size(), static_cast<std::size_t>(PerClient));
    for (const CompileResponse &R : Responses) {
      ASSERT_TRUE(R.Ok) << R.Error;
      auto [It, New] = ArtifactOf.try_emplace(R.Key, R.Artifact.get());
      EXPECT_EQ(It->second, R.Artifact.get()) << "one artifact per key";
    }
  }
  EXPECT_EQ(ArtifactOf.size(), 4u);

  const std::uint64_t N = Clients * PerClient;
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Submitted, N);
  EXPECT_EQ(S.Completed, N);
  EXPECT_EQ(S.CanonMemoHits, N - 1) << "one lowering, every other request "
                                       "a memo hit or join";
  EXPECT_EQ(S.Cache.Misses, 4u) << "one solve per key";
  EXPECT_EQ(S.Cache.Hits + S.Cache.Misses + S.Cache.Joins, N);
}
