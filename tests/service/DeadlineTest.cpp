//===- DeadlineTest.cpp - Deadline, admission-control, and shedding tests -------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The service's production shaping: per-request deadlines, queue-depth
// admission control, priority bypass, and the shed accounting that backs
// the service.shed_* metrics. pause() right after construction (the queue
// is still empty) and resume() make every scenario deterministic -- the
// queue is built while no worker drains it.
//
//===----------------------------------------------------------------------===//

#include "aqua/service/CompileService.h"

#include "aqua/assays/PaperAssays.h"
#include "aqua/obs/Metrics.h"
#include "aqua/obs/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace aqua;
using namespace aqua::service;

namespace {

CompileRequest glucoseRequest(const char *Name = "glucose") {
  CompileRequest R;
  R.Name = Name;
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

/// An absolute deadline that has certainly passed. The tracer clock's
/// epoch is its first call, so in a fresh test process `nowMicros() - 1`
/// would underflow to the far future; anchor the epoch, let the clock
/// tick past 1, and use 1 as the long-expired instant.
std::uint64_t expiredDeadline() {
  obs::Tracer::nowMicros();
  while (obs::Tracer::nowMicros() < 2)
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  return 1;
}

} // namespace

TEST(ServiceShedding, QueueFullShedsWithDistinctStatus) {
  obs::MetricsRegistry &Reg = obs::metrics();
  std::uint64_t ShedBefore = Reg.counter("service.shed_total").value();
  std::uint64_t FullBefore = Reg.counter("service.shed.queue_full").value();

  CompileService Service(oneWorker(/*MaxQueueDepth=*/2));
  Service.pause();
  std::vector<std::future<CompileResponse>> Futures;
  for (int I = 0; I < 4; ++I)
    Futures.push_back(Service.submit(glucoseRequest()));
  EXPECT_EQ(Service.queueDepth(), 2u);

  // The overflow futures resolve immediately, without a worker.
  for (int I = 2; I < 4; ++I) {
    CompileResponse R = Futures[I].get();
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Shed, ShedReason::QueueFull);
    EXPECT_NE(R.Error.find("queue_full"), std::string::npos);
    EXPECT_EQ(R.Artifact, nullptr);
  }
  // The admitted ones complete once the service drains.
  Service.resume();
  for (int I = 0; I < 2; ++I) {
    CompileResponse R = Futures[I].get();
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Shed, ShedReason::None);
  }

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.ShedQueueFull, 2u);
  EXPECT_EQ(S.ShedDeadline, 0u);
  EXPECT_EQ(S.shedTotal(), 2u);
  EXPECT_EQ(S.Submitted, 4u);
  EXPECT_EQ(S.Completed, 2u) << "shed requests are not completions";
  EXPECT_EQ(S.Failed, 0u) << "shed requests are not failures";
  EXPECT_EQ(Reg.counter("service.shed_total").value() - ShedBefore, 2u);
  EXPECT_EQ(Reg.counter("service.shed.queue_full").value() - FullBefore, 2u);
}

TEST(ServiceShedding, OverloadKeepsAcceptingHighPriority) {
  CompileService Service(oneWorker(/*MaxQueueDepth=*/1));
  Service.pause();
  std::vector<std::future<CompileResponse>> Futures;
  Futures.push_back(Service.submit(glucoseRequest("normal-0")));
  // Queue is at budget: normal work sheds...
  Futures.push_back(Service.submit(glucoseRequest("normal-1")));
  // ...but priority work is always admitted, at the *front* of the queue.
  CompileRequest Urgent = glucoseRequest("urgent");
  Urgent.HighPriority = true;
  Futures.push_back(Service.submit(std::move(Urgent)));
  EXPECT_EQ(Service.queueDepth(), 2u);

  EXPECT_EQ(Futures[1].get().Shed, ShedReason::QueueFull);
  Service.resume();
  CompileResponse UrgentR = Futures[2].get();
  EXPECT_TRUE(UrgentR.Ok) << UrgentR.Error;
  EXPECT_EQ(UrgentR.Shed, ShedReason::None);
  EXPECT_TRUE(Futures[0].get().Ok);
  EXPECT_EQ(Service.stats().ShedQueueFull, 1u);
}

TEST(ServiceShedding, ExpiredBeforeDequeueIsShedWithDeadlineStatus) {
  obs::MetricsRegistry &Reg = obs::metrics();
  std::uint64_t DeadlineBefore = Reg.counter("service.shed.deadline").value();

  CompileService Service(oneWorker());
  Service.pause();
  CompileRequest Expired = glucoseRequest("expired");
  // Already past its deadline when it reaches the queue: the worker must
  // shed it at dequeue instead of burning a solve on it.
  Expired.DeadlineMicros = expiredDeadline();
  CompileRequest Fresh = glucoseRequest("fresh");
  Fresh.DeadlineMicros = obs::Tracer::nowMicros() + 60'000'000;
  auto FExpired = Service.submit(std::move(Expired));
  auto FFresh = Service.submit(std::move(Fresh));
  Service.resume();

  CompileResponse RExpired = FExpired.get();
  EXPECT_FALSE(RExpired.Ok);
  EXPECT_EQ(RExpired.Shed, ShedReason::DeadlineExpired);
  EXPECT_EQ(RExpired.Error, "request shed: deadline");

  CompileResponse RFresh = FFresh.get();
  EXPECT_TRUE(RFresh.Ok) << RFresh.Error;
  EXPECT_EQ(RFresh.Shed, ShedReason::None);

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.ShedDeadline, 1u);
  EXPECT_EQ(S.ShedQueueFull, 0u);
  EXPECT_EQ(Reg.counter("service.shed.deadline").value() - DeadlineBefore,
            1u);
  // The expired request never reached the pipeline: exactly one solve.
  EXPECT_EQ(S.Cache.Insertions, 1u);
}

TEST(ServiceShedding, CompileNowRespectsDeadlines) {
  CompileService Service;
  CompileRequest Expired = glucoseRequest();
  Expired.DeadlineMicros = expiredDeadline();
  CompileResponse R = Service.compileNow(Expired);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Shed, ShedReason::DeadlineExpired);
  EXPECT_EQ(Service.stats().Completed, 0u);
  EXPECT_EQ(Service.stats().Cache.Insertions, 0u) << "no solve was run";

  CompileRequest Fresh = glucoseRequest();
  Fresh.DeadlineMicros = obs::Tracer::nowMicros() + 60'000'000;
  CompileResponse R2 = Service.compileNow(Fresh);
  EXPECT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(R2.Shed, ShedReason::None);
}

TEST(ServiceShedding, SubmitBatchAppliesAdmissionPerRequest) {
  CompileService Service(oneWorker(/*MaxQueueDepth=*/2));
  Service.pause();
  std::vector<CompileRequest> Batch;
  for (int I = 0; I < 5; ++I)
    Batch.push_back(glucoseRequest());
  Batch[4].HighPriority = true; // Admitted past the full queue.
  auto Pending = std::async(std::launch::async, [&] {
    return Service.compileBatch(std::move(Batch));
  });
  // compileBatch blocks until the paused queue drains; what it admitted is
  // visible meanwhile.
  while (Service.queueDepth() < 3)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(Service.queueDepth(), 3u);
  Service.resume();
  std::vector<CompileResponse> Responses = Pending.get();
  ASSERT_EQ(Responses.size(), 5u);
  EXPECT_TRUE(Responses[0].Ok) << Responses[0].Error;
  EXPECT_TRUE(Responses[1].Ok) << Responses[1].Error;
  // The shed responses come back in their request's slot.
  EXPECT_EQ(Responses[2].Shed, ShedReason::QueueFull);
  EXPECT_EQ(Responses[3].Shed, ShedReason::QueueFull);
  EXPECT_TRUE(Responses[4].Ok) << Responses[4].Error;
  EXPECT_EQ(Responses[4].Shed, ShedReason::None);
  EXPECT_EQ(Service.stats().ShedQueueFull, 2u);
}

TEST(ServiceShedding, QueueDepthGaugeTracksTheQueue) {
  obs::MetricsRegistry &Reg = obs::metrics();
  CompileService Service(oneWorker());
  Service.pause();
  std::vector<std::future<CompileResponse>> Futures;
  for (int I = 0; I < 3; ++I)
    Futures.push_back(Service.submit(glucoseRequest()));
  EXPECT_EQ(Reg.gauge("service.queue_depth").value(), 3.0);
  Service.resume();
  for (auto &F : Futures)
    (void)F.get();
  EXPECT_EQ(Reg.gauge("service.queue_depth").value(), 0.0);
}

TEST(ServiceShedding, PauseAndResumeRoundTrip) {
  CompileService Service(oneWorker());
  Service.pause();
  auto F = Service.submit(glucoseRequest());
  EXPECT_EQ(Service.queueDepth(), 1u);
  Service.resume();
  EXPECT_TRUE(F.get().Ok);
  // Pause again: new work queues, old results stay available.
  Service.pause();
  auto F2 = Service.submit(glucoseRequest());
  EXPECT_EQ(Service.queueDepth(), 1u);
  Service.resume();
  CompileResponse R2 = F2.get();
  EXPECT_TRUE(R2.Ok);
  EXPECT_TRUE(R2.CacheHit);
}

TEST(ServiceShedding, ShedReasonNamesAreStable) {
  // One vocabulary: the response error, the service.shed.* metrics, the
  // flight digest and the service.shed span all use these names; renames
  // are a wire-format break.
  EXPECT_STREQ(obs::shedCauseName(ShedReason::None), "none");
  EXPECT_STREQ(obs::shedCauseName(ShedReason::QueueFull), "queue_full");
  EXPECT_STREQ(obs::shedCauseName(ShedReason::DeadlineExpired), "deadline");
}

TEST(ServiceShedding, UnboundedQueueNeverShedsOnDepth) {
  CompileService Service(oneWorker(/*MaxQueueDepth=*/0));
  Service.pause();
  std::vector<std::future<CompileResponse>> Futures;
  for (int I = 0; I < 32; ++I)
    Futures.push_back(Service.submit(glucoseRequest()));
  EXPECT_EQ(Service.queueDepth(), 32u);
  Service.resume();
  for (auto &F : Futures) {
    CompileResponse R = F.get();
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Shed, ShedReason::None);
  }
  EXPECT_EQ(Service.stats().shedTotal(), 0u);
}

TEST(ServiceShedding, EveryEntryPointKeepsTheBooks) {
  // Four clients mix submit, compileBatch and compileNow against two
  // workers and a queue budget of two, with expired deadlines and
  // priority work in the mix. Every response must come back in its
  // request's place with a shed reason that request allows, and at
  // quiescence every submission is either a completion or a shed.
  ServiceOptions O;
  O.Threads = 2;
  O.MaxQueueDepth = 2;
  CompileService Service(O);
  auto Graph =
      std::make_shared<const ir::AssayGraph>(assays::buildGlucoseAssay());
  const std::uint64_t Expired = expiredDeadline();
  constexpr int Clients = 4, Rounds = 6, PerRound = 6;
  enum Entry { Submit, Batch, Now };

  std::atomic<std::uint64_t> Done{0}, QueueFull{0}, Deadline{0};
  auto Client = [&](int C) {
    for (int Round = 0; Round < Rounds; ++Round) {
      const Entry Via = static_cast<Entry>((C + Round) % 3);
      std::vector<CompileRequest> Requests;
      for (int I = 0; I < PerRound; ++I) {
        CompileRequest R;
        R.Name = std::to_string(C) + "/" + std::to_string(Round) + "/" +
                 std::to_string(I);
        R.Graph = Graph;
        R.DeadlineMicros = I % 3 == 2 ? Expired : 0;
        R.HighPriority = I % 4 == 3;
        Requests.push_back(std::move(R));
      }
      std::vector<CompileResponse> Responses;
      if (Via == Batch) {
        Responses = Service.compileBatch(Requests);
      } else if (Via == Submit) {
        std::vector<std::future<CompileResponse>> Futures;
        for (const CompileRequest &R : Requests)
          Futures.push_back(Service.submit(R));
        for (auto &F : Futures)
          Responses.push_back(F.get());
      } else {
        for (const CompileRequest &R : Requests)
          Responses.push_back(Service.compileNow(R));
      }
      ASSERT_EQ(Responses.size(), Requests.size());
      for (std::size_t I = 0; I < Requests.size(); ++I) {
        const CompileRequest &Req = Requests[I];
        const CompileResponse &R = Responses[I];
        EXPECT_EQ(R.Name, Req.Name) << "responses must keep request order";
        // Only queued normal-priority work can shed on depth; an expired
        // deadline sheds every other request (at dequeue, or at
        // compileNow's entry check).
        const bool Expires = Req.DeadlineMicros != 0;
        const bool MayQueueFull = Via != Now && !Req.HighPriority;
        if (R.Shed == ShedReason::QueueFull)
          EXPECT_TRUE(MayQueueFull) << R.Name;
        else
          EXPECT_EQ(R.Shed, Expires ? ShedReason::DeadlineExpired
                                    : ShedReason::None)
              << R.Name;
        EXPECT_EQ(R.Ok, R.Shed == ShedReason::None) << R.Name << ": " << R.Error;
        (R.Shed == ShedReason::QueueFull        ? QueueFull
         : R.Shed == ShedReason::DeadlineExpired ? Deadline
                                                 : Done)
            .fetch_add(1);
      }
    }
  };
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &T : Threads)
    T.join();

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Submitted, std::uint64_t{Clients * Rounds * PerRound});
  EXPECT_EQ(S.Completed, Done.load());
  EXPECT_EQ(S.ShedQueueFull, QueueFull.load());
  EXPECT_EQ(S.ShedDeadline, Deadline.load());
  EXPECT_EQ(S.Submitted, S.Completed + S.shedTotal());
  // Both kinds of shed are certain: enqueue holds the queue lock across a
  // whole batch, so a compileBatch round's third normal request always
  // finds the two-deep queue full, and compileNow rounds always see the
  // expired deadlines.
  EXPECT_GT(S.ShedQueueFull, 0u);
  EXPECT_GT(S.ShedDeadline, 0u);
  EXPECT_EQ(Service.queueDepth(), 0u);
}
