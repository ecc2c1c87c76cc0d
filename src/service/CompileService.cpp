//===- CompileService.cpp - Concurrent compile service -------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/service/CompileService.h"

#include "aqua/lang/Lower.h"
#include "aqua/obs/FlightRecorder.h"
#include "aqua/obs/Log.h"
#include "aqua/obs/Metrics.h"
#include "aqua/obs/Timer.h"
#include "aqua/obs/Trace.h"
#include "aqua/service/RequestKey.h"
#include "aqua/support/StringUtils.h"

#include <algorithm>
#include <chrono>

using namespace aqua;
using namespace aqua::service;

namespace {

/// Lock-free accumulate for pre-C++20-atomic-float toolchains.
void addDouble(std::atomic<double> &Sink, double V) {
  double Old = Sink.load(std::memory_order_relaxed);
  while (!Sink.compare_exchange_weak(Old, Old + V, std::memory_order_relaxed))
    ;
}

/// Global-registry instruments, resolved once (registry lookups take a
/// mutex; the references are stable).
struct ServiceMetrics {
  obs::Counter &Submitted = obs::metrics().counter("service.requests.submitted");
  obs::Counter &Completed = obs::metrics().counter("service.requests.completed");
  obs::Counter &Failed = obs::metrics().counter("service.requests.failed");
  obs::Counter &CacheHits = obs::metrics().counter("service.cache.hits");
  obs::Counter &CacheMisses = obs::metrics().counter("service.cache.misses");
  obs::Counter &Joins = obs::metrics().counter("service.singleflight.joins");
  obs::Counter &CanonMemoHits =
      obs::metrics().counter("service.canon_memo_hits");
  obs::Counter &WarmMissHits =
      obs::metrics().counter("service.warm_miss_hits");
  obs::Counter &ShedTotal = obs::metrics().counter("service.shed_total");
  obs::Counter &ShedQueueFull =
      obs::metrics().counter("service.shed.queue_full");
  obs::Counter &ShedDeadline = obs::metrics().counter("service.shed.deadline");
  obs::Gauge &QueueDepth = obs::metrics().gauge("service.queue_depth");
  obs::Histogram &QueueWaitSec =
      obs::metrics().histogram("service.queue_wait_sec");
  obs::Histogram &LatencySec = obs::metrics().histogram("service.latency_sec");
  obs::Histogram &SolveSec = obs::metrics().histogram("service.solve_sec");
};

ServiceMetrics &met() {
  static ServiceMetrics M;
  return M;
}

std::uint64_t wallMicrosNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

} // namespace

const char *aqua::service::shedReasonName(ShedReason R) {
  switch (R) {
  case ShedReason::None:
    return "none";
  case ShedReason::QueueFull:
    return "queue_full";
  case ShedReason::DeadlineExpired:
    return "deadline_expired";
  }
  return "unknown";
}

std::string ServiceStats::str() const {
  return format(
      "submitted %llu, completed %llu (%llu failed), shed %llu "
      "(%llu queue-full, %llu deadline), cache hits %llu (%llu from L2, "
      "%.1f%% hit rate), single-flight joins %llu, warm misses %llu, "
      "evictions %llu, "
      "%zu cached entries (%.1f MiB), %.3f s solving, %.3f s total latency",
      static_cast<unsigned long long>(Submitted),
      static_cast<unsigned long long>(Completed),
      static_cast<unsigned long long>(Failed),
      static_cast<unsigned long long>(shedTotal()),
      static_cast<unsigned long long>(ShedQueueFull),
      static_cast<unsigned long long>(ShedDeadline),
      static_cast<unsigned long long>(CacheHits),
      static_cast<unsigned long long>(CacheHitsL2), Cache.hitRate() * 100.0,
      static_cast<unsigned long long>(SingleFlightJoins),
      static_cast<unsigned long long>(WarmMissHits),
      static_cast<unsigned long long>(Cache.Evictions), Cache.Entries,
      static_cast<double>(Cache.Bytes) / (1024.0 * 1024.0), SolveSec,
      TotalLatencySec);
}

CompileService::CompileService(const ServiceOptions &Options)
    : Options(Options), Cache(Options.Cache), Paused(Options.StartPaused) {
  if (!Options.StoreDir.empty()) {
    auto Opened = store::SolveStore::open(
        Options.StoreDir, Options.Store,
        Options.StoreEnv ? *Options.StoreEnv : store::Env::real());
    if (Opened.ok()) {
      Store = std::move(Opened.get());
      Cache.attachStore(Store.get());
      AQUA_LOG_INFO("service", "solve store attached at %s (%zu keys)",
                    Options.StoreDir.c_str(), Store->stats().Keys);
    } else {
      // Persistence is an optimization; a store that will not open must
      // not take the service down with it.
      AQUA_LOG_WARN("service", "solve store %s unavailable, running "
                               "memory-only: %s",
                    Options.StoreDir.c_str(), Opened.message().c_str());
    }
  }
  int Threads = std::max(1, Options.Threads);
  Workers.reserve(Threads);
  for (int I = 0; I < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

CompileService::~CompileService() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    ShuttingDown = true;
  }
  QueueCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

CompileResponse CompileService::shedResponse(const CompileRequest &Request,
                                             ShedReason Reason) {
  CompileResponse R;
  R.Name = Request.Name;
  R.TraceId = Request.TraceId;
  R.Shed = Reason;
  R.Error = format("request shed: %s", shedReasonName(Reason));
  return R;
}

void CompileService::recordDigest(const CompileRequest &Request,
                                  const CompileResponse &R,
                                  double QueueWaitSec, double SolveSec,
                                  obs::FrontEndPath Path) {
  obs::RequestDigest D;
  D.TraceId = Request.TraceId;
  D.Name = Request.Name;
  D.FrontEnd = Path;
  if (R.Shed == ShedReason::QueueFull) {
    D.Outcome = obs::RequestOutcome::Shed;
    D.Cause = obs::ShedCause::QueueFull;
  } else if (R.Shed == ShedReason::DeadlineExpired) {
    D.Outcome = obs::RequestOutcome::Shed;
    D.Cause = obs::ShedCause::DeadlineExpired;
  } else if (R.Deduplicated) {
    D.Outcome = obs::RequestOutcome::Join;
  } else if (R.CacheHitL2) {
    D.Outcome = obs::RequestOutcome::HitL2;
  } else if (R.CacheHit) {
    D.Outcome = obs::RequestOutcome::Hit;
  } else {
    D.Outcome = obs::RequestOutcome::Miss;
  }
  D.Ok = R.Ok;
  D.QueueWaitSec = QueueWaitSec;
  D.SolveSec = SolveSec;
  D.LatencySec = R.LatencySec;
  D.WallMicros = wallMicrosNow();
  obs::FlightRecorder::global().record(std::move(D));
}

void CompileService::finishJob(Job &J, CompileResponse &&R) {
  if (J.Batch) {
    // Each request owns its slot, so the write itself is lock-free; the
    // last decrement (acq_rel) publishes every slot to the waiter and is
    // the only completion that touches the mutex.
    J.Batch->Responses[J.BatchIndex] = std::move(R);
    if (J.Batch->Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      { std::lock_guard<std::mutex> Lock(J.Batch->Mutex); }
      J.Batch->CV.notify_all();
    }
    return;
  }
  J.Promise.set_value(std::move(R));
}

void CompileService::workerLoop() {
  // Batched dequeue: on a hot cache the per-job work is microseconds, so
  // a mutex round-trip per job is what serializes the hit path. A worker
  // claims up to MaxDrain jobs per lock acquisition, but never hogs work
  // that a parked sibling could run concurrently.
  constexpr std::size_t MaxDrain = 8;
  std::vector<Job> Drained;
  Drained.reserve(MaxDrain);
  for (;;) {
    Drained.clear();
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      ++IdleWorkers;
      QueueCV.wait(Lock, [this] {
        return ShuttingDown || (!Paused && !Queue.empty());
      });
      --IdleWorkers;
      if (ShuttingDown && Queue.empty())
        return; // Shutting down and drained.
      if (Queue.empty() || (Paused && !ShuttingDown))
        continue;
      std::size_t Fair = Queue.size() / static_cast<std::size_t>(IdleWorkers + 1);
      std::size_t Take = std::min(MaxDrain, std::max<std::size_t>(1, Fair));
      Take = std::min(Take, Queue.size());
      for (std::size_t I = 0; I < Take; ++I) {
        Drained.push_back(std::move(Queue.front()));
        Queue.pop_front();
      }
      met().QueueDepth.set(static_cast<double>(Queue.size()));
    }
    for (Job &J : Drained) {
      std::uint64_t Now = obs::Tracer::nowMicros();
      double QueueWaitSec = (Now - J.EnqueueMicros) * 1e-6;
      met().QueueWaitSec.observe(QueueWaitSec);
      // Deadline admission at dequeue: work that expired while it waited
      // is dead on arrival -- running the pipeline for it only delays the
      // rest of the queue.
      if (J.Request.DeadlineMicros != 0 && Now > J.Request.DeadlineMicros) {
        ShedDeadline.fetch_add(1, std::memory_order_relaxed);
        met().ShedTotal.add();
        met().ShedDeadline.add();
        {
          // The request's flow arc terminates at the shed decision.
          obs::SpanGuard Span("service.shed", "service");
          Span.arg("cause", "deadline");
          obs::traceFlowEnd("service.request", J.Request.TraceId);
        }
        CompileResponse R =
            shedResponse(J.Request, ShedReason::DeadlineExpired);
        recordDigest(J.Request, R, QueueWaitSec, 0.0);
        finishJob(J, std::move(R));
        continue;
      }
      finishJob(J, process(J.Request, QueueWaitSec, /*EndFlow=*/true));
    }
  }
}

std::future<CompileResponse> CompileService::submit(CompileRequest Request) {
  Submitted.fetch_add(1, std::memory_order_relaxed);
  met().Submitted.add();
  if (Request.TraceId == 0)
    Request.TraceId = obs::newTraceId();
  Job J;
  J.EnqueueMicros = obs::Tracer::nowMicros();
  std::future<CompileResponse> Result = J.Promise.get_future();
  bool Wake;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    // Queue-depth admission: shed normal work past the budget; priority
    // work always gets in, and goes to the front.
    if (Options.MaxQueueDepth != 0 && !Request.HighPriority &&
        Queue.size() >= Options.MaxQueueDepth) {
      ShedQueueFull.fetch_add(1, std::memory_order_relaxed);
      met().ShedTotal.add();
      met().ShedQueueFull.add();
      CompileResponse R = shedResponse(Request, ShedReason::QueueFull);
      recordDigest(Request, R, 0.0, 0.0);
      J.Promise.set_value(std::move(R));
      return Result;
    }
    bool Priority = Request.HighPriority;
    // The flow arc's 's' end: begun only for requests actually enqueued,
    // so every arc that starts also ends (at the worker, or at a shed).
    if (obs::Tracer::enabled()) {
      obs::SpanGuard Span("service.submit", "service");
      Span.arg("name", Request.Name);
      obs::traceFlowBegin("service.request", Request.TraceId);
    }
    J.Request = std::move(Request);
    if (Priority)
      Queue.push_front(std::move(J));
    else
      Queue.push_back(std::move(J));
    met().QueueDepth.set(static_cast<double>(Queue.size()));
    Wake = IdleWorkers > 0;
  }
  // Only signal when a worker is actually parked: busy workers re-check
  // the queue on their next loop anyway, and the skipped futex wake is
  // most of submit's cost under saturation.
  if (Wake)
    QueueCV.notify_one();
  return Result;
}

std::vector<std::future<CompileResponse>>
CompileService::submitBatch(std::vector<CompileRequest> Batch) {
  std::vector<std::future<CompileResponse>> Futures;
  Futures.reserve(Batch.size());
  if (Batch.empty())
    return Futures;
  // Bulk enqueue: one lock acquisition and one (possibly collective)
  // wakeup for the whole batch instead of a lock + notify per request.
  Submitted.fetch_add(Batch.size(), std::memory_order_relaxed);
  met().Submitted.add(Batch.size());
  std::uint64_t Now = obs::Tracer::nowMicros();
  std::size_t Enqueued = 0, Parked = 0;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    for (CompileRequest &R : Batch) {
      if (R.TraceId == 0)
        R.TraceId = obs::newTraceId();
      Job J;
      J.EnqueueMicros = Now;
      Futures.push_back(J.Promise.get_future());
      if (Options.MaxQueueDepth != 0 && !R.HighPriority &&
          Queue.size() >= Options.MaxQueueDepth) {
        ShedQueueFull.fetch_add(1, std::memory_order_relaxed);
        met().ShedTotal.add();
        met().ShedQueueFull.add();
        CompileResponse Response = shedResponse(R, ShedReason::QueueFull);
        recordDigest(R, Response, 0.0, 0.0);
        J.Promise.set_value(std::move(Response));
        continue;
      }
      obs::traceFlowBegin("service.request", R.TraceId);
      bool Priority = R.HighPriority;
      J.Request = std::move(R);
      if (Priority)
        Queue.push_front(std::move(J));
      else
        Queue.push_back(std::move(J));
      ++Enqueued;
    }
    met().QueueDepth.set(static_cast<double>(Queue.size()));
    Parked = static_cast<std::size_t>(IdleWorkers);
  }
  if (Parked > 0 && Enqueued > 0) {
    if (Enqueued >= Parked)
      QueueCV.notify_all();
    else
      for (std::size_t I = 0; I < Enqueued; ++I)
        QueueCV.notify_one();
  }
  return Futures;
}

std::vector<CompileResponse> ResponseBatch::take() {
  if (!S)
    return {};
  std::shared_ptr<State> Mine = std::move(S);
  std::unique_lock<std::mutex> Lock(Mine->Mutex);
  Mine->CV.wait(Lock, [&] {
    return Mine->Remaining.load(std::memory_order_acquire) == 0;
  });
  return std::move(Mine->Responses);
}

ResponseBatch
CompileService::submitBatchDrained(std::vector<CompileRequest> Batch) {
  ResponseBatch Result;
  Result.S = std::make_shared<ResponseBatch::State>();
  ResponseBatch::State &St = *Result.S;
  St.Responses.resize(Batch.size());
  // Seed the countdown before any job can complete, so it never dips
  // through zero transiently.
  St.Remaining.store(Batch.size(), std::memory_order_relaxed);
  if (Batch.empty())
    return Result;
  Submitted.fetch_add(Batch.size(), std::memory_order_relaxed);
  met().Submitted.add(Batch.size());
  std::uint64_t Now = obs::Tracer::nowMicros();
  std::size_t Enqueued = 0, Parked = 0, Shed = 0;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    for (std::size_t I = 0; I < Batch.size(); ++I) {
      CompileRequest &R = Batch[I];
      if (R.TraceId == 0)
        R.TraceId = obs::newTraceId();
      if (Options.MaxQueueDepth != 0 && !R.HighPriority &&
          Queue.size() >= Options.MaxQueueDepth) {
        ShedQueueFull.fetch_add(1, std::memory_order_relaxed);
        met().ShedTotal.add();
        met().ShedQueueFull.add();
        CompileResponse Response = shedResponse(R, ShedReason::QueueFull);
        recordDigest(R, Response, 0.0, 0.0);
        St.Responses[I] = std::move(Response);
        ++Shed;
        continue;
      }
      obs::traceFlowBegin("service.request", R.TraceId);
      bool Priority = R.HighPriority;
      Job J;
      J.EnqueueMicros = Now;
      J.Batch = Result.S;
      J.BatchIndex = I;
      J.Request = std::move(R);
      if (Priority)
        Queue.push_front(std::move(J));
      else
        Queue.push_back(std::move(J));
      ++Enqueued;
    }
    met().QueueDepth.set(static_cast<double>(Queue.size()));
    Parked = static_cast<std::size_t>(IdleWorkers);
  }
  // Retire the shed slots in one decrement (their responses are already
  // written; no waiter can be parked yet, so no notify is needed unless
  // the whole batch shed).
  if (Shed > 0 &&
      St.Remaining.fetch_sub(Shed, std::memory_order_acq_rel) == Shed) {
    { std::lock_guard<std::mutex> Lock(St.Mutex); }
    St.CV.notify_all();
  }
  if (Parked > 0 && Enqueued > 0) {
    if (Enqueued >= Parked)
      QueueCV.notify_all();
    else
      for (std::size_t I = 0; I < Enqueued; ++I)
        QueueCV.notify_one();
  }
  return Result;
}

std::vector<CompileResponse>
CompileService::compileBatch(std::vector<CompileRequest> Batch) {
  // One wakeup in (submit), one wakeup out (the last completion).
  return submitBatchDrained(std::move(Batch)).take();
}

CompileResponse CompileService::compileNow(const CompileRequest &Request) {
  Submitted.fetch_add(1, std::memory_order_relaxed);
  met().Submitted.add();
  CompileRequest Traced = Request;
  if (Traced.TraceId == 0)
    Traced.TraceId = obs::newTraceId();
  if (Traced.DeadlineMicros != 0 &&
      obs::Tracer::nowMicros() > Traced.DeadlineMicros) {
    ShedDeadline.fetch_add(1, std::memory_order_relaxed);
    met().ShedTotal.add();
    met().ShedDeadline.add();
    CompileResponse R = shedResponse(Traced, ShedReason::DeadlineExpired);
    recordDigest(Traced, R, 0.0, 0.0);
    return R;
  }
  return process(Traced);
}

void CompileService::pause() {
  std::lock_guard<std::mutex> Lock(QueueMutex);
  Paused = true;
}

void CompileService::resume() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Paused = false;
  }
  QueueCV.notify_all();
}

std::size_t CompileService::queueDepth() const {
  std::lock_guard<std::mutex> Lock(QueueMutex);
  return Queue.size();
}

CompileService::FrontEndFuture
CompileService::frontEnd(const CompileRequest &Request,
                         obs::FrontEndPath &Path) {
  const bool FromSource = !Request.Graph;
  Path = FromSource ? obs::FrontEndPath::Lowered : obs::FrontEndPath::Graph;
  auto Run = [&] {
    FrontEnd FE;
    if (FromSource) {
      AQUA_TRACE_SPAN("service.frontend", "service");
      auto Lowered = lang::compileAssay(Request.Source);
      if (!Lowered.ok()) {
        FE.Error = Lowered.message();
        return FE;
      }
      FE.Graph =
          std::make_shared<const ir::AssayGraph>(std::move(Lowered->Graph));
    } else {
      FE.Graph = Request.Graph;
    }
    FE.Canon =
        std::make_shared<const ir::CanonicalForm>(ir::canonicalize(*FE.Graph));
    return FE;
  };
  std::promise<FrontEnd> Promise;
  FrontEndFuture Mine = Promise.get_future().share();
  // Cache off means the full pipeline on every request, front end included.
  if (!Options.EnableCache) {
    Promise.set_value(Run());
    return Mine;
  }

  // compileAssay is a pure function of the source bytes, so equal bytes
  // may share one lowering; a graph is immutable, so one object may share
  // one canonical form.
  std::uint64_t Hash =
      FromSource ? std::hash<std::string_view>{}(Request.Source)
                 : (reinterpret_cast<std::uintptr_t>(Request.Graph.get()) >>
                    4) * 0x9e3779b97f4a7c15ULL;
  MemoShard &Shard = Memo[(Hash >> 32) % MemoShards];
  auto Matches = [&](const MemoEntry &E) {
    return E.Hash == Hash && (FromSource ? !E.Keyed && E.Source == Request.Source
                                         : E.Keyed == Request.Graph);
  };
  // Dropped entries die after the shard lock is released.
  MemoEntry Displaced;
  FrontEndFuture Result;
  {
    std::lock_guard<std::mutex> Lock(Shard.Mutex);
    ++Shard.Tick;
    auto &Entries = Shard.Entries;
    auto It = std::find_if(Entries.begin(), Entries.end(), Matches);
    if (It != Entries.end()) {
      It->LastUse = Shard.Tick;
      Result = It->Result;
    } else {
      MemoEntry *Slot;
      if (Entries.size() < MemoWays) {
        Slot = &Entries.emplace_back();
      } else {
        Slot = &*std::min_element(Entries.begin(), Entries.end(),
                                  [](const MemoEntry &A, const MemoEntry &B) {
                                    return A.LastUse < B.LastUse;
                                  });
        Displaced = std::move(*Slot);
      }
      *Slot = MemoEntry{Hash, FromSource ? Request.Source : std::string(),
                        FromSource ? nullptr : Request.Graph,
                        Mine, Shard.Tick};
    }
  }
  if (Result.valid()) {
    Path = obs::FrontEndPath::Memo;
    CanonMemoHitCount.fetch_add(1, std::memory_order_relaxed);
    met().CanonMemoHits.add();
    return Result;
  }
  auto Forget = [&] {
    MemoEntry Dropped;
    std::lock_guard<std::mutex> Lock(Shard.Mutex);
    auto It = std::find_if(Shard.Entries.begin(), Shard.Entries.end(), Matches);
    if (It != Shard.Entries.end()) {
      Dropped = std::move(*It);
      Shard.Entries.erase(It);
    }
  };
  try {
    FrontEnd FE = Run();
    bool Failed = !FE.Graph;
    Promise.set_value(std::move(FE));
    if (Failed)
      Forget(); // Waiters already joined see the error; later ones retry.
  } catch (...) {
    Promise.set_exception(std::current_exception());
    Forget();
    throw;
  }
  return Mine;
}

void CompileService::publishDonor(const ir::Fingerprint &StructKey,
                                  const CompileArtifact &Artifact) {
  // A basis is only captured when the RVol LP reached Optimal, so its
  // presence alone makes the artifact a usable donor (codegen failures
  // downstream do not invalidate the LP solve).
  if (!Artifact.VM.LpBasis)
    return;
  std::lock_guard<std::mutex> Lock(DonorMutex);
  Donor &D = Donors[StructKey.str()];
  D.Basis = Artifact.VM.LpBasis;
  D.ShapeHash = Artifact.VM.LpShapeHash;
}

std::shared_ptr<const CompileArtifact>
CompileService::solveAndGenerate(const CompileRequest &Request,
                                 const ir::AssayGraph &G,
                                 const ir::Fingerprint *StructKey,
                                 double *SolveSecOut) {
  double Sec = 0.0;
  std::shared_ptr<CompileArtifact> Artifact;
  {
    obs::SpanGuard Span("service.solve", "service");
    ScopedTimer Timer(Sec);
    core::ManagerOptions Manage = Request.Manage;
    if (StructKey) {
      // Capture this solve's optimal basis for future same-structure
      // siblings, and repair a sibling's basis if one is on file. The
      // warm start cannot change the optimum -- only how many pivots
      // reaching it takes -- so the artifact stays bit-compatible with a
      // cold solve.
      Manage.LPOptions.CaptureBasis = true;
      std::lock_guard<std::mutex> Lock(DonorMutex);
      auto It = Donors.find(StructKey->str());
      if (It != Donors.end()) {
        Manage.LPOptions.WarmStart = It->second.Basis;
        Manage.LPOptions.WarmShapeHash = It->second.ShapeHash;
      }
    }
    Artifact = std::make_shared<CompileArtifact>(
        compileGraph(G, Request.Spec, Manage, Request.Layout));
    Span.arg("warm", Artifact->VM.LpWarmStarted ? "1" : "0");
    if (Artifact->VM.LpWarmStarted) {
      WarmMissHits.fetch_add(1, std::memory_order_relaxed);
      met().WarmMissHits.add();
    }
    if (StructKey)
      publishDonor(*StructKey, *Artifact);
  }
  addDouble(SolveSec, Sec);
  met().SolveSec.observe(Sec);
  if (SolveSecOut)
    *SolveSecOut = Sec;
  if (!Artifact->Ok)
    AQUA_LOG_DEBUG("service", "pipeline failed deterministically: %s",
                   Artifact->Error.c_str());
  return Artifact;
}

CompileResponse CompileService::process(const CompileRequest &Request,
                                        double QueueWaitSec, bool EndFlow) {
  // Everything below (cache, LP, store I/O) runs with the request's id as
  // the thread's ambient trace context: every span closed in here carries
  // it as a `trace` arg.
  obs::RequestScope Scope(Request.TraceId);
  obs::SpanGuard Span("service.request", "service");
  Span.arg("name", Request.Name);
  if (EndFlow)
    obs::traceFlowEnd("service.request", Request.TraceId);
  CompileResponse R;
  R.Name = Request.Name;
  R.TraceId = Request.TraceId;
  double Latency = 0.0;
  double SolveSec = 0.0;
  obs::FrontEndPath Path = obs::FrontEndPath::None;
  {
    ScopedTimer Timer(Latency);

    // ----- Front end and canonical fingerprint: the cache and dedup
    // key. Parse, lower and WL canonicalization dominate the cost of a
    // cache hit; a repeated source text or shared DAG reuses the memoized
    // graph and form and pays only the (cheap) fingerprint mixes. The
    // structure key (volume inputs masked) keys the warm-start donor
    // index.
    FrontEndFuture Front;
    ir::Fingerprint StructKey;
    {
      obs::SpanGuard FpSpan("service.fingerprint", "service");
      Front = frontEnd(Request, Path);
      FpSpan.arg("frontend", obs::frontEndPathName(Path));
      if (const auto &Canon = Front.get().Canon) {
        R.Key = requestFingerprint(*Canon, Request.Spec, Request.Manage,
                                   Request.Layout);
        if (Options.WarmMiss)
          StructKey = structureFingerprint(*Canon, Request.Spec,
                                           Request.Manage, Request.Layout);
      }
    }
    const FrontEnd &FE = Front.get();
    if (!FE.Graph)
      R.Error = FE.Error;

    if (const ir::AssayGraph *Graph = FE.Graph.get()) {
      const ir::Fingerprint *SK = Options.WarmMiss ? &StructKey : nullptr;

      bool FromL2 = false;
      if (!Options.EnableCache) {
        R.Artifact = solveAndGenerate(Request, *Graph, SK, &SolveSec);
      } else if (auto Hit = Cache.lookup(R.Key, &FromL2)) {
        R.CacheHit = true;
        R.CacheHitL2 = FromL2;
        CacheHits.fetch_add(1, std::memory_order_relaxed);
        met().CacheHits.add();
        if (FromL2)
          CacheHitsL2.fetch_add(1, std::memory_order_relaxed);
        // A hit still seeds the donor index: after a daemon restart the
        // L2-decoded artifact carries its basis, so the first *miss* in a
        // volume sweep can already warm start.
        if (SK)
          publishDonor(*SK, *Hit);
        R.Artifact = std::move(Hit);
      } else {
        // ----- Single-flight: at most one solve per fingerprint, ever.
        // The solver publishes to the cache *before* retiring its flight
        // (both flight transitions happen under FlightMutex), and a miss
        // re-checks the cache under FlightMutex before opening a new
        // flight -- so a request that finds neither a flight nor a cache
        // entry is genuinely first.
        std::shared_ptr<Flight> Mine, Theirs;
        std::shared_ptr<const CompileArtifact> Raced;
        {
          std::lock_guard<std::mutex> Lock(FlightMutex);
          auto It = Flights.find(R.Key.str());
          if (It != Flights.end()) {
            Theirs = It->second;
          } else if ((Raced = Cache.lookup(R.Key, &FromL2))) {
            ; // The flight we raced with retired between our first lookup
              // and here; its artifact is already cached.
          } else {
            Mine = std::make_shared<Flight>();
            Mine->Result = Mine->Promise.get_future().share();
            Flights.emplace(R.Key.str(), Mine);
          }
        }
        if (Raced) {
          R.CacheHit = true;
          R.CacheHitL2 = FromL2;
          CacheHits.fetch_add(1, std::memory_order_relaxed);
          met().CacheHits.add();
          if (FromL2)
            CacheHitsL2.fetch_add(1, std::memory_order_relaxed);
          R.Artifact = std::move(Raced);
        } else if (Theirs) {
          R.Deduplicated = true;
          SingleFlightJoins.fetch_add(1, std::memory_order_relaxed);
          met().Joins.add();
          R.Artifact = Theirs->Result.get();
        } else {
          met().CacheMisses.add();
          R.Artifact = solveAndGenerate(Request, *Graph, SK, &SolveSec);
          Cache.insert(R.Key, R.Artifact);
          {
            std::lock_guard<std::mutex> Lock(FlightMutex);
            Flights.erase(R.Key.str());
          }
          Mine->Promise.set_value(R.Artifact);
        }
      }

      if (R.Artifact) {
        R.Ok = R.Artifact->Ok;
        if (!R.Ok)
          R.Error = R.Artifact->Error;
      }
    }
  }
  R.LatencySec = Latency;
  addDouble(TotalLatencySec, Latency);
  met().LatencySec.observe(Latency);
  Completed.fetch_add(1, std::memory_order_relaxed);
  met().Completed.add();
  if (!R.Ok) {
    Failed.fetch_add(1, std::memory_order_relaxed);
    met().Failed.add();
  }
  Span.arg("outcome", R.Deduplicated ? "join"
                      : R.CacheHitL2 ? "hit_l2"
                      : R.CacheHit   ? "hit"
                                     : "miss");
  recordDigest(Request, R, QueueWaitSec, SolveSec, Path);
  return R;
}

ServiceStats CompileService::stats() const {
  ServiceStats S;
  S.Submitted = Submitted.load(std::memory_order_relaxed);
  S.Completed = Completed.load(std::memory_order_relaxed);
  S.Failed = Failed.load(std::memory_order_relaxed);
  S.CacheHits = CacheHits.load(std::memory_order_relaxed);
  S.CacheHitsL2 = CacheHitsL2.load(std::memory_order_relaxed);
  S.SingleFlightJoins = SingleFlightJoins.load(std::memory_order_relaxed);
  S.CanonMemoHits = CanonMemoHitCount.load(std::memory_order_relaxed);
  for (const MemoShard &Shard : Memo) {
    std::lock_guard<std::mutex> Lock(Shard.Mutex);
    S.FrontEndMemoEntries += Shard.Entries.size();
  }
  S.WarmMissHits = WarmMissHits.load(std::memory_order_relaxed);
  S.ShedQueueFull = ShedQueueFull.load(std::memory_order_relaxed);
  S.ShedDeadline = ShedDeadline.load(std::memory_order_relaxed);
  S.TotalLatencySec = TotalLatencySec.load(std::memory_order_relaxed);
  S.SolveSec = SolveSec.load(std::memory_order_relaxed);
  S.Cache = Cache.stats();
  return S;
}
