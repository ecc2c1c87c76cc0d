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
    : Options(Options), Cache(Options.Cache) {
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

CompileResponse CompileService::shed(const CompileRequest &Request,
                                     ShedReason Reason, double QueueWaitSec,
                                     bool EndFlow) {
  if (EndFlow) {
    // The request's flow arc terminates at the shed decision.
    obs::SpanGuard Span("service.shed", "service");
    Span.arg("cause", obs::shedCauseName(Reason));
    obs::traceFlowEnd("service.request", Request.TraceId);
  }
  if (Reason == ShedReason::QueueFull) {
    ShedQueueFull.fetch_add(1, std::memory_order_relaxed);
    met().ShedQueueFull.add();
  } else {
    ShedDeadline.fetch_add(1, std::memory_order_relaxed);
    met().ShedDeadline.add();
  }
  met().ShedTotal.add();
  CompileResponse R;
  R.Name = Request.Name;
  R.TraceId = Request.TraceId;
  R.Shed = Reason;
  R.Error = format("request shed: %s", obs::shedCauseName(Reason));
  recordDigest(Request, R, obs::RequestOutcome::Shed, QueueWaitSec, 0.0);
  return R;
}

void CompileService::recordDigest(const CompileRequest &Request,
                                  const CompileResponse &R,
                                  obs::RequestOutcome Outcome,
                                  double QueueWaitSec, double SolveSec,
                                  obs::FrontEndPath Path) {
  obs::RequestDigest D;
  D.TraceId = Request.TraceId;
  D.Name = Request.Name;
  D.FrontEnd = Path;
  D.Outcome = Outcome;
  D.Cause = R.Shed;
  D.Ok = R.Ok;
  D.QueueWaitSec = QueueWaitSec;
  D.SolveSec = SolveSec;
  D.LatencySec = R.LatencySec;
  D.WallMicros = wallMicrosNow();
  obs::FlightRecorder::global().record(std::move(D));
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
        J.Promise.set_value(shed(J.Request, ShedReason::DeadlineExpired,
                                 QueueWaitSec, /*EndFlow=*/true));
        continue;
      }
      J.Promise.set_value(process(J.Request, std::move(J.Pre), QueueWaitSec,
                                  /*EndFlow=*/true));
    }
  }
}

std::vector<std::future<CompileResponse>>
CompileService::enqueue(std::span<CompileRequest> Requests) {
  std::vector<std::future<CompileResponse>> Futures;
  Futures.reserve(Requests.size());
  Submitted.fetch_add(Requests.size(), std::memory_order_relaxed);
  met().Submitted.add(Requests.size());
  // An L1 hit is served here, on the caller's thread and before any queue
  // lock: its probe costs less than the handoff to a worker. An expired
  // request is not probed; it takes the queue and sheds at dequeue.
  std::vector<Job> Jobs;
  for (CompileRequest &R : Requests) {
    if (R.TraceId == 0)
      R.TraceId = obs::newTraceId();
    Job J;
    Futures.push_back(J.Promise.get_future());
    if (Options.EnableCache &&
        (R.DeadlineMicros == 0 ||
         obs::Tracer::nowMicros() <= R.DeadlineMicros)) {
      if (std::optional<CompileResponse> Hit = serveHit(R, J.Pre)) {
        J.Promise.set_value(std::move(*Hit));
        continue;
      }
    }
    // The flow arc's 's' end: every queued request's arc ends at the
    // worker, or at a shed.
    if (obs::Tracer::enabled()) {
      obs::SpanGuard Span("service.submit", "service");
      Span.arg("name", R.Name);
      obs::traceFlowBegin("service.request", R.TraceId);
    }
    J.Request = std::move(R);
    Jobs.push_back(std::move(J));
  }
  if (Jobs.empty())
    return Futures;

  std::vector<Job *> Full; // Shed once QueueMutex is released.
  std::size_t Enqueued = 0, Parked = 0;
  const std::uint64_t Now = obs::Tracer::nowMicros();
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    for (Job &J : Jobs) {
      // Queue-depth admission: shed normal work past the budget; priority
      // work always gets in, and goes to the front.
      if (Options.MaxQueueDepth != 0 && !J.Request.HighPriority &&
          Queue.size() >= Options.MaxQueueDepth) {
        Full.push_back(&J);
        continue;
      }
      J.EnqueueMicros = Now;
      if (J.Request.HighPriority)
        Queue.push_front(std::move(J));
      else
        Queue.push_back(std::move(J));
      ++Enqueued;
    }
    met().QueueDepth.set(static_cast<double>(Queue.size()));
    Parked = static_cast<std::size_t>(IdleWorkers);
  }
  for (Job *J : Full)
    J->Promise.set_value(
        shed(J->Request, ShedReason::QueueFull, 0.0, /*EndFlow=*/true));
  // Only signal parked workers: busy ones re-check the queue on their next
  // loop anyway, and the skipped futex wake is most of submit's cost under
  // saturation.
  if (Parked > 0 && Enqueued > 0) {
    if (Enqueued >= Parked)
      QueueCV.notify_all();
    else
      for (std::size_t I = 0; I < Enqueued; ++I)
        QueueCV.notify_one();
  }
  return Futures;
}

std::optional<CompileResponse>
CompileService::serveHit(const CompileRequest &Request, Probe &Pre) {
  obs::RequestScope Scope(Request.TraceId);
  obs::SpanGuard Span("service.probe", "service");
  CompileResponse R;
  {
    ScopedTimer Timer(Pre.Sec);
    // A memo miss stops here: lowering is a worker's job.
    Pre.FE = Memo.find(memoProbe(Request), /*CountMiss=*/false);
    if (Pre.FE.Graph) {
      met().CanonMemoHits.add();
      Pre.Key = requestFingerprint(*Pre.FE.Canon, Request.Spec,
                                   Request.Manage, Request.Layout);
      R.Artifact = Cache.probe(Pre.Key);
    }
    if (R.Artifact) {
      R.Name = Request.Name;
      R.TraceId = Request.TraceId;
      R.Key = Pre.Key;
      R.CacheHit = true;
      R.Ok = R.Artifact->Ok;
      if (!R.Ok)
        R.Error = R.Artifact->Error;
    }
  }
  Span.arg("outcome", R.Artifact ? "hit" : "queued");
  if (!R.Artifact)
    return std::nullopt;
  met().CacheHits.add();
  R.LatencySec = Pre.Sec;
  complete(Request, R, obs::RequestOutcome::Hit, 0.0, 0.0,
           obs::FrontEndPath::Memo);
  return R;
}

std::future<CompileResponse> CompileService::submit(CompileRequest Request) {
  return std::move(enqueue({&Request, 1}).front());
}

std::vector<CompileResponse>
CompileService::compileBatch(std::vector<CompileRequest> Batch) {
  std::vector<std::future<CompileResponse>> Futures = enqueue(Batch);
  std::vector<CompileResponse> Responses;
  Responses.reserve(Futures.size());
  for (std::future<CompileResponse> &F : Futures)
    Responses.push_back(F.get());
  return Responses;
}

CompileResponse CompileService::compileNow(const CompileRequest &Request) {
  Submitted.fetch_add(1, std::memory_order_relaxed);
  met().Submitted.add();
  CompileRequest Traced = Request;
  if (Traced.TraceId == 0)
    Traced.TraceId = obs::newTraceId();
  if (Traced.DeadlineMicros != 0 &&
      obs::Tracer::nowMicros() > Traced.DeadlineMicros)
    return shed(Traced, ShedReason::DeadlineExpired, 0.0, /*EndFlow=*/false);
  return process(Traced, {}, 0.0, /*EndFlow=*/false);
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

CompileService::MemoProbe
CompileService::memoProbe(const CompileRequest &Request) {
  std::size_t Hash =
      Request.Graph
          ? (reinterpret_cast<std::uintptr_t>(Request.Graph.get()) >> 4) *
                0x9e3779b97f4a7c15ULL
          : std::hash<std::string_view>{}(Request.Source);
  return MemoProbe{Hash, Request.Source, Request.Graph};
}

CompileService::FrontEnd
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
  // Cache off means the full pipeline on every request, front end included.
  if (!Options.EnableCache)
    return Run();

  // compileAssay is a pure function of the source bytes, so equal bytes
  // may share one lowering; a graph is immutable, so one object may share
  // one canonical form.
  auto Claim = Memo.claim(memoProbe(Request));
  if (Claim.found() != decltype(Memo)::Found::Owner) {
    Path = obs::FrontEndPath::Memo;
    met().CanonMemoHits.add();
    return Claim.get();
  }
  FrontEnd FE = Run();
  // A failed lowering is not memoized: waiters already joined see the
  // error, later requests lower again.
  if (FE.Graph)
    Claim.publish(FE);
  else
    Claim.abandon(FE);
  return FE;
}

void CompileService::publishDonor(const ir::Fingerprint &StructKey,
                                  const CompileArtifact &Artifact) {
  // A basis is only captured when the RVol LP reached Optimal, so its
  // presence alone makes the artifact a usable donor (codegen failures
  // downstream do not invalidate the LP solve).
  if (!Artifact.VM.LpBasis)
    return;
  std::lock_guard<std::mutex> Lock(DonorMutex);
  Donor &D = Donors[StructKey];
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
      auto It = Donors.find(*StructKey);
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
  SolveSec.fetch_add(Sec, std::memory_order_relaxed);
  met().SolveSec.observe(Sec);
  if (SolveSecOut)
    *SolveSecOut = Sec;
  if (!Artifact->Ok)
    AQUA_LOG_DEBUG("service", "pipeline failed deterministically: %s",
                   Artifact->Error.c_str());
  return Artifact;
}

CompileResponse CompileService::process(const CompileRequest &Request,
                                        Probe Pre, double QueueWaitSec,
                                        bool EndFlow) {
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
  obs::RequestOutcome Outcome = obs::RequestOutcome::Miss;
  {
    ScopedTimer Timer(Latency);

    // ----- Front end and canonical fingerprint: the cache and dedup
    // key. Parse, lower and WL canonicalization dominate the cost of a
    // cache hit; a repeated source text or shared DAG reuses the memoized
    // graph and form and pays only the (cheap) fingerprint mixes -- on
    // the submitting caller's thread when it found them (\p Pre).
    FrontEnd FE = std::move(Pre.FE);
    R.Key = Pre.Key;
    {
      obs::SpanGuard FpSpan("service.fingerprint", "service");
      if (FE.Graph) {
        Path = obs::FrontEndPath::Memo;
      } else {
        FE = frontEnd(Request, Path);
        if (FE.Canon)
          R.Key = requestFingerprint(*FE.Canon, Request.Spec, Request.Manage,
                                     Request.Layout);
      }
      FpSpan.arg("frontend", obs::frontEndPathName(Path));
    }
    if (!FE.Graph)
      R.Error = FE.Error;

    if (const ir::AssayGraph *Graph = FE.Graph.get()) {
      // The structure key (volume inputs masked) keys the warm-start donor
      // index. Only a solve and an L2 hit that carries a basis use it, so
      // it is computed there and an L1 hit never pays for it.
      std::optional<ir::Fingerprint> StructKey;
      auto structKey = [&]() -> const ir::Fingerprint * {
        if (!Options.WarmMiss)
          return nullptr;
        if (!StructKey)
          StructKey = structureFingerprint(*FE.Canon, Request.Spec,
                                           Request.Manage, Request.Layout);
        return &*StructKey;
      };

      if (!Options.EnableCache) {
        R.Artifact = solveAndGenerate(Request, *Graph, structKey(), &SolveSec);
      } else {
        // ----- Single flight: at most one solve per fingerprint, ever.
        // The first request to miss the L1 owns the key, reads the L2 and
        // only then solves; concurrent requests for it wait for the
        // owner's artifact.
        R.Artifact = Cache.fetch(
            R.Key,
            [&] {
              return solveAndGenerate(Request, *Graph, structKey(),
                                      &SolveSec);
            },
            Outcome);
        R.CacheHitL2 = Outcome == obs::RequestOutcome::HitL2;
        R.CacheHit = R.CacheHitL2 || Outcome == obs::RequestOutcome::Hit;
        R.Deduplicated = Outcome == obs::RequestOutcome::Join;
        (R.CacheHit        ? met().CacheHits
         : R.Deduplicated ? met().Joins
                          : met().CacheMisses)
            .add();
        // A store hit seeds the donor index: after a daemon restart the
        // L2-decoded artifact carries its basis, so the first *miss* in a
        // volume sweep can already warm start. An L1 hit's basis was
        // published when it entered the L1.
        if (R.CacheHitL2 && R.Artifact->VM.LpBasis)
          if (const ir::Fingerprint *SK = structKey())
            publishDonor(*SK, *R.Artifact);
      }

      if (R.Artifact) {
        R.Ok = R.Artifact->Ok;
        if (!R.Ok)
          R.Error = R.Artifact->Error;
      }
    }
  }
  R.LatencySec = Pre.Sec + Latency;
  Span.arg("outcome", obs::requestOutcomeName(Outcome));
  complete(Request, R, Outcome, QueueWaitSec, SolveSec, Path);
  return R;
}

void CompileService::complete(const CompileRequest &Request,
                              const CompileResponse &R,
                              obs::RequestOutcome Outcome,
                              double QueueWaitSec, double SolveSec,
                              obs::FrontEndPath Path) {
  TotalLatencySec.fetch_add(R.LatencySec, std::memory_order_relaxed);
  met().LatencySec.observe(R.LatencySec);
  Completed.fetch_add(1, std::memory_order_relaxed);
  met().Completed.add();
  if (!R.Ok) {
    Failed.fetch_add(1, std::memory_order_relaxed);
    met().Failed.add();
  }
  recordDigest(Request, R, Outcome, QueueWaitSec, SolveSec, Path);
}

ServiceStats CompileService::stats() const {
  ServiceStats S;
  S.Submitted = Submitted.load(std::memory_order_relaxed);
  S.Completed = Completed.load(std::memory_order_relaxed);
  S.Failed = Failed.load(std::memory_order_relaxed);
  KeyedTableStats Memoized = Memo.stats();
  S.CanonMemoHits = Memoized.Hits + Memoized.Joins;
  S.FrontEndMemoEntries = Memoized.Entries;
  S.WarmMissHits = WarmMissHits.load(std::memory_order_relaxed);
  S.ShedQueueFull = ShedQueueFull.load(std::memory_order_relaxed);
  S.ShedDeadline = ShedDeadline.load(std::memory_order_relaxed);
  S.TotalLatencySec = TotalLatencySec.load(std::memory_order_relaxed);
  S.SolveSec = SolveSec.load(std::memory_order_relaxed);
  S.Cache = Cache.stats();
  // The service reads the cache only through probe() and its single
  // flight, so its hits and joins are the cache's.
  S.CacheHits = S.Cache.Hits;
  S.CacheHitsL2 = S.Cache.HitsL2;
  S.SingleFlightJoins = S.Cache.Joins;
  return S;
}
