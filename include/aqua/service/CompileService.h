//===- aqua/service/CompileService.h - Concurrent compile service -*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reusable, thread-safe assay-compilation service: a long-lived server
/// object that accepts batches of requests, lowers their source text, runs
/// each graph through the one compile pipeline, `compileGraph`
/// (Pipeline.h), and exploits the redundancy of real workloads (the same
/// glucose panel submitted plate after plate) three ways:
///
///  1. a fixed-size worker pool drains a shared queue, so independent
///     requests compile concurrently, while a request the cache already
///     holds is served on the submitting thread without queueing;
///  2. a front-end memo maps a request's source bytes (or graph object)
///     to its lowered graph and canonical form, and the solve cache
///     (SolveCache.h) maps the canonical request fingerprint
///     (RequestKey.h) to the full compile artifact;
///  3. *single flight*: both are instances of one keyed table
///     (KeyedTable.h), a sharded LRU whose keys can be pending, so when
///     N requests miss the same key at once, one lowers, reads the store
///     or solves, and the other N-1 wait for its result -- the cold-cache
///     thundering herd collapses to a single solve.
///
/// Production shaping: `ServiceOptions::StoreDir` attaches a persistent
/// content-addressed solve store (aqua/store) as a write-through L2 under
/// the LRU, so a restarted service re-serves prior solves from disk and N
/// service processes on one directory share each other's work. Admission
/// control sheds work instead of queueing unboundedly: a request past
/// `ServiceOptions::MaxQueueDepth` is rejected at submit (unless
/// high-priority), and a request whose deadline expired while it waited is
/// shed at dequeue without running the pipeline. Only queued work waits or
/// sheds: a cache hit bypasses pause() and depth admission. Shed responses
/// carry a distinct `CompileResponse::Shed` reason so clients can tell
/// overload from failure.
///
/// Thread-safety contract: every public method may be called from any
/// thread. No code path holds two locks: a memo claim, an L1 claim, the
/// donor index and the queue each take their own mutex alone (the
/// submitting caller's hit probe takes a memo shard's and then an L1
/// shard's, one at a time, before the queue's), and a request lowers,
/// reads the store, solves or waits for another's result with none held.
/// Artifacts are immutable and shared by `shared_ptr<const>`; callers
/// must not mutate through the pointer. The destructor drains outstanding
/// work and joins the workers.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_SERVICE_COMPILESERVICE_H
#define AQUA_SERVICE_COMPILESERVICE_H

#include "aqua/codegen/Codegen.h"
#include "aqua/core/Manager.h"
#include "aqua/ir/Canonical.h"
#include "aqua/obs/FlightRecorder.h"
#include "aqua/service/KeyedTable.h"
#include "aqua/service/SolveCache.h"
#include "aqua/store/SolveStore.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace aqua::service {

/// One unit of work: an assay (as source text or a pre-lowered DAG) plus
/// the hardware and solver configuration to compile it for.
struct CompileRequest {
  /// Label echoed into the response; not part of the cache key.
  std::string Name;
  /// Assay-language source; used when Graph is null.
  std::string Source;
  /// Pre-lowered DAG; takes precedence over Source when set. Shared so a
  /// batch of repeats does not copy the graph per request.
  std::shared_ptr<const ir::AssayGraph> Graph;
  core::MachineSpec Spec;
  core::ManagerOptions Manage;
  codegen::MachineLayout Layout;
  /// Absolute deadline on the obs::Tracer::nowMicros() clock; 0 means
  /// none. A request whose deadline has passed when a worker dequeues it
  /// is shed (ShedReason::DeadlineExpired) without running the pipeline.
  std::uint64_t DeadlineMicros = 0;
  /// Exempt from queue-depth admission control, and enqueued ahead of
  /// normal work: under overload the service keeps accepting these.
  bool HighPriority = false;
  /// Request trace id for causal tracing (obs/Trace.h). 0 (the default)
  /// means submit assigns a fresh one; a caller that pre-assigns (e.g. a
  /// dispatcher in another process) makes the request's spans and flow
  /// arc join the caller's.
  std::uint64_t TraceId = 0;
};

/// Why a request was rejected without running the pipeline: the flight
/// recorder's vocabulary (None, QueueFull, DeadlineExpired; named by
/// obs::shedCauseName).
using ShedReason = obs::ShedCause;

/// One compile outcome.
struct CompileResponse {
  /// Request label, echoed.
  std::string Name;
  /// False on front-end errors (parse/lower) and on deterministic
  /// pipeline failures (infeasible assignment, codegen exhaustion).
  bool Ok = false;
  std::string Error;
  /// Canonical request fingerprint (zero when the front end failed before
  /// a DAG existed).
  ir::Fingerprint Key;
  /// Served from the memoizing cache.
  bool CacheHit = false;
  /// The cache hit was satisfied by the persistent L2 store (a subset of
  /// CacheHit).
  bool CacheHitL2 = false;
  /// Waited for another request's fetch of the same fingerprint (single
  /// flight): its store read or its solve.
  bool Deduplicated = false;
  /// Non-None when the request was shed by admission control; Ok is false
  /// and no artifact is attached.
  ShedReason Shed = ShedReason::None;
  /// End-to-end service latency for this request, seconds.
  double LatencySec = 0.0;
  /// The trace id the request ran under (assigned at submit when the
  /// caller left CompileRequest::TraceId at 0).
  std::uint64_t TraceId = 0;
  /// The compile artifact; null only when the front end failed.
  std::shared_ptr<const CompileArtifact> Artifact;
};

/// Service configuration.
struct ServiceOptions {
  /// Worker threads (clamped to >= 1).
  int Threads = 4;
  /// Master switch for the memoizing cache, single-flight dedup *and* the
  /// front-end memo; off means every request runs the full pipeline,
  /// parse to codegen (the baseline the throughput bench compares
  /// against).
  bool EnableCache = true;
  CacheConfig Cache;
  /// Directory of the persistent solve store to attach as a write-through
  /// L2 under the LRU; empty disables persistence. A store that fails to
  /// open is logged and skipped -- the service still runs, memory-only.
  std::string StoreDir;
  store::StoreOptions Store;
  /// Filesystem the store runs on; null means the real one. Tests inject
  /// store::MemEnv here to exercise persistence without touching disk.
  store::Env *StoreEnv = nullptr;
  /// Queue-depth admission budget: a normal-priority submit that would
  /// push the queue past this is shed with ShedReason::QueueFull. 0 means
  /// unbounded (no admission control). A cache hit never queues, so it is
  /// never shed on depth.
  std::size_t MaxQueueDepth = 0;
  /// Warm-miss basis reuse: a cache miss whose *structure* key (the
  /// request fingerprint with MaxCapacityNl / PinnedVolumeNl masked, see
  /// RequestKey.h) matches an earlier artifact hands that artifact's
  /// optimal LP basis to the manager, which repairs it with the dual
  /// simplex instead of solving the RVol LP cold. Identical results,
  /// fewer pivots; volume sweeps over one assay amortize to near-hit
  /// cost.
  bool WarmMiss = true;
};

/// Aggregate service counters plus a snapshot of the cache counters.
struct ServiceStats {
  std::uint64_t Submitted = 0;
  std::uint64_t Completed = 0;
  std::uint64_t Failed = 0;
  std::uint64_t CacheHits = 0;
  /// Cache hits satisfied by the persistent L2 store.
  std::uint64_t CacheHitsL2 = 0;
  /// Requests that waited for another request's fetch of the same
  /// fingerprint (Cache.Joins).
  std::uint64_t SingleFlightJoins = 0;
  /// Requests served by the front-end memo: a repeated source text (or a
  /// resubmitted shared graph) that skipped parse, lower and WL
  /// canonicalization, the dominant costs of a cache hit.
  std::uint64_t CanonMemoHits = 0;
  /// Keys the front-end memo holds now (at most
  /// CompileService::FrontEndMemoCapacity).
  std::size_t FrontEndMemoEntries = 0;
  /// Cache misses that reused a same-structure donor basis (warm-miss).
  std::uint64_t WarmMissHits = 0;
  /// Requests rejected by admission control, by reason.
  std::uint64_t ShedQueueFull = 0;
  std::uint64_t ShedDeadline = 0;
  std::uint64_t shedTotal() const { return ShedQueueFull + ShedDeadline; }
  /// Sum of per-request service latencies, seconds (ScopedTimer-fed).
  double TotalLatencySec = 0.0;
  /// Seconds spent actually solving (cache misses only).
  double SolveSec = 0.0;
  CacheStats Cache;

  std::string str() const;
};

/// The concurrent assay-compilation service.
class CompileService {
public:
  explicit CompileService(const ServiceOptions &Options = {});
  ~CompileService();

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Submits one request. When the front-end memo holds its source (or
  /// graph) and the L1 holds its artifact, it is served on the calling
  /// thread and the returned future is already ready, even while paused
  /// or with a full queue. Otherwise it is enqueued and the future
  /// resolves when a worker finishes it; under admission control it may
  /// already hold a shed response. A request whose deadline has passed
  /// is always enqueued, and sheds at dequeue.
  std::future<CompileResponse> submit(CompileRequest Request);

  /// Submits a whole batch as submit() does each request (the enqueued
  /// rest take one lock acquisition and one wakeup for the lot) and
  /// blocks until every request is done. Responses are in request order;
  /// admission control applies per request.
  std::vector<CompileResponse> compileBatch(std::vector<CompileRequest> Batch);

  /// Runs one request synchronously on the calling thread (still goes
  /// through cache and single-flight; deadline checked on entry).
  CompileResponse compileNow(const CompileRequest &Request);

  /// Stops workers from dequeueing (in-flight requests finish). Submits
  /// still enqueue -- with admission control they shed past the budget,
  /// which is how tests build a deterministically full queue (pause right
  /// after construction, while the queue is still empty). Cache hits are
  /// still served on the submitting thread.
  void pause();
  /// Resumes dequeueing.
  void resume();

  /// Current queue depth (jobs accepted but not yet dequeued).
  std::size_t queueDepth() const;

  ServiceStats stats() const;

  /// The attached persistent store; null when persistence is disabled.
  const store::SolveStore *store() const { return Store.get(); }

  /// Keys the front-end memo holds at most (see DESIGN §7 for the
  /// footprint behind the number).
  static constexpr std::size_t FrontEndMemoCapacity = 256;

private:
  /// What the front end makes of a request: the lowered graph and its
  /// canonical form, or (both null) the lowering error.
  struct FrontEnd {
    std::shared_ptr<const ir::AssayGraph> Graph;
    std::shared_ptr<const ir::CanonicalForm> Canon;
    std::string Error;
  };
  /// What the submitting caller learnt before it queued a request: the
  /// memoized front end and the request fingerprint (FE.Graph is null when
  /// the memo missed), and the seconds it spent learning them.
  struct Probe {
    FrontEnd FE;
    ir::Fingerprint Key;
    double Sec = 0.0;
  };
  struct Job {
    CompileRequest Request;
    std::promise<CompileResponse> Promise;
    /// Trace-epoch submit time (obs::Tracer::nowMicros); the worker that
    /// dequeues the job turns it into the queue-wait histogram.
    std::uint64_t EnqueueMicros = 0;
    /// The caller's memo hit, if it had one: the worker starts at the L1.
    Probe Pre;
  };
  void workerLoop();
  /// The one way into the queue. It assigns each request its trace id
  /// and serves the ones the L1 holds on the calling thread (serveHit),
  /// taking no queue lock. For the rest it begins their flow arcs, then
  /// under one QueueMutex hold applies queue-depth admission
  /// (HighPriority bypasses it and goes to the front) and sets the
  /// queue-depth gauge; then it sheds what admission turned away and
  /// wakes parked workers. Returns one future per request, in request
  /// order; a hit's or a shed request's future is already ready.
  std::vector<std::future<CompileResponse>>
  enqueue(std::span<CompileRequest> Requests);
  /// The caller-side hit path: probes the front-end memo and, on a memo
  /// hit, the L1 under the request fingerprint, counting hits only. An L1
  /// hit is completed here and returned; otherwise \p Pre keeps what the
  /// probe found for the worker.
  std::optional<CompileResponse> serveHit(const CompileRequest &Request,
                                          Probe &Pre);
  /// Lowers (source text) and canonicalizes \p Request, or reuses the
  /// memoized result of an earlier request with the same key. \p Path
  /// receives which of the two the request paid for.
  FrontEnd frontEnd(const CompileRequest &Request, obs::FrontEndPath &Path);
  /// Runs the pipeline for one admitted request, from the L1 when \p Pre
  /// holds the caller's memo hit. \p QueueWaitSec feeds the request
  /// digest; \p EndFlow ends the submit-side flow arc inside the request
  /// span (true only when submit began one, i.e. queued paths).
  CompileResponse process(const CompileRequest &Request, Probe Pre,
                          double QueueWaitSec, bool EndFlow);
  /// The uncached pipeline tail: compileGraph on a lowered graph.
  /// \p StructKey, when non-null, keys the warm-start donor lookup (a
  /// same-structure sibling's optimal LP basis) and the publication of
  /// this solve's basis; \p SolveSecOut, when non-null, gets its wall time.
  std::shared_ptr<const CompileArtifact>
  solveAndGenerate(const CompileRequest &Request, const ir::AssayGraph &G,
                   const ir::Fingerprint *StructKey = nullptr,
                   double *SolveSecOut = nullptr);
  /// Counts \p R, whose LatencySec is set, as a completion in ServiceStats
  /// and the service.* metrics, and records its digest.
  void complete(const CompileRequest &Request, const CompileResponse &R,
                obs::RequestOutcome Outcome, double QueueWaitSec,
                double SolveSec, obs::FrontEndPath Path);
  /// Records the request's flight-recorder digest.
  static void recordDigest(const CompileRequest &Request,
                           const CompileResponse &R,
                           obs::RequestOutcome Outcome, double QueueWaitSec,
                           double SolveSec,
                           obs::FrontEndPath Path = obs::FrontEndPath::None);
  /// Records \p Artifact's LP basis (if any) as the donor for its
  /// structure key.
  void publishDonor(const ir::Fingerprint &StructKey,
                    const CompileArtifact &Artifact);
  /// Sheds \p Request for \p Reason: counts it in ServiceStats and the
  /// service.shed_* metrics, records its digest and returns the rejection
  /// response. \p QueueWaitSec is how long it waited before the decision;
  /// \p EndFlow ends the request's flow arc at the shed.
  CompileResponse shed(const CompileRequest &Request, ShedReason Reason,
                       double QueueWaitSec, bool EndFlow);

  ServiceOptions Options;
  SolveCache Cache;
  /// Persistent L2; attached to Cache when StoreDir is set and opens.
  std::unique_ptr<store::SolveStore> Store;

  mutable std::mutex QueueMutex;
  std::condition_variable QueueCV;
  std::deque<Job> Queue;
  bool Paused = false;
  /// Workers parked in QueueCV.wait (maintained under QueueMutex).
  /// Producers skip the notify syscall entirely while every worker is
  /// busy -- a draining worker re-checks the queue before parking, so no
  /// wakeup is lost -- which keeps the no-cache hot path from serializing
  /// on futex traffic as the thread count grows.
  int IdleWorkers = 0;
  bool ShuttingDown = false;
  std::vector<std::thread> Workers;

  /// Warm-start donor index: structure key -> the most recent optimal LP
  /// basis solved under that structure (and the presolved-shape hash it
  /// is valid for). Bases are immutable shared snapshots, a few KB each;
  /// there is one entry per distinct assay structure, not per request.
  struct Donor {
    std::shared_ptr<const lp::Basis> Basis;
    std::uint64_t ShapeHash = 0;
  };
  std::mutex DonorMutex;
  std::unordered_map<ir::Fingerprint, Donor, ir::FingerprintHash> Donors;

  /// Front-end memo key: a source-text request's exact bytes, or a graph
  /// request's graph object. The key holds the graph, so an identity
  /// match can never be a recycled address. A request probes the memo as
  /// a MemoProbe, which views its bytes instead of copying them.
  template <class Text, class GraphRef> struct MemoKeyOf {
    std::size_t Hash;
    Text Source;
    GraphRef Graph;
  };
  using GraphPtr = std::shared_ptr<const ir::AssayGraph>;
  using MemoProbe = MemoKeyOf<std::string_view, const GraphPtr &>;
  struct MemoKey : MemoKeyOf<std::string, GraphPtr> {
    explicit MemoKey(const MemoProbe &P)
        : MemoKeyOf{P.Hash, P.Graph ? "" : std::string(P.Source), P.Graph} {}
  };
  struct MemoOps {
    using is_transparent = void;
    template <class A> std::size_t operator()(const A &X) const {
      return X.Hash;
    }
    template <class A, class B>
    bool operator()(const A &X, const B &Y) const {
      return X.Hash == Y.Hash && X.Graph == Y.Graph &&
             (X.Graph || std::string_view(X.Source) == Y.Source);
    }
  };
  /// \p Request's memo key, viewing its source bytes or graph.
  static MemoProbe memoProbe(const CompileRequest &Request);
  /// Front-end memo: a repeated request skips parse, lower and WL
  /// canonicalization. Concurrent first submissions of a key wait on one
  /// lowering, which runs outside the shard lock; a failed lowering is
  /// abandoned, not memoized.
  KeyedTable<MemoKey, FrontEnd, MemoOps, MemoOps> Memo{FrontEndMemoCapacity,
                                                       SIZE_MAX, 8};

  std::atomic<std::uint64_t> Submitted{0};
  std::atomic<std::uint64_t> Completed{0};
  std::atomic<std::uint64_t> Failed{0};
  std::atomic<std::uint64_t> WarmMissHits{0};
  std::atomic<std::uint64_t> ShedQueueFull{0};
  std::atomic<std::uint64_t> ShedDeadline{0};
  std::atomic<double> TotalLatencySec{0.0};
  std::atomic<double> SolveSec{0.0};
};

} // namespace aqua::service

#endif // AQUA_SERVICE_COMPILESERVICE_H
