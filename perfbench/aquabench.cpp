//===- perfbench/aquabench.cpp - AquaVol end-to-end benchmark ------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process per run: builds a workload's inputs from a seed, sets the
/// system up, drives it with one closed-loop client for a fixed time, checks
/// every output after the timed phase, and prints one JSON result line.
/// `perfbench/README.md` explains the workloads and the metrics; `run.py`
/// builds this program and passes it its arguments.
///
/// Usage:
///   aquabench --workload NAME --seed N --seconds S --trace 0|1
///             --slo-ms MS --work-dir DIR [--commit ID] [--inputs-digest]
///
//===----------------------------------------------------------------------===//

#include "harness.h"

#include "aqua/assays/ExtraAssays.h"
#include "aqua/assays/PaperAssays.h"
#include "aqua/check/Generator.h"
#include "aqua/codegen/Codegen.h"
#include "aqua/core/DagSolve.h"
#include "aqua/core/Formulation.h"
#include "aqua/core/Manager.h"
#include "aqua/core/Rounding.h"
#include "aqua/core/Verify.h"
#include "aqua/ir/Canonical.h"
#include "aqua/lang/Lower.h"
#include "aqua/lp/Solver.h"
#include "aqua/obs/Metrics.h"
#include "aqua/service/ArtifactCodec.h"
#include "aqua/service/CompileService.h"
#include "aqua/service/RequestKey.h"
#include "aqua/store/SolveStore.h"
#include "aqua/support/Random.h"
#include "aqua/vm/Fleet.h"

#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

#include <sched.h>
#include <unistd.h>

using namespace aqua;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

std::uint64_t mix(std::uint64_t A, std::uint64_t B) {
  return SplitMix64(A * 0x9e3779b97f4a7c15ULL ^ (B + 0x632be59bd9b4e019ULL))
      .next();
}

/// FNV-1a over raw bytes; used for input digests and chip digests.
struct Digest {
  std::uint64_t H = 0xcbf29ce484222325ULL;
  Digest &bytes(const void *P, std::size_t N) {
    const auto *B = static_cast<const unsigned char *>(P);
    for (std::size_t I = 0; I < N; ++I)
      H = (H ^ B[I]) * 0x100000001b3ULL;
    return *this;
  }
  Digest &str(const std::string &S) {
    return u64(S.size()).bytes(S.data(), S.size());
  }
  Digest &u64(std::uint64_t V) { return bytes(&V, sizeof(V)); }
  Digest &f64(double V) { return bytes(&V, sizeof(V)); }
};

/// Seeded Fisher-Yates.
template <typename T> void shuffle(std::vector<T> &V, SplitMix64 &R) {
  for (std::size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[static_cast<std::size_t>(R.next() % I)]);
}

/// A fixed multiset of operation choices dealt in a seeded order: every
/// pass over the deck runs each choice exactly its weight times, so the
/// operation mix of a run does not depend on the seed.
class Deck {
public:
  Deck() = default;
  Deck(std::vector<int> Cards, std::uint64_t Seed)
      : Cards(std::move(Cards)), Rng(Seed) {
    shuffle(this->Cards, Rng);
  }
  int next() {
    if (Pos == Cards.size()) {
      shuffle(Cards, Rng);
      Pos = 0;
    }
    return Cards[Pos++];
  }

private:
  std::vector<int> Cards;
  SplitMix64 Rng{0};
  std::size_t Pos = 0;
};

/// Expands per-choice weights into deck cards.
std::vector<int> cards(const std::vector<int> &Weights) {
  std::vector<int> Out;
  for (std::size_t I = 0; I < Weights.size(); ++I)
    Out.insert(Out.end(), Weights[I], static_cast<int>(I));
  return Out;
}

/// The first operation that took an unexpected path, for diagnostics.
std::string PathWhy;
void notePathFailure(const std::string &Why) {
  if (PathWhy.empty())
    PathWhy = Why;
}

/// Independent check of one compile artifact: the real-valued assignment
/// satisfies every Figure 3 constraint class, and the rounded (metered)
/// assignment satisfies them too, except for what rounding to whole least
/// counts cannot avoid: mix ratios (reported as ratio_err_pct), yield
/// outputs off by less than a least count, and discards that rounding
/// leaves to take the remainder. A capacity, least-count or
/// non-deficit violation of the rounded assignment passes only when the
/// artifact's IntegerAssignment flags it (Overflow / Underflow) -- the rounding
/// contract aqua/check's rounding oracle enforces -- and is counted in
/// \p Flagged.
bool verifyArtifact(const service::CompileArtifact &A,
                    const core::MachineSpec &Spec, std::string *Why,
                    bool *Flagged = nullptr) {
  if (!A.Ok) {
    if (Why)
      *Why = "artifact not ok: " + A.Error.substr(0, 200);
    return false;
  }
  if (!A.Managed)
    return true; // Relative-volume program: no static assignment exists.
  core::VerifyOptions Real;
  Real.RatioTolerance = 1e-6;
  auto V = core::verifyAssignment(A.VM.Graph, A.VM.Volumes, Spec, Real);
  if (!V.empty()) {
    if (Why)
      *Why = "real assignment: " + core::violationsToString(V).substr(0, 300);
    return false;
  }
  // Rounding meters no volume into an Excess (discard) node: the edge
  // takes whatever its producer has left. Give it exactly that, so the
  // producer's balance is checked against its real consumers.
  const ir::AssayGraph &G = A.VM.Graph;
  core::VolumeAssignment Rounded = A.Metered;
  std::vector<char> ToExcess(G.numEdgeSlots(), 0);
  for (ir::NodeId N : G.liveNodes()) {
    double Left = Rounded.NodeVolumeNl[N];
    std::vector<ir::EdgeId> Excess;
    for (ir::EdgeId E : G.outEdges(N)) {
      if (G.node(G.edge(E).Dst).Kind == ir::NodeKind::Excess)
        Excess.push_back(E);
      else
        Left -= Rounded.EdgeVolumeNl[E];
    }
    for (ir::EdgeId E : Excess) {
      ToExcess[E] = 1;
      Rounded.EdgeVolumeNl[E] =
          std::max(0.0, Left) / static_cast<double>(Excess.size());
    }
  }
  for (ir::NodeId N : G.liveNodes())
    if (G.node(N).Kind == ir::NodeKind::Excess) {
      Rounded.NodeVolumeNl[N] = 0;
      for (ir::EdgeId E : G.inEdges(N))
        Rounded.NodeVolumeNl[N] += Rounded.EdgeVolumeNl[E];
    }
  for (const core::Violation &X : core::verifyAssignment(G, Rounded, Spec)) {
    // An empty discard is no transfer at all.
    if (X.ConstraintClass <= 1 && X.Edge >= 0 && ToExcess[X.Edge])
      continue;
    bool Allowed =
        X.ConstraintClass == 4 ||
        (X.ConstraintClass == 5 && X.Magnitude <= Spec.LeastCountNl + 1e-9);
    // Underflow also covers a producer left short: rounding flags it when
    // it cannot trim its consumers back to the producer's volume.
    bool FlaggedHere =
        (X.ConstraintClass == 2 && A.VM.Rounded.Overflow) ||
        ((X.ConstraintClass == 1 || X.ConstraintClass == 3) &&
         A.VM.Rounded.Underflow);
    if (FlaggedHere && Flagged)
      *Flagged = true;
    if (Allowed || FlaggedHere)
      continue;
    if (Why)
      *Why = "rounded assignment: " + X.Message;
    return false;
  }
  return true;
}

double meanRatioErrPct(const service::CompileArtifact &A) {
  return A.Managed ? core::mixRatioErrorPct(A.VM.Graph, A.VM.Rounded).second
                   : 0.0;
}

/// Counter snapshot of the program's own metrics registry.
using Counters = std::map<std::string, std::uint64_t>;
Counters counters() { return obs::metrics().counterValues(); }
double delta(const Counters &A, const Counters &B, const std::string &N) {
  auto I = B.find(N), J = A.find(N);
  return static_cast<double>((I == B.end() ? 0 : I->second) -
                             (J == A.end() ? 0 : J->second));
}
double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

using SpanStats = std::map<std::string, SpanStat>;
/// The aggregate of the spans named \p Name (zero when there were none).
SpanStat spanStat(const SpanStats &Spans, const char *Name) {
  auto I = Spans.find(Name);
  return I == Spans.end() ? SpanStat{} : I->second;
}
double selfUs(const SpanStats &Spans, const char *Name) {
  return spanStat(Spans, Name).meanSelfUs();
}

//===----------------------------------------------------------------------===//
// Workload interface
//===----------------------------------------------------------------------===//

struct RunConfig {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  double SloMs = 0;
  std::string WorkDir;
  std::string Commit = "unknown";
  bool InputsDigest = false;
};

/// Per-phase per-layer figures a workload adds to a traced run.
struct PhaseView {
  const PhaseResult *Phase;
  Counters Before, After;
  double d(const std::string &N) const { return delta(Before, After, N); }
};

/// One closed-loop client drives every workload: on a shared 4-vCPU host,
/// two clients moved throughput by up to 25% between identical runs, while
/// one client (plus one service worker) stayed within a few percent.
class Workload {
public:
  virtual ~Workload() = default;
  /// Threads the program runs besides the client (service workers).
  virtual int programThreads() const { return 0; }
  /// Timed operations after which peak_rss_mb is read: the same count
  /// whatever the program's speed, so a program that serves more requests
  /// in the run's seconds (and stores more of them) does not read as
  /// using more memory. Each is well below what the slowest host state
  /// seen completes in a 15 s run.
  virtual std::size_t rssOps() const = 0;
  /// Deterministic digest of every generated input.
  virtual std::uint64_t inputsDigest() const = 0;
  /// The one-time work a deployment pays; returns setup_s.
  virtual double setup() = 0;
  /// Untimed preparation after setup (references, expected paths).
  virtual void prepare() {}
  /// What the mix of the last phase cost, per choice, as a JSON object
  /// for the provenance block; empty when the workload has no such split.
  virtual std::string mixReport() const { return "{}"; }
  /// Clears the per-op logs before a phase; \p Decomposed selects the
  /// traced decomposition of the same operation.
  virtual void beginPhase(bool Decomposed) = 0;
  /// One operation; logs it when \p Timed. Returns false when it failed
  /// or took another path than the expected one.
  virtual bool op(std::uint64_t I, bool Timed) = 0;
  /// Post-phase verification: one flag per logged op.
  virtual std::vector<char> verify(std::string &Why) = 0;
  /// Mean mix-ratio error (%) over the phase's ops, after verify().
  virtual double ratioErrPct() const = 0;
  /// Path counts of the last phase, for the provenance block.
  virtual std::string pathCounts() const = 0;
  /// Per-layer metrics from the untraced phase (counters) and the traced
  /// phase (spans).
  virtual void layerMetrics(Metrics &M, const PhaseView &U,
                            const SpanStats &Spans) = 0;
  /// Extra traced set-up spans (image compiles); default none.
  virtual void tracedSetupProbe() {}
  /// Whether the decomposed phase traces its \p I-th operation: about
  /// half of them, chosen so both halves run the same operation mix. The
  /// default picks by a hash of the index.
  virtual bool tracedOp(std::uint64_t I) const {
    return (I * 0x9e3779b97f4a7c15ULL) >> 63;
  }
};

/// Median of \p Reps repeated set-ups. Fn(i) runs the i-th and returns
/// its seconds, so a repeat can leave untimed work (tear-down) out.
/// The untimed repeat 0 pays for cold caches and page faults.
double medianSetup(int Reps, const std::function<double(int)> &Fn) {
  (void)Fn(0);
  std::vector<double> T;
  for (int I = 1; I <= Reps; ++I)
    T.push_back(Fn(I));
  return median(T);
}

/// Host factors of the timed set-up steps.
std::vector<double> SetupFactors;

/// Seconds \p Fn takes, in reference-host units: divided by the median of
/// three calibration samples taken just before it and three just after.
double timed(const std::function<void()> &Fn) {
  std::vector<double> Cal;
  for (int I = 0; I < 3; ++I)
    Cal.push_back(calibrationSample());
  double S = nowSec();
  Fn();
  double Sec = nowSec() - S;
  for (int I = 0; I < 3; ++I)
    Cal.push_back(calibrationSample());
  double F = median(Cal) / RefCalibrationSec;
  SetupFactors.push_back(F);
  return Sec / F;
}

//===----------------------------------------------------------------------===//
// Service-path helpers shared by hit_replay and miss_sweep
//===----------------------------------------------------------------------===//

/// Everything the decomposed service path needs: the same modules the
/// service calls, each behind one of the benchmark's spans.
struct Decomposed {
  service::SolveCache Cache; ///< Default CacheConfig, no store attached.
  std::unique_ptr<store::SolveStore> Store;
};

std::unique_ptr<store::SolveStore> openStore(const std::string &Dir) {
  auto S = store::SolveStore::open(Dir);
  if (!S.ok()) {
    std::fprintf(stderr, "aquabench: cannot open store %s: %s\n", Dir.c_str(),
                 S.message().c_str());
    std::exit(2);
  }
  return std::move(*S);
}

/// Front half of CompileService::process on source text: parse + lower,
/// canonicalize, request and structure fingerprints.
struct FrontEnd {
  std::shared_ptr<const ir::AssayGraph> Graph;
  ir::Fingerprint Key, StructKey;
};
bool frontEnd(const std::string &Source, const core::MachineSpec &Spec,
              FrontEnd &Out) {
  {
    Span S("lang.compileAssay");
    auto L = lang::compileAssay(Source);
    if (!L.ok())
      return false;
    Out.Graph = std::make_shared<const ir::AssayGraph>(std::move(L->Graph));
  }
  ir::CanonicalForm C;
  {
    Span S("ir.canonicalize");
    C = ir::canonicalize(*Out.Graph);
  }
  Span S("service.fingerprint");
  Out.Key = service::requestFingerprint(C, Spec, {}, {});
  Out.StructKey = service::structureFingerprint(C, Spec, {}, {});
  return true;
}

void serviceLayerMetrics(Metrics &M, const PhaseView &U,
                         const SpanStats &Spans,
                         double QueueWaitUs) {
  auto Us = [&](const char *N) { return selfUs(Spans, N); };
  double Req = U.d("service.requests.completed");
  double Hits = U.d("service.cache.hits"), L2 = U.d("service.cache.hits_l2"),
         Dec = U.d("service.cache.decoded_hits");
  M.set("lang.parse_lower_us", Us("lang.compileAssay"), "us");
  M.set("ir.canonicalize_us", Us("ir.canonicalize"), "us");
  M.set("ir.canon_memo_hit_frac", ratio(U.d("service.canon_memo_hits"), Req),
        "fraction");
  M.set("service.queue_wait_us", QueueWaitUs, "us");
  M.set("service.l1_hit_frac", ratio(Hits - L2 - Dec, Req), "fraction");
  M.set("service.decoded_hit_frac", ratio(Dec, Req), "fraction");
  M.set("service.l2_hit_frac", ratio(L2, Req), "fraction");
  M.set("service.fingerprint_us", Us("service.fingerprint"), "us");
  M.set("service.lookup_us", Us("service.cacheLookup"), "us");
  M.set("service.seqlock_retries", U.d("service.cache.seqlock_retries"),
        "count");
  M.set("service.singleflight_joins", U.d("service.singleflight.joins"),
        "count");
  M.set("service.warm_miss_frac",
        ratio(U.d("service.warm_miss_hits"), U.d("service.cache.misses")),
        "fraction");
  M.set("service.encode_us", Us("service.encodeArtifact"), "us");
  M.set("service.decode_us", Us("service.decodeArtifact"), "us");
  M.set("store.get_us", Us("store.getView"), "us");
  M.set("store.put_us", Us("store.put"), "us");
  M.set("store.index_probe_frac",
        ratio(U.d("store.index_probes"), U.d("store.gets")), "fraction");
  M.set("store.fallback_scans", U.d("store.index_fallback_scans"), "count");
  M.set("store.refreshes_per_miss",
        ratio(U.d("store.refreshes"), U.d("store.gets")), "ratio");
  M.set("store.appended_bytes_per_op",
        ratio(U.d("store.appended_bytes"), static_cast<double>(U.Phase->Samples.size())),
        "bytes");
}

void coreLayerMetrics(Metrics &M, const PhaseView &U, const SpanStats &Spans) {
  double Runs = U.d("core.manage.runs");
  M.set("core.manage_us", selfUs(Spans, "core.manageVolumes"), "us");
  M.set("core.dagsolve_us", selfUs(Spans, "probe.core.dagSolve"), "us");
  M.set("core.round_us", selfUs(Spans, "probe.core.roundToLeastCount"), "us");
  M.set("core.lp_fallback_frac", ratio(U.d("core.manage.lp_fallbacks"), Runs),
        "fraction");
  M.set("core.cascades_per_op", ratio(U.d("core.manage.cascades"), Runs),
        "count");
  M.set("core.replications_per_op",
        ratio(U.d("core.manage.replications"), Runs), "count");
}

/// The LP's own counters, per solve, from the untraced phase.
void lpCounterMetrics(Metrics &M, const PhaseView &U) {
  double Solves = U.d("lp.cold_solves") + U.d("lp.warm_reopts");
  M.set("lp.pivots_per_solve", ratio(U.d("lp.pivots"), Solves), "count");
  M.set("lp.refactorizations_per_solve",
        ratio(U.d("lp.refactorizations"), Solves), "count");
  M.set("lp.ftran_dense_frac",
        ratio(U.d("lp.ftran_dense"),
              U.d("lp.ftran_dense") + U.d("lp.ftran_hypersparse")),
        "fraction");
  M.set("lp.warm_repair_frac", ratio(U.d("lp.warm_shape_repairs"), Solves),
        "fraction");
}

//===----------------------------------------------------------------------===//
// hit_replay
//===----------------------------------------------------------------------===//

/// A warm aquad deployment: Zipf-skewed repeats of (source, spec) keys
/// submitted as source text. More keys than L1 entries, so the tail is
/// served from the mmap'd store.
class HitReplay : public Workload {
public:
  static constexpr int NumPaper = 4;
  // 120 generated programs: their rounding errors average out, so
  // ratio_err_pct varies little between seeds.
  static constexpr int NumGenerated = 120;
  static constexpr int NumSpecs = 16;
  static constexpr double ZipfS = 0.9;
  static constexpr int DeckSize = 8192;

  explicit HitReplay(const RunConfig &Cfg) : Cfg(Cfg) {
    std::vector<std::string> Sources = {
        assays::glucoseSource(), assays::glycomicsSource(),
        assays::enzymeSource(), assays::bradfordSource()};
    check::GenConfig GC;
    GC.AllowUnknownVolumes = false;
    for (int G = 0; G < NumGenerated; ++G)
      Sources.push_back(
          check::generateProgram(mix(Cfg.Seed, 1000 + G), GC).render());
    // The same spec sweep for every seed: rounding error depends on the
    // spec, and seeded specs moved ratio_err_pct between seeds. Each
    // capacity is a whole number of least counts (the metering pump's
    // unit).
    const double Caps[] = {100, 125, 150, 200, 250, 300, 400, 500};
    const double Lcs[] = {0.1, 0.05};
    std::vector<core::MachineSpec> Specs;
    for (int I = 0; I < NumSpecs; ++I) {
      core::MachineSpec S;
      S.LeastCountNl = Lcs[I / 8];
      S.MaxCapacityNl = std::round(Caps[I % 8] / S.LeastCountNl) *
                        S.LeastCountNl;
      Specs.push_back(S);
    }
    // The paper assays take the top ranks, which carry most requests, so
    // the request mix barely depends on which programs the seed generates;
    // the generated programs fill the long tail.
    for (int Rank = 0; Rank < NumPaper * NumSpecs; ++Rank)
      addKey(Sources[Rank % NumPaper], Specs[Rank / NumPaper]);
    for (int I = 0; I < NumGenerated * NumSpecs; ++I)
      addKey(Sources[NumPaper + I % NumGenerated], Specs[I / NumGenerated]);
  }

  int programThreads() const override { return 1; }
  std::size_t rssOps() const override { return 20000; }

  std::uint64_t inputsDigest() const override {
    Digest D;
    for (const auto &K : Keys)
      D.str(K.Source).f64(K.Spec.MaxCapacityNl).f64(K.Spec.LeastCountNl);
    return D.H;
  }

  /// Warming the corpus into a fresh store, then opening the service
  /// that serves from it: the median of five, each on its own store.
  double setup() override {
    std::vector<service::CompileResponse> Warm;
    std::vector<double> T;
    for (int Rep = 0; Rep < 5; ++Rep) {
      Service.reset();
      if (!StoreDir.empty())
        fs::remove_all(StoreDir);
      StoreDir = Cfg.WorkDir + "/hit-store-" + std::to_string(Rep);
      T.push_back(timed([&] {
        service::ServiceOptions O;
        O.Threads = programThreads();
        O.StoreDir = StoreDir;
        {
          service::CompileService Warmer(O);
          Warm = Warmer.compileBatch(Keys);
        }
        Service = std::make_unique<service::CompileService>(O);
      }));
    }

    // Keys whose spec admits no assignment are not part of the corpus.
    std::vector<service::CompileRequest> Kept;
    for (std::size_t I = 0; I < Keys.size(); ++I) {
      if (!Warm[I].Ok) {
        ++DroppedKeys;
        continue;
      }
      Kept.push_back(Keys[I]);
      RefBytes.push_back(service::encodeArtifact(*Warm[I].Artifact));
      std::string Why;
      bool Flagged = false;
      RefOk.push_back(
          verifyArtifact(*Warm[I].Artifact, Keys[I].Spec, &Why, &Flagged));
      RefFlagged.push_back(Flagged);
      if (!RefOk.back())
        std::fprintf(stderr, "aquabench: key %zu fails verification: %s\n", I,
                     Why.c_str());
      RefRatioErr.push_back(meanRatioErrPct(*Warm[I].Artifact));
      RefInstrs.push_back(
          static_cast<double>(Warm[I].Artifact->Program.Instrs.size()));
    }
    Keys = std::move(Kept);
    Checked.assign(Keys.size(), {});
    // Zipf weights by rank, apportioned to DeckSize cards (largest
    // remainder), so every seed replays the same per-rank counts.
    std::vector<double> W(Keys.size());
    double Sum = 0;
    for (std::size_t I = 0; I < W.size(); ++I)
      Sum += W[I] = 1.0 / std::pow(static_cast<double>(I + 1), ZipfS);
    std::vector<int> Count(W.size());
    std::vector<std::pair<double, int>> Rem;
    int Dealt = 0;
    for (std::size_t I = 0; I < W.size(); ++I) {
      double Exact = W[I] / Sum * DeckSize;
      Count[I] = static_cast<int>(Exact);
      Dealt += Count[I];
      Rem.push_back({Exact - Count[I], static_cast<int>(I)});
    }
    std::stable_sort(Rem.begin(), Rem.end(),
                     [](auto &A, auto &B) { return A.first > B.first; });
    for (int I = 0; Dealt < DeckSize; ++I, ++Dealt)
      ++Count[Rem[I].second];
    Cards = cards(Count);
    return median(T);
  }

  void beginPhase(bool Dec) override {
    DecomposedPath = Dec;
    if (Dec && !D) {
      D = std::make_unique<Decomposed>();
      D->Store = openStore(StoreDir);
    }
    if (Dec) // The untraced phase just ended.
      UQueueWait = QueueWaitSec;
    Matched.clear();
    Matched.reserve(1 << 22); // Untouched until written.
    QueueWaitSec = RatioSum = InstrSum = 0;
    Ops = L2Ops = FlaggedOps = 0;
    MismatchWhy.clear();
    Order = Deck(Cards, mix(Cfg.Seed, 100 + 10 * Phase));
    ++Phase;
  }

  bool op(std::uint64_t, bool Timed) override {
    int K = Order.next();
    std::shared_ptr<const service::CompileArtifact> A;
    bool PathOk = false, L2 = false;
    if (!DecomposedPath) {
      double T0 = nowSec();
      service::CompileResponse R = Service->submit(Keys[K]).get();
      double Lat = nowSec() - T0;
      PathOk = R.Ok && R.CacheHit && !R.Deduplicated;
      L2 = R.CacheHitL2;
      A = std::move(R.Artifact);
      if (Timed)
        QueueWaitSec += Lat - R.LatencySec;
    } else {
      Span S("op.request");
      FrontEnd F;
      if (frontEnd(Keys[K].Source, Keys[K].Spec, F)) {
        {
          Span S2("service.cacheLookup");
          A = D->Cache.lookup(F.Key);
        }
        if (!A) {
          store::ArtifactView V;
          bool Got;
          {
            Span S3("store.getView");
            Got = D->Store->getView(F.Key, V);
          }
          if (Got) {
            Span S4("service.decodeArtifact");
            auto Dec = service::decodeArtifact(V.Payload);
            if (Dec.ok())
              A = std::make_shared<const service::CompileArtifact>(
                  std::move(*Dec));
          }
          if (A) {
            Span S5("service.cacheInsert");
            D->Cache.insert(F.Key, A);
            L2 = true;
          }
        }
        PathOk = A && A->Ok;
      }
    }
    if (Timed) {
      // Checked and tallied as it arrives: one byte per operation kept.
      ThinkTime T;
      bool Ok = matchesSetup(A, K);
      Matched.push_back(Ok);
      if (!Ok && MismatchWhy.empty())
        MismatchWhy = !RefOk[K]
                          ? "hit_replay: set-up artifact fails verification"
                          : "hit_replay: response differs from the set-up "
                            "artifact of key " +
                                std::to_string(K);
      RatioSum += RefRatioErr[K];
      InstrSum += RefInstrs[K];
      ++Ops;
      L2Ops += L2;
      FlaggedOps += RefFlagged[K];
    }
    return PathOk;
  }

  std::vector<char> verify(std::string &Why) override {
    if (Why.empty())
      Why = MismatchWhy;
    return Matched;
  }

  double ratioErrPct() const override { return ratio(RatioSum, Ops); }
  std::string pathCounts() const override {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"keys\": %zu, \"dropped_keys\": %d, \"hits\": %llu, "
                  "\"l2_hits\": %llu, \"misses\": 0, "
                  "\"flagged_rounding\": %llu}",
                  Keys.size(), DroppedKeys,
                  static_cast<unsigned long long>(Ops),
                  static_cast<unsigned long long>(L2Ops),
                  static_cast<unsigned long long>(FlaggedOps));
    return Buf;
  }

  void layerMetrics(Metrics &M, const PhaseView &U,
                    const SpanStats &Spans) override {
    serviceLayerMetrics(M, U, Spans,
                        ratio(UQueueWait,
                              static_cast<double>(U.Phase->Samples.size())) *
                            1e6);
    M.set("codegen.instrs_per_artifact", ratio(InstrSum, Ops), "count");
    M.set("core.round_flagged_frac", ratio(FlaggedOps, Ops), "fraction");
  }

private:
  void addKey(const std::string &Source, const core::MachineSpec &Spec) {
    service::CompileRequest Req;
    Req.Name = "k" + std::to_string(Keys.size());
    Req.Source = Source;
    Req.Spec = Spec;
    Keys.push_back(std::move(Req));
  }

  /// Whether \p A encodes to the set-up artifact of key \p K, byte for
  /// byte. Checked as it arrives, so the client keeps no responses (which
  /// would inflate peak_rss_mb). An L1 hit hands out the object it handed
  /// out last time, so each key remembers the last object it checked; the
  /// weak_ptr makes that safe against a freed object's address being
  /// reused, and one slot per key bounds what the memo pins.
  bool matchesSetup(const std::shared_ptr<const service::CompileArtifact> &A,
                    int K) {
    if (!A)
      return false;
    CheckedObj &Slot = Checked[K];
    if (Slot.Obj.lock() == A)
      return Slot.Ok;
    bool Ok = RefOk[K] && service::encodeArtifact(*A) == RefBytes[K];
    Slot = {A, Ok};
    return Ok;
  }

  struct CheckedObj {
    std::weak_ptr<const service::CompileArtifact> Obj;
    bool Ok = false;
  };

  RunConfig Cfg;
  std::vector<service::CompileRequest> Keys;
  std::vector<std::string> RefBytes;
  std::vector<char> RefOk, RefFlagged;
  std::vector<double> RefRatioErr, RefInstrs;
  std::vector<int> Cards;
  int DroppedKeys = 0;
  int Phase = 0;
  bool DecomposedPath = false;
  std::string StoreDir;
  std::unique_ptr<service::CompileService> Service;
  std::unique_ptr<Decomposed> D;
  Deck Order;
  /// Per timed operation: whether the response matched its set-up
  /// artifact.
  std::vector<char> Matched;
  std::string MismatchWhy;
  std::vector<CheckedObj> Checked;
  double QueueWaitSec = 0, UQueueWait = 0;
  double RatioSum = 0, InstrSum = 0;
  std::uint64_t Ops = 0, L2Ops = 0, FlaggedOps = 0;
};

//===----------------------------------------------------------------------===//
// miss_sweep
//===----------------------------------------------------------------------===//

/// The write side: every request is a fingerprint never seen before.
/// Even operations are cold misses on seeded generator programs (each use
/// under a least count no other request has); odd operations sweep the
/// Bradford assay's capacity, eight requests per structure: the first is
/// a cold LP solve, the other seven repair its basis (warm misses). One
/// client issues them in order, so every donor basis is the one the
/// sequence left, whatever the thread timing.
class MissSweep : public Workload {
public:
  static constexpr int PoolSize = 512;
  static constexpr int PerStructure = 8;

  explicit MissSweep(const RunConfig &Cfg) : Cfg(Cfg) {
    check::GenConfig GC;
    GC.AllowUnknownVolumes = false;
    core::MachineSpec Probe;
    for (std::uint64_t G = 0; Pool.size() < PoolSize; ++G) {
      std::string Src = check::generateProgram(mix(Cfg.Seed, G), GC).render();
      // Only programs the pipeline can compile at the base spec.
      auto L = lang::compileAssay(Src);
      if (!L.ok() || !core::manageVolumes(L->Graph, Probe).Feasible)
        continue;
      Pool.push_back(std::move(Src));
    }
    Bradford = assays::bradfordSource();
  }

  int programThreads() const override { return 1; }
  std::size_t rssOps() const override { return 8000; }

  std::uint64_t inputsDigest() const override {
    Digest D;
    for (const auto &S : Pool)
      D.str(S);
    return D.H;
  }

  /// The request for the \p I-th operation.
  struct Plan {
    const std::string *Source;
    core::MachineSpec Spec;
    bool Lp, Warm;
  };
  Plan plan(std::uint64_t I) const {
    Plan P;
    // Capacities are whole numbers of least counts, as on a real chip.
    if (I % 2 == 0) {
      std::uint64_t J = I / 2;
      P.Source = &Pool[J % PoolSize];
      P.Spec.LeastCountNl = 0.1 + static_cast<double>(J) * 1e-7;
      P.Spec.MaxCapacityNl = 1000 * P.Spec.LeastCountNl;
      P.Lp = P.Warm = false;
    } else {
      std::uint64_t J = I / 2, Structure = J / PerStructure,
                    K = J % PerStructure;
      P.Source = &Bradford;
      P.Spec.LeastCountNl = LcBase + static_cast<double>(Structure) * 1e-6;
      // One more least count per step. Around 60 nl every step repairs
      // the previous basis; at 100-150 nl some steps change the presolved
      // shape and fall back to a cold solve, which would make the path
      // depend on the capacity drawn.
      P.Spec.MaxCapacityNl =
          (std::round(60.0 / P.Spec.LeastCountNl) + static_cast<double>(K)) *
          P.Spec.LeastCountNl;
      P.Lp = true;
      P.Warm = K > 0;
    }
    return P;
  }

  /// A fresh deployment's cold start: opening a service on an empty store
  /// and serving its first request, the Bradford assay at the default spec
  /// (a cold LP solve, codegen, encode and one store append). The median
  /// of 31. Opening alone takes tens of microseconds of filesystem calls,
  /// whose latency drifted by half within minutes on a shared host; the
  /// first compile keeps the figure mostly CPU. The sweep then runs on a
  /// service of its own, opened untimed, so it starts from an empty store.
  double setup() override {
    service::ServiceOptions O;
    O.Threads = programThreads();
    service::CompileRequest First;
    First.Source = Bradford;
    double Sec = medianSetup(31, [&](int Rep) {
      O.StoreDir = Cfg.WorkDir + "/cold-start-" + std::to_string(Rep);
      std::unique_ptr<service::CompileService> S;
      double T = timed([&] {
        S = std::make_unique<service::CompileService>(O);
        if (!S->submit(First).get().Ok) {
          std::fprintf(stderr, "aquabench: cold-start compile failed\n");
          std::exit(2);
        }
      });
      S.reset();
      fs::remove_all(O.StoreDir);
      return T;
    });
    StoreDir = O.StoreDir = Cfg.WorkDir + "/miss-store";
    Service = std::make_unique<service::CompileService>(O);
    return Sec;
  }

  void beginPhase(bool Dec) override {
    // Phases continue the sequence, so no fingerprint repeats, from the
    // next whole structure, so no phase inherits a donor basis from
    // another.
    Offset = (LastIndex + 2 * PerStructure - 1) / (2 * PerStructure) *
             (2 * PerStructure);
    DecomposedPath = Dec;
    if (Dec && !D) {
      D = std::make_unique<Decomposed>();
      DStoreDir = Cfg.WorkDir + "/miss-store-decomposed";
      D->Store = openStore(DStoreDir);
    }
    if (Dec) // The untraced phase just ended.
      UQueueWait = QueueWaitSec;
    Log.clear();
    Log.reserve(1 << 20); // Untouched until written.
    QueueWaitSec = 0;
    Donors.clear();
  }

  bool op(std::uint64_t I, bool Timed) override {
    I += Offset;
    LastIndex = I + 1;
    Plan P = plan(I);
    bool PathOk;
    ir::Fingerprint Key;
    if (!DecomposedPath) {
      service::CompileRequest Req;
      Req.Source = *P.Source;
      Req.Spec = P.Spec;
      double T0 = nowSec();
      service::CompileResponse R = Service->submit(std::move(Req)).get();
      if (Timed)
        QueueWaitSec += nowSec() - T0 - R.LatencySec;
      Key = R.Key;
      PathOk = R.Ok && !R.CacheHit && !R.Deduplicated && R.Artifact &&
               R.Artifact->VM.LpWarmStarted == P.Warm &&
               (!P.Lp || R.Artifact->VM.Method == core::SolveMethod::LP);
      if (!PathOk)
        notePathFailure(
            "miss_sweep op " + std::to_string(I) + ": ok=" +
            std::to_string(R.Ok) + " hit=" + std::to_string(R.CacheHit) +
            " lp=" + std::to_string(P.Lp) + " expect_warm=" +
            std::to_string(P.Warm) + " warm=" +
            std::to_string(R.Artifact && R.Artifact->VM.LpWarmStarted) +
            " method_lp=" +
            std::to_string(R.Artifact &&
                           R.Artifact->VM.Method == core::SolveMethod::LP) +
            " " + R.Error.substr(0, 120));
    } else {
      PathOk = decomposedOp(P, Key);
    }
    if (Timed)
      Log.push_back({I, Key});
    return PathOk;
  }

  std::vector<char> verify(std::string &Why) override {
    // Every artifact is read back from the store the phase wrote to.
    auto Reader = openStore(DecomposedPath ? DStoreDir : StoreDir);
    std::vector<char> Out;
    RatioSum = InstrSum = 0;
    Ops = Cold = Warm = FlaggedOps = 0;
    for (const Entry &E : Log) {
      Plan P = plan(E.I);
      std::string Payload, Err;
      bool Ok = Reader->get(E.Key, Payload);
      if (Ok) {
        auto A = service::decodeArtifact(Payload);
        bool Flagged = false;
        Ok = A.ok() && verifyArtifact(*A, P.Spec, &Err, &Flagged);
        FlaggedOps += Flagged;
        if (A.ok()) {
          RatioSum += meanRatioErrPct(*A);
          InstrSum += static_cast<double>(A->Program.Instrs.size());
        }
      } else {
        Err = "artifact missing from the store";
      }
      if (!Ok && Why.empty())
        Why = "miss_sweep: " + Err;
      Out.push_back(Ok);
      ++Ops;
      (P.Warm ? Warm : Cold) += 1;
    }
    return Out;
  }

  double ratioErrPct() const override { return ratio(RatioSum, Ops); }
  std::string pathCounts() const override {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"cold_misses\": %llu, \"warm_misses\": %llu, "
                  "\"hits\": 0, \"flagged_rounding\": %llu}",
                  static_cast<unsigned long long>(Cold),
                  static_cast<unsigned long long>(Warm),
                  static_cast<unsigned long long>(FlaggedOps));
    return Buf;
  }

  void layerMetrics(Metrics &M, const PhaseView &U,
                    const SpanStats &Spans) override {
    serviceLayerMetrics(M, U, Spans,
                        ratio(UQueueWait,
                              static_cast<double>(U.Phase->Samples.size())) *
                            1e6);
    coreLayerMetrics(M, U, Spans);
    lpCounterMetrics(M, U);
    M.set("codegen.generate_us", selfUs(Spans, "codegen.generateAIS"), "us");
    M.set("codegen.instrs_per_artifact", ratio(InstrSum, Ops), "count");
    M.set("core.round_flagged_frac", ratio(FlaggedOps, Ops), "fraction");
  }

private:
  /// CompileService::process's miss path, one public call per span. The
  /// donor table holds exactly what the service's would.
  bool decomposedOp(const Plan &P, ir::Fingerprint &Key) {
    std::shared_ptr<service::CompileArtifact> A;
    std::shared_ptr<const ir::AssayGraph> G;
    {
      Span S("op.request");
      FrontEnd F;
      if (!frontEnd(*P.Source, P.Spec, F))
        return false;
      Key = F.Key;
      G = F.Graph;
      {
        Span S2("service.cacheLookup");
        if (D->Cache.lookup(F.Key))
          return false; // A hit is the wrong path here.
      }
      A = std::make_shared<service::CompileArtifact>();
      A->Managed = true;
      core::ManagerOptions MO;
      MO.LPOptions.CaptureBasis = true;
      auto &Donor = Donors[F.StructKey.str()];
      MO.LPOptions.WarmStart = Donor.first;
      MO.LPOptions.WarmShapeHash = Donor.second;
      {
        Span S3("core.manageVolumes");
        A->VM = core::manageVolumes(*G, P.Spec, MO);
      }
      if (A->VM.LpBasis)
        Donor = {A->VM.LpBasis, A->VM.LpShapeHash};
      if (!A->VM.Feasible)
        return false;
      {
        Span S4("core.integerToNl");
        A->Metered = core::integerToNl(A->VM.Graph, A->VM.Rounded, P.Spec);
      }
      {
        Span S5("codegen.generateAIS");
        codegen::CodegenOptions CG;
        CG.Mode = codegen::VolumeMode::Managed;
        CG.Volumes = &A->Metered;
        auto Prog = codegen::generateAIS(A->VM.Graph, {}, CG);
        if (!Prog.ok())
          return false;
        A->Ok = true;
        A->Program = std::move(*Prog);
      }
      std::string Bytes;
      {
        Span S6("service.encodeArtifact");
        Bytes = service::encodeArtifact(*A);
      }
      {
        Span S7("store.put");
        if (!D->Store->put(F.Key, Bytes).ok())
          return false;
      }
      Span S8("service.cacheInsert");
      D->Cache.insert(F.Key, A);
    }
    // Probes outside the request span: the hierarchy's first rung and
    // its rounding step on this request's inputs, timed alone.
    {
      Span S("probe.core.dagSolve");
      (void)core::dagSolve(*G, P.Spec);
    }
    {
      Span S("probe.core.roundToLeastCount");
      (void)core::roundToLeastCount(A->VM.Graph, A->VM.Volumes, P.Spec);
    }
    return A->VM.LpWarmStarted == P.Warm &&
           (!P.Lp || A->VM.Method == core::SolveMethod::LP);
  }

  struct Entry {
    std::uint64_t I;
    ir::Fingerprint Key;
  };

  RunConfig Cfg;
  std::vector<std::string> Pool;
  std::string Bradford;
  /// Bradford's least counts start here for every seed: its rounding
  /// error depends on the least count, and a seeded base moved
  /// ratio_err_pct by 17% between seeds.
  static constexpr double LcBase = 0.15;
  std::string StoreDir, DStoreDir;
  std::unique_ptr<service::CompileService> Service;
  std::unique_ptr<Decomposed> D;
  bool DecomposedPath = false;
  std::unordered_map<std::string,
                     std::pair<std::shared_ptr<const lp::Basis>, std::uint64_t>>
      Donors;
  std::vector<Entry> Log;
  double QueueWaitSec = 0, UQueueWait = 0;
  std::uint64_t Offset = 0, LastIndex = 0;
  double RatioSum = 0, InstrSum = 0;
  std::uint64_t Ops = 0, Cold = 0, Warm = 0, FlaggedOps = 0;
};

//===----------------------------------------------------------------------===//
// lp_scale
//===----------------------------------------------------------------------===//

/// The paper's Table 2 LP column at growing size: core::solveRVolLP on
/// enzyme_nK at 1000 nl (K = 2..6) plus the paper assays, weighted so the
/// largest models carry most of the time.
class LpScale : public Workload {
public:
  struct Model {
    std::string Name;
    ir::AssayGraph G;
    core::MachineSpec Spec;
    int Weight;
    std::int64_t ExpPivots = -1;
    double DenseObjective = 0, RatioErr = 0;
    bool DenseOk = false;
  };

  explicit LpScale(const RunConfig &Cfg) : Cfg(Cfg) { build(Models); }

  std::size_t rssOps() const override { return 1000; }

  static void build(std::vector<Model> &Out) {
    Out.clear();
    core::MachineSpec Big, Small;
    Big.MaxCapacityNl = 1000.0;
    // n3 holds the median operation well inside its share, so p50 does
    // not flip between neighbouring models with the seed.
    const int Weights[] = {8, 14, 8, 6, 4};
    for (int N = 2; N <= 6; ++N)
      Out.push_back({"enzyme_n" + std::to_string(N),
                     assays::buildEnzymeAssay(N, 1), Big, Weights[N - 2]});
    Out.push_back({"glucose", assays::buildGlucoseAssay(), Small, 2});
    Out.push_back({"glycomics", assays::buildGlycomicsAssay(), Small, 2});
    Out.push_back({"enzyme", assays::buildEnzymeAssay(), Big, 2});
  }

  std::uint64_t inputsDigest() const override {
    Digest D;
    for (const Model &M : Models)
      D.str(M.Name).u64(M.G.numNodes()).f64(M.Spec.MaxCapacityNl).u64(
          M.Weight);
    Deck Order(cards(weights()), mix(Cfg.Seed, 1));
    for (int I = 0; I < 64; ++I)
      D.u64(Order.next());
    return D.H;
  }

  /// Building every model's graph and formulating its LP once: the
  /// median of 31.
  double setup() override {
    std::vector<Model> Tmp;
    return medianSetup(31, [&](int) {
      return timed([&] {
        build(Tmp);
        for (const Model &M : Tmp)
          (void)core::buildVolumeModel(M.G, M.Spec);
      });
    });
  }

  /// The path gate's pivot counts and the verification references, once
  /// per model.
  void prepare() override {
    for (Model &M : Models) {
      auto R = core::solveRVolLP(M.G, M.Spec);
      if (R.Solution.Status == lp::SolveStatus::Optimal)
        M.ExpPivots = R.Solution.Iterations;
      reference(M);
    }
  }

  std::string mixReport() const override {
    std::vector<double> Sec(Models.size()), Ops(Models.size());
    double Total = 0;
    for (const Entry &E : Log) {
      Sec[E.M] += E.OpSec;
      Ops[E.M] += 1;
      Total += E.OpSec;
    }
    std::string S = "{";
    for (std::size_t I = 0; I < Models.size(); ++I) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "%s\"%s\": {\"weight\": %d, \"ops\": %.0f, "
                    "\"mean_us\": %.1f, \"time_share\": %.4f}",
                    I ? ", " : "", Models[I].Name.c_str(), Models[I].Weight,
                    Ops[I], ratio(Sec[I], Ops[I]) * 1e6, ratio(Sec[I], Total));
      S += Buf;
    }
    return S + "}";
  }

  void beginPhase(bool Dec) override {
    DecomposedPath = Dec;
    Log.clear();
    Order = Deck(cards(weights()), mix(Cfg.Seed, 200 + 10 * Phase));
    ++Phase;
  }

  /// Every other pass over the deck: each half runs the exact mix.
  bool tracedOp(std::uint64_t I) const override {
    return I / cards(weights()).size() % 2;
  }

  bool op(std::uint64_t, bool Timed) override {
    int Mi = Order.next();
    const Model &M = Models[Mi];
    lp::Solution Sol;
    double LpSec = 0, Start = nowSec();
    if (!DecomposedPath) {
      Sol = core::solveRVolLP(M.G, M.Spec).Solution;
    } else {
      Span S("op.solve");
      core::Formulation F;
      {
        Span S1("core.buildVolumeModel");
        F = core::buildVolumeModel(M.G, M.Spec);
      }
      {
        Span S2("lp.solve");
        double T = nowSec();
        Sol = lp::solve(F.Model);
        LpSec = nowSec() - T;
      }
      Span S3("core.extractAssignment");
      (void)core::extractAssignment(M.G, F, Sol);
    }
    bool PathOk = Sol.Status == lp::SolveStatus::Optimal &&
                  Sol.Iterations == M.ExpPivots;
    if (Timed)
      Log.push_back(
          {Mi, Sol.Objective, Sol.Iterations, LpSec, nowSec() - Start});
    return PathOk;
  }

  std::vector<char> verify(std::string &Why) override {
    std::vector<char> Out;
    RatioSum = 0;
    Ops = 0;
    for (const Entry &E : Log) {
      const Model &M = Models[E.M];
      bool Ok = M.DenseOk &&
                std::fabs(E.Objective - M.DenseObjective) <=
                    1e-6 * std::max(1.0, std::fabs(M.DenseObjective));
      if (!Ok && Why.empty())
        Why = "lp_scale: " + M.Name + " objective differs from the dense "
                                      "reference";
      Out.push_back(Ok);
      RatioSum += M.RatioErr;
      ++Ops;
    }
    return Out;
  }

  double ratioErrPct() const override { return ratio(RatioSum, Ops); }
  std::string pathCounts() const override {
    std::string S = "{";
    for (const Model &M : Models)
      S += (S.size() > 1 ? ", \"" : "\"") + M.Name +
           "_pivots\": " + std::to_string(M.ExpPivots);
    return S + "}";
  }

  void layerMetrics(Metrics &M, const PhaseView &U,
                    const SpanStats &Spans) override {
    lpCounterMetrics(M, U);
    M.set("lp.solve_us", selfUs(Spans, "lp.solve"), "us");
    // Per-pivot cost of the smallest and the largest enzyme model, from
    // the traced phase's lp::solve calls.
    double Sec[2] = {0, 0}, Piv[2] = {0, 0};
    for (const Entry &E : Log)
      for (int Side = 0; Side < 2; ++Side)
        if (Models[E.M].Name == (Side ? "enzyme_n6" : "enzyme_n2")) {
          Sec[Side] += E.LpSec;
          Piv[Side] += static_cast<double>(E.Pivots);
        }
    M.set("lp.us_per_pivot_small", ratio(Sec[0], Piv[0]) * 1e6, "us");
    M.set("lp.us_per_pivot_large", ratio(Sec[1], Piv[1]) * 1e6, "us");
    M.set("core.formulate_us", selfUs(Spans, "core.buildVolumeModel"), "us");
  }

private:
  std::vector<int> weights() const {
    std::vector<int> W;
    for (const Model &M : Models)
      W.push_back(M.Weight);
    return W;
  }

  /// Dense-tableau reference objective and the rounded LP assignment's
  /// mix-ratio error.
  static void reference(Model &M) {
    lp::SolverOptions Dense;
    Dense.Engine = lp::LpEngine::Dense;
    auto R = core::solveRVolLP(M.G, M.Spec, {}, Dense);
    M.DenseOk = R.Solution.Status == lp::SolveStatus::Optimal;
    M.DenseObjective = R.Solution.Objective;
    auto Rev = core::solveRVolLP(M.G, M.Spec);
    core::VerifyOptions VO;
    VO.ToleranceNl = VO.RatioTolerance = 1e-5;
    if (!core::verifyAssignment(M.G, Rev.Volumes, M.Spec, VO).empty())
      M.DenseOk = false;
    M.RatioErr =
        core::mixRatioErrorPct(
            M.G, core::roundToLeastCount(M.G, Rev.Volumes, M.Spec))
            .second;
  }

  struct Entry {
    int M;
    double Objective;
    std::int64_t Pivots;
    /// lp::solve alone (decomposed phase only), and the whole operation.
    double LpSec, OpSec;
  };

  RunConfig Cfg;
  std::vector<Model> Models;
  bool DecomposedPath = false;
  int Phase = 0;
  Deck Order;
  std::vector<Entry> Log;
  double RatioSum = 0;
  std::uint64_t Ops = 0;
};

//===----------------------------------------------------------------------===//
// fleet_exec
//===----------------------------------------------------------------------===//

/// vm::runFleet over a mix of compiled images with shared reservoirs and
/// a fresh seed per operation. The fleet runs on the client's thread
/// (FleetOptions::Threads = 1).
class FleetExec : public Workload {
public:
  static constexpr int Chips = 32;

  struct Assay {
    std::string Name;
    ir::AssayGraph G;
    core::MachineSpec Spec;
    int Weight;
  };

  explicit FleetExec(const RunConfig &Cfg) : Cfg(Cfg) {
    core::MachineSpec Small, Big;
    Big.MaxCapacityNl = 1000.0;
    Mix = {{"glucose", assays::buildGlucoseAssay(), Small, 3},
           {"glycomics", assays::buildGlycomicsAssay(), Small, 3},
           {"enzyme", assays::buildEnzymeAssay(), Big, 1},
           {"enzyme_n2", assays::buildEnzymeAssay(2, 2), Small, 2},
           {"pcr", assays::buildPcrMasterMix(), Small, 2},
           {"mic", assays::buildMicPanel(), Small, 2},
           {"immuno", assays::buildImmunoassay(), Small, 3}};
  }

  std::size_t rssOps() const override { return 4000; }

  std::uint64_t inputsDigest() const override {
    Digest D;
    for (const Assay &A : Mix)
      D.str(A.Name).u64(A.G.numNodes()).f64(A.Spec.MaxCapacityNl).u64(A.Weight);
    for (std::uint64_t I = 0; I < 64; ++I)
      D.u64(opSeed(I));
    return D.H;
  }

  /// Compiling every image of the mix: the median of 31.
  double setup() override {
    return medianSetup(31,
                       [&](int) { return timed([&] { compileImages(Images); }); });
  }

  void tracedSetupProbe() override {
    for (const Assay &A : Mix) {
      {
        Span S("vm.compileFleetImage");
        (void)vm::compileFleetImage(A.G, A.Spec);
      }
      core::ManagerResult M;
      {
        Span S("probe.core.manageVolumes");
        M = core::manageVolumes(A.G, A.Spec);
      }
      auto Metered = core::integerToNl(M.Graph, M.Rounded, A.Spec);
      Span S("probe.codegen.generateAIS");
      codegen::CodegenOptions CG;
      CG.Mode = codegen::VolumeMode::Managed;
      CG.Volumes = &Metered;
      (void)codegen::generateAIS(M.Graph, {}, CG);
    }
  }

  void beginPhase(bool Dec) override {
    DecomposedPath = Dec;
    Log.clear();
    Log.reserve(1 << 20); // Untouched until written.
    InstrTotal = RegenTotal = RecompileTotal = RemanageTotal = 0;
    Order = Deck(cards(weights()), mix(Cfg.Seed, 300 + 10 * Phase));
    ++Phase;
  }

  /// Every other pass over the deck: each half runs the exact mix.
  bool tracedOp(std::uint64_t I) const override {
    return I / cards(weights()).size() % 2;
  }

  bool op(std::uint64_t I, bool Timed) override {
    int Ai = Order.next();
    vm::FleetOptions O = options(opSeed(I + 1000003ULL * Phase));
    vm::FleetResult R;
    if (!DecomposedPath) {
      R = vm::runFleet(Images[Ai], O);
    } else {
      Span S("op.fleet");
      Span S2("vm.runFleet");
      R = vm::runFleet(Images[Ai], O);
    }
    if (!Timed)
      return R.ChipsFailed == 0;
    Entry E{Ai, O.Seed, 0};
    {
      ThinkTime T; // Digesting the chips is the client's work.
      E.Chips = fleetDigest(R.Chips);
    }
    Log.push_back(E);
    InstrTotal += R.InstructionsExecuted;
    RegenTotal += R.Regenerations;
    RecompileTotal += static_cast<std::uint64_t>(R.SegmentRecompiles);
    RemanageTotal += static_cast<std::uint64_t>(R.OnlineRemanages);
    return R.ChipsFailed == 0 && static_cast<int>(R.Chips.size()) == Chips;
  }

  std::vector<char> verify(std::string &Why) override {
    std::vector<char> Out(Log.size(), 0);
    // Every chip against a single-thread runChip reference; untimed, so it
    // uses every core.
    int Threads = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::thread> T;
    std::vector<std::string> Whys(Threads);
    for (int Th = 0; Th < Threads; ++Th)
      T.emplace_back([&, Th] {
        for (std::size_t I = Th; I < Log.size(); I += Threads) {
          const Entry &E = Log[I];
          vm::FleetOptions O = options(E.Seed);
          SplitMix64 SeedGen(E.Seed);
          std::vector<vm::ChipResult> Ref;
          bool Ok = true;
          for (int K = 0; K < Chips; ++K) {
            Ref.push_back(vm::runChip(Images[E.A], O, SeedGen.next(), K));
            Ok = Ok && Ref.back().Completed;
          }
          Ok = Ok && fleetDigest(Ref) == E.Chips;
          if (!Ok && Whys[Th].empty())
            Whys[Th] = "fleet_exec: " + Mix[E.A].Name +
                       " chip differs from its runChip reference";
          Out[I] = Ok;
        }
      });
    for (auto &Th : T)
      Th.join();
    for (auto &W : Whys)
      if (Why.empty())
        Why = W;
    if (RatioErr.empty())
      for (const Assay &A : Mix) {
        auto M = core::manageVolumes(A.G, A.Spec);
        RatioErr.push_back(core::mixRatioErrorPct(M.Graph, M.Rounded).second);
      }
    RatioSum = InstrPerImage = 0;
    Ops = 0;
    for (const Entry &E : Log) {
      RatioSum += RatioErr[E.A];
      for (const vm::FleetSegment &S : Images[E.A].Segments)
        InstrPerImage += static_cast<double>(S.Prog.Code.size());
      ++Ops;
    }
    return Out;
  }

  double ratioErrPct() const override { return ratio(RatioSum, Ops); }
  std::string pathCounts() const override {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"chips\": %llu, \"instructions\": %llu, "
                  "\"regenerations\": %llu}",
                  static_cast<unsigned long long>(Ops * Chips),
                  static_cast<unsigned long long>(InstrTotal),
                  static_cast<unsigned long long>(RegenTotal));
    return Buf;
  }

  void layerMetrics(Metrics &M, const PhaseView &,
                    const SpanStats &Spans) override {
    double ChipsRun = static_cast<double>(Ops * Chips);
    M.set("vm.image_compile_us", selfUs(Spans, "vm.compileFleetImage"), "us");
    M.set("vm.instr_per_s",
          ratio(InstrTotal, spanStat(Spans, "vm.runFleet").SelfSec),
          "1/s");
    M.set("vm.instructions_per_chip", ratio(InstrTotal, ChipsRun),
          "count");
    M.set("vm.regenerations_per_chip", ratio(RegenTotal, ChipsRun),
          "count");
    M.set("vm.segment_recompiles_per_chip",
          ratio(RecompileTotal, ChipsRun), "count");
    M.set("vm.online_remanages_per_chip", ratio(RemanageTotal, ChipsRun),
          "count");
    M.set("codegen.generate_us", selfUs(Spans, "probe.codegen.generateAIS"),
          "us");
    M.set("core.manage_us", selfUs(Spans, "probe.core.manageVolumes"), "us");
    M.set("codegen.instrs_per_artifact", ratio(InstrPerImage, Ops), "count");
  }

private:
  void compileImages(std::vector<vm::FleetImage> &Out) {
    Out.clear();
    for (const Assay &A : Mix) {
      auto I = vm::compileFleetImage(A.G, A.Spec);
      if (!I.ok()) {
        std::fprintf(stderr, "aquabench: fleet image %s: %s\n", A.Name.c_str(),
                     I.message().c_str());
        std::exit(2);
      }
      Out.push_back(std::move(*I));
    }
  }

  std::vector<int> weights() const {
    std::vector<int> W;
    for (const Assay &A : Mix)
      W.push_back(A.Weight);
    return W;
  }

  std::uint64_t opSeed(std::uint64_t I) const {
    return mix(Cfg.Seed, mix(400, I));
  }

  static vm::FleetOptions options(std::uint64_t Seed) {
    vm::FleetOptions O;
    O.NumChips = Chips;
    O.Threads = 1;
    O.Seed = Seed;
    O.SharedReservoirs = true;
    return O;
  }

  /// Everything about each chip, in chip order, that must not depend on
  /// threads or other chips: counts, volumes, readings. Reservoir waits
  /// (and so fluid seconds and the makespan) are left out.
  static std::uint64_t fleetDigest(const std::vector<vm::ChipResult> &Chips) {
    Digest D;
    for (const vm::ChipResult &R : Chips)
      chipDigest(D, R);
    return D.H;
  }
  static void chipDigest(Digest &D, const vm::ChipResult &R) {
    D.u64(R.Completed).u64(R.PartitionsExecuted).u64(R.Regenerations);
    D.u64(R.InstructionsExecuted).u64(R.OnlineRemanages);
    D.u64(R.PartitionReruns).u64(R.SegmentRecompiles);
    D.f64(R.DeliveredNl).f64(R.WasteNl);
    for (double V : R.Volumes.NodeVolumeNl)
      D.f64(V);
    for (double V : R.Volumes.EdgeVolumeNl)
      D.f64(V);
    for (const auto &S : R.Senses) {
      D.str(S.Name).f64(S.VolumeNl);
      for (const auto &[F, X] : S.Composition)
        D.str(F).f64(X);
    }
    for (const auto &[F, X] : R.MeasuredNl)
      D.str(F).f64(X);
  }

  struct Entry {
    int A;
    std::uint64_t Seed;
    std::uint64_t Chips; ///< fleetDigest of the fleet's chips.
  };

  RunConfig Cfg;
  std::vector<Assay> Mix;
  std::vector<vm::FleetImage> Images;
  bool DecomposedPath = false;
  int Phase = 0;
  Deck Order;
  std::vector<Entry> Log;
  std::uint64_t InstrTotal = 0, RegenTotal = 0, RecompileTotal = 0,
                RemanageTotal = 0;
  std::vector<double> RatioErr;
  double RatioSum = 0, InstrPerImage = 0;
  std::uint64_t Ops = 0;
};

//===----------------------------------------------------------------------===//
// Main
//===----------------------------------------------------------------------===//

std::unique_ptr<Workload> makeWorkload(const RunConfig &Cfg) {
  if (Cfg.Workload == "hit_replay")
    return std::make_unique<HitReplay>(Cfg);
  if (Cfg.Workload == "miss_sweep")
    return std::make_unique<MissSweep>(Cfg);
  if (Cfg.Workload == "lp_scale")
    return std::make_unique<LpScale>(Cfg);
  if (Cfg.Workload == "fleet_exec")
    return std::make_unique<FleetExec>(Cfg);
  return nullptr;
}

/// One phase: the closed loop, then verification. An operation failed when
/// it missed its path gate or its verification.
struct PhaseOutcome {
  PhaseResult R;
  std::uint64_t Failed = 0, PathFailed = 0;
  std::string Why;
};

PhaseOutcome runPhase(Workload &W, bool Decomposed, double WarmSec,
                      double Seconds, SpanSink *Sink) {
  W.beginPhase(Decomposed);
  PhaseOutcome Out;
  Out.R = runClosedLoop(
      WarmSec, Seconds, W.rssOps(),
      [&](std::uint64_t I, bool Timed) { return W.op(I, Timed); }, Sink,
      [&](std::uint64_t I) { return W.tracedOp(I); });
  std::vector<char> Verified = W.verify(Out.Why);
  for (std::size_t I = 0; I < Out.R.Samples.size(); ++I) {
    OpSample &S = Out.R.Samples[I];
    Out.PathFailed += !S.Ok;
    S.Ok = S.Ok && I < Verified.size() && Verified[I];
    Out.Failed += !S.Ok;
  }
  return Out;
}

/// Every per-layer metric and its unit, as BENCHMARK.json lists them.
const std::pair<const char *, const char *> PerLayerUnits[] = {
    {"lang.parse_lower_us", "us"},
    {"ir.canonicalize_us", "us"},
    {"ir.canon_memo_hit_frac", "fraction"},
    {"service.queue_wait_us", "us"},
    {"service.l1_hit_frac", "fraction"},
    {"service.decoded_hit_frac", "fraction"},
    {"service.l2_hit_frac", "fraction"},
    {"service.fingerprint_us", "us"},
    {"service.lookup_us", "us"},
    {"service.seqlock_retries", "count"},
    {"service.singleflight_joins", "count"},
    {"service.warm_miss_frac", "fraction"},
    {"service.encode_us", "us"},
    {"service.decode_us", "us"},
    {"store.get_us", "us"},
    {"store.put_us", "us"},
    {"store.index_probe_frac", "fraction"},
    {"store.fallback_scans", "count"},
    {"store.refreshes_per_miss", "ratio"},
    {"store.appended_bytes_per_op", "bytes"},
    {"core.manage_us", "us"},
    {"core.dagsolve_us", "us"},
    {"core.round_us", "us"},
    {"core.lp_fallback_frac", "fraction"},
    {"core.cascades_per_op", "count"},
    {"core.replications_per_op", "count"},
    {"core.round_flagged_frac", "fraction"},
    {"core.formulate_us", "us"},
    {"lp.solve_us", "us"},
    {"lp.pivots_per_solve", "count"},
    {"lp.us_per_pivot_small", "us"},
    {"lp.us_per_pivot_large", "us"},
    {"lp.refactorizations_per_solve", "count"},
    {"lp.ftran_dense_frac", "fraction"},
    {"lp.warm_repair_frac", "fraction"},
    {"codegen.generate_us", "us"},
    {"codegen.instrs_per_artifact", "count"},
    {"vm.image_compile_us", "us"},
    {"vm.instr_per_s", "1/s"},
    {"vm.instructions_per_chip", "count"},
    {"vm.regenerations_per_chip", "count"},
    {"vm.segment_recompiles_per_chip", "count"},
    {"vm.online_remanages_per_chip", "count"},
    {"obs.trace_overhead_frac", "fraction"},
    {"unattributed_frac", "fraction"},
};

int usage() {
  std::fprintf(stderr,
               "usage: aquabench --workload hit_replay|miss_sweep|lp_scale|"
               "fleet_exec --seed N --seconds S --trace 0|1 --slo-ms MS "
               "--work-dir DIR [--commit ID] [--inputs-digest]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig Cfg;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++I];
    };
    if (A == "--workload")
      Cfg.Workload = Next();
    else if (A == "--seed")
      Cfg.Seed = std::strtoull(Next(), nullptr, 10);
    else if (A == "--seconds")
      Cfg.Seconds = std::atof(Next());
    else if (A == "--trace")
      Cfg.Trace = std::atoi(Next()) != 0;
    else if (A == "--slo-ms")
      Cfg.SloMs = std::atof(Next());
    else if (A == "--work-dir")
      Cfg.WorkDir = Next();
    else if (A == "--commit")
      Cfg.Commit = Next();
    else if (A == "--inputs-digest")
      Cfg.InputsDigest = true;
    else
      return usage();
  }
  // Every thread of the run shares the CPU the run starts on, so the
  // host calibration measures the CPU the program runs on. With one
  // request in flight, the client and the service worker never need to
  // run at once.
  cpu_set_t OneCpu;
  CPU_ZERO(&OneCpu);
  CPU_SET(sched_getcpu(), &OneCpu);
  sched_setaffinity(0, sizeof(OneCpu), &OneCpu);
  std::unique_ptr<Workload> W = makeWorkload(Cfg);
  if (!W)
    return usage();
  if (Cfg.InputsDigest) {
    std::printf("%016llx\n",
                static_cast<unsigned long long>(W->inputsDigest()));
    return 0;
  }
  if (Cfg.WorkDir.empty() || Cfg.SloMs <= 0 || Cfg.Seconds <= 0)
    return usage();
  fs::remove_all(Cfg.WorkDir);
  fs::create_directories(Cfg.WorkDir);
  obs::preregisterPipelineMetrics();

  double SetupSec = W->setup();
  W->prepare();
  const double WarmSec = std::clamp(Cfg.Seconds * 0.2, 0.2, 2.0);
  Metrics M;
  std::uint64_t Attempted = 0, Failed = 0, PathFailed = 0;
  std::string Why;
  bool Correct = true;
  std::uint64_t Beyond = 0;
  double P99OverSlo = 0;
  std::string RssScope = "none";
  std::string Host = "{}";

  if (!Cfg.Trace) {
    PhaseOutcome P = runPhase(*W, false, WarmSec, Cfg.Seconds, nullptr);
    if (!P.R.RssTimedOnly)
      RssScope = "process";
    else if (P.R.RssOpsReached)
      RssScope = "first_" + std::to_string(W->rssOps()) + "_timed_ops";
    else
      RssScope = "timed_phase";
    std::uint64_t Slo = 0;
    // Timings are in reference-host units (see hostFactor): each window's
    // figures are scaled by the calibration samples taken in it. The
    // measured figures go to the provenance block.
    std::vector<double> Lat = latencies(P.R, true);
    std::vector<double> RawLat = latencies(P.R, false);
    for (std::size_t I = 0; I < RawLat.size(); ++I)
      Slo += P.R.Samples[I].Ok && RawLat[I] * 1e3 <= Cfg.SloMs;
    // p99 is the median of the p99s of consecutive chunks of at least
    // 2000 operations, so a burst of host contention moves one chunk, not
    // the figure; every chunk keeps about 20 samples beyond its p99.
    auto ChunkedP99 = [&](const std::vector<double> &L) {
      std::size_t Chunks = std::max<std::size_t>(1, L.size() / 2000);
      std::vector<double> ChunkP99;
      Beyond = L.size();
      for (std::size_t K = 0; K < Chunks; ++K) {
        std::vector<double> Chunk(L.begin() + K * L.size() / Chunks,
                                  L.begin() + (K + 1) * L.size() / Chunks);
        std::sort(Chunk.begin(), Chunk.end());
        double Q = quantileSorted(Chunk, 0.99);
        ChunkP99.push_back(Q);
        auto Past = std::upper_bound(Chunk.begin(), Chunk.end(), Q);
        Beyond = std::min<std::uint64_t>(Beyond, Chunk.end() - Past);
      }
      return median(ChunkP99);
    };
    double RawP99 = ChunkedP99(RawLat);
    double P99 = ChunkedP99(Lat);
    P99OverSlo = RawP99 * 1e3 / Cfg.SloMs;
    std::sort(Lat.begin(), Lat.end());
    std::sort(RawLat.begin(), RawLat.end());
    Attempted = Lat.size();
    Failed = P.Failed;
    PathFailed = P.PathFailed;
    Why = P.Why;
    if (Beyond <= 10) {
      Correct = false;
      if (Why.empty())
        Why = "no more than 10 samples beyond p99";
    }
    double N = static_cast<double>(Attempted);
    char Buf[320];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\"factor_median\": %.4f, \"setup_factor_median\": %.4f, "
        "\"samples\": %zu, \"raw\": {\"throughput_rps\": %.6g, "
        "\"latency_p50_us\": %.6g, \"latency_p99_us\": %.6g, "
        "\"cpu_us_per_op\": %.6g}}",
        median(P.R.Factor), median(SetupFactors), CalibrationSamples.size(),
        medianWindowRate(P.R, false), quantileSorted(RawLat, 0.50) * 1e6,
        RawP99 * 1e6, medianWindowCpuPerOp(P.R, false) * 1e6);
    Host = Buf;
    M.set("setup_s", SetupSec, "s");
    M.set("throughput_rps", medianWindowRate(P.R, true), "1/s");
    M.set("latency_p50_us", quantileSorted(Lat, 0.50) * 1e6, "us");
    M.set("latency_p99_us", P99 * 1e6, "us");
    M.set("cpu_us_per_op", medianWindowCpuPerOp(P.R, true) * 1e6, "us");
    M.set("ok_frac", (N - static_cast<double>(Failed)) / N, "fraction");
    M.set("slo_met_frac", static_cast<double>(Slo) / N, "fraction");
    M.set("peak_rss_mb", P.R.PeakRssMb, "MB");
    M.set("ratio_err_pct", W->ratioErrPct(), "%");
  } else {
    // The untraced real path gives the counters; the decomposed path,
    // half of its ops traced, gives the spans and the tracing overhead.
    double Half = Cfg.Seconds / 2.0;
    // One sink for the client's operations, one for traced set-up probes.
    std::vector<SpanSink> Sinks = {SpanSink(1), SpanSink(2)};
    CurrentSink = &Sinks[1];
    W->tracedSetupProbe();
    CurrentSink = nullptr;
    PhaseView U;
    U.Before = counters();
    PhaseOutcome PU = runPhase(*W, false, WarmSec, Half, nullptr);
    U.After = counters();
    U.Phase = &PU.R;
    PhaseOutcome PD = runPhase(*W, true, WarmSec, Half, &Sinks[0]);
    for (PhaseOutcome *P : {&PU, &PD}) {
      Attempted += P->R.Samples.size();
      Failed += P->Failed;
      PathFailed += P->PathFailed;
      if (Why.empty())
        Why = P->Why;
    }
    SpanStats Spans = aggregateSpans(Sinks);
    W->layerMetrics(M, U, Spans);
    // Overhead: traced against untraced op latency, both from the
    // decomposed phase's interleaved ops.
    double OpDur = 0, OpSelf = 0;
    for (const auto &[Name, S] : Spans)
      if (Name.rfind("op.", 0) == 0) {
        OpDur += S.DurSec;
        OpSelf += S.SelfSec;
      }
    const double *Lat = PD.R.LatencySum, *Cnt = PD.R.Count;
    M.set("obs.trace_overhead_frac",
          ratio(ratio(Lat[1], Cnt[1]), ratio(Lat[0], Cnt[0])) - 1.0,
          "fraction");
    M.set("unattributed_frac", ratio(OpSelf, OpDur), "fraction");
    // The full per-layer set is reported on every workload; a layer the
    // workload bypasses reads 0.
    for (const auto &[Name, Unit] : PerLayerUnits)
      M.setDefault(Name, Unit);
    std::string TraceDir = Cfg.WorkDir + "/../traces/" + Cfg.Workload +
                           "-seed" + std::to_string(Cfg.Seed);
    fs::create_directories(TraceDir);
    std::string TracePath =
        TraceDir + "/trace-" + std::to_string(getpid()) + ".shard.json";
    if (!writeTraceShard(TracePath, Sinks, 50000))
      std::fprintf(stderr, "aquabench: cannot write %s\n", TracePath.c_str());
    else
      std::fprintf(stderr, "aquabench: trace written to %s\n",
                   fs::weakly_canonical(TracePath).c_str());
  }

  // Provenance: everything needed to reproduce or compare the run.
  unsigned Cores = std::thread::hardware_concurrency();
  std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"commit\": \"%s\", "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
              "\"threads\": {\"clients\": 1, \"program\": %d, \"total\": %d}, "
              "\"closed_loop\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"path_failed\": %llu, \"samples_beyond_p99\": %llu, "
              "\"slo_ms\": %g, \"p99_over_slo\": %.4f, "
              "\"peak_rss_scope\": \"%s\", \"host\": %s, \"mix\": %s, "
              "\"paths\": %s, \"first_failure\": \"%s\", "
              "\"first_path_failure\": \"%s\"}}\n",
              Cfg.Workload.c_str(), static_cast<unsigned long long>(Cfg.Seed),
              Cfg.Seconds, Cfg.Trace ? 1 : 0, jsonEscape(Cfg.Commit).c_str(),
              AQUABENCH_BUILD_TYPE, AQUABENCH_COMPILER, Cores,
              W->programThreads(), 1 + W->programThreads(),
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(PathFailed),
              static_cast<unsigned long long>(Beyond), Cfg.SloMs, P99OverSlo,
              RssScope.c_str(), Host.c_str(), W->mixReport().c_str(),
              W->pathCounts().c_str(), jsonEscape(Why).c_str(),
              jsonEscape(PathWhy).c_str());
  Correct = Correct && Failed == 0 && Attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), M.json().c_str());
  std::fflush(stdout);
  W.reset();
  fs::remove_all(Cfg.WorkDir);
  return 0;
}
