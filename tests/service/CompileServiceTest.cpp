//===- CompileServiceTest.cpp - Concurrent compile-service tests -----------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/service/CompileService.h"

#include "aqua/assays/ExtraAssays.h"
#include "aqua/assays/PaperAssays.h"
#include "aqua/codegen/AISParser.h"
#include "aqua/obs/FlightRecorder.h"
#include "aqua/obs/Metrics.h"
#include "aqua/service/ArtifactCodec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

using namespace aqua;
using namespace aqua::service;

namespace {

CompileRequest sourceRequest(const char *Name, const char *Source) {
  CompileRequest R;
  R.Name = Name;
  R.Source = Source;
  return R;
}

CompileRequest graphRequest(const char *Name, ir::AssayGraph G) {
  CompileRequest R;
  R.Name = Name;
  R.Graph = std::make_shared<const ir::AssayGraph>(std::move(G));
  return R;
}

} // namespace

TEST(CompileService, CompilesSourceEndToEnd) {
  CompileService Service;
  CompileResponse R = Service.compileNow(
      sourceRequest("glucose", assays::glucoseSource()));
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_NE(R.Artifact, nullptr);
  EXPECT_TRUE(R.Artifact->Managed);
  EXPECT_TRUE(R.Artifact->VM.Feasible);
  EXPECT_FALSE(R.Artifact->Program.Instrs.empty());
  EXPECT_NE(R.Key, ir::Fingerprint{}) << "key must be set on success";
  // The generated program round-trips through the AIS parser.
  EXPECT_TRUE(codegen::parseAIS(R.Artifact->Program.str()).ok());
}

TEST(CompileService, ParseErrorsAreReportedNotCached) {
  CompileService Service;
  CompileResponse R =
      Service.compileNow(sourceRequest("broken", "ASSAY ( nonsense"));
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_EQ(R.Artifact, nullptr);
  EXPECT_EQ(Service.stats().Cache.Insertions, 0u);
}

TEST(CompileService, RepeatSubmissionsHitTheCache) {
  ServiceOptions Options;
  Options.Threads = 2;
  CompileService Service(Options);
  std::vector<CompileRequest> Batch;
  for (int I = 0; I < 6; ++I)
    Batch.push_back(graphRequest("glucose", assays::buildGlucoseAssay()));
  std::vector<CompileResponse> Responses =
      Service.compileBatch(std::move(Batch));
  ASSERT_EQ(Responses.size(), 6u);
  for (const CompileResponse &R : Responses)
    EXPECT_TRUE(R.Ok) << R.Error;
  ServiceStats S = Service.stats();
  // Identical structure solves exactly once; everyone else is a hit or a
  // single-flight join.
  EXPECT_EQ(S.Cache.Insertions, 1u);
  EXPECT_EQ(S.CacheHits + S.SingleFlightJoins, 5u);
  EXPECT_EQ(S.Submitted, 6u);
  EXPECT_EQ(S.Completed, 6u);
  EXPECT_EQ(S.Failed, 0u);
}

TEST(CompileService, SingleFlightDedupUnderEightThreads) {
  ServiceOptions Options;
  Options.Threads = 8;
  CompileService Service(Options);
  // Eight threads submit the same (non-trivial) assay concurrently.
  auto Graph = std::make_shared<const ir::AssayGraph>(
      assays::buildEnzymeAssay(4));
  std::vector<std::thread> Threads;
  std::vector<CompileResponse> Responses(8);
  for (int I = 0; I < 8; ++I)
    Threads.emplace_back([&, I] {
      CompileRequest R;
      R.Name = "enzyme";
      R.Graph = Graph;
      Responses[I] = Service.submit(std::move(R)).get();
    });
  for (std::thread &T : Threads)
    T.join();

  for (const CompileResponse &R : Responses) {
    EXPECT_TRUE(R.Ok) << R.Error;
    ASSERT_NE(R.Artifact, nullptr);
    EXPECT_TRUE(R.Artifact->VM.Feasible);
  }
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Cache.Insertions, 1u) << "single-flight must solve once";
  EXPECT_EQ(S.CacheHits + S.SingleFlightJoins, 7u);
  EXPECT_EQ(S.Completed, 8u);
}

TEST(CompileService, CacheOffRunsEveryRequest) {
  ServiceOptions Options;
  Options.Threads = 2;
  Options.EnableCache = false;
  CompileService Service(Options);
  std::vector<CompileRequest> Batch;
  for (int I = 0; I < 4; ++I)
    Batch.push_back(graphRequest("glucose", assays::buildGlucoseAssay()));
  std::vector<CompileResponse> Responses =
      Service.compileBatch(std::move(Batch));
  for (const CompileResponse &R : Responses) {
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_FALSE(R.CacheHit);
    EXPECT_FALSE(R.Deduplicated);
  }
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.CacheHits, 0u);
  EXPECT_EQ(S.Cache.Insertions, 0u);
}

TEST(CompileService, DistinctConfigurationsDoNotShareArtifacts) {
  CompileService Service;
  CompileRequest Coarse = graphRequest("glucose", assays::buildGlucoseAssay());
  CompileRequest Fine = graphRequest("glucose", assays::buildGlucoseAssay());
  Fine.Spec.LeastCountNl = 0.05;
  CompileResponse R1 = Service.compileNow(Coarse);
  CompileResponse R2 = Service.compileNow(Fine);
  ASSERT_TRUE(R1.Ok && R2.Ok);
  EXPECT_NE(R1.Key, R2.Key);
  EXPECT_FALSE(R2.CacheHit);
  EXPECT_EQ(Service.stats().Cache.Insertions, 2u);
}

TEST(CompileService, InfeasibleCompilesAreCachedFailures) {
  // 1:1999 with one use and no transforms allowed is statically
  // infeasible; the deterministic failure is memoized like a success.
  ir::AssayGraph G;
  ir::NodeId A = G.addInput("A");
  ir::NodeId B = G.addInput("B");
  ir::NodeId M = G.addMix("M", {{A, 1}, {B, 1999}});
  G.addUnary(ir::NodeKind::Sense, "out", M);
  CompileRequest R = graphRequest("skewed", std::move(G));
  R.Manage.AllowCascading = false;
  R.Manage.AllowReplication = false;

  CompileService Service;
  CompileResponse First = Service.compileNow(R);
  EXPECT_FALSE(First.Ok);
  EXPECT_NE(First.Error.find("no feasible volume assignment"),
            std::string::npos);
  CompileResponse Second = Service.compileNow(R);
  EXPECT_FALSE(Second.Ok);
  EXPECT_TRUE(Second.CacheHit) << "failures must be memoized too";
  EXPECT_EQ(Service.stats().Cache.Insertions, 1u);
}

TEST(CompileService, CacheCountersMatchSolveCacheStats) {
  // The service.cache.* counters in the global metrics registry are
  // instrumented at the service's hit paths and the cache's insertion
  // path; they must agree exactly with the SolveCache's own accounting.
  // (service.cache.misses intentionally counts genuine first solves, not
  // cache-level lookup misses -- the single-flight re-check probes the
  // cache a second time, so the two miss notions differ by design.)
  obs::MetricsRegistry &Reg = obs::metrics();
  std::uint64_t HitsBefore = Reg.counter("service.cache.hits").value();
  std::uint64_t InsertionsBefore =
      Reg.counter("service.cache.insertions").value();

  CompileService Service;
  // Two distinct assays, each compiled twice sequentially: deterministic
  // two insertions, two hits, no single-flight ambiguity.
  CompileRequest Glucose =
      graphRequest("glucose", assays::buildGlucoseAssay());
  CompileRequest Bradford =
      graphRequest("bradford", assays::buildBradfordProtein());
  for (int Pass = 0; Pass < 2; ++Pass) {
    ASSERT_TRUE(Service.compileNow(Glucose).Ok);
    ASSERT_TRUE(Service.compileNow(Bradford).Ok);
  }

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Cache.Hits, 2u);
  EXPECT_EQ(S.Cache.Insertions, 2u);
  EXPECT_EQ(Reg.counter("service.cache.hits").value() - HitsBefore,
            S.Cache.Hits);
  EXPECT_EQ(Reg.counter("service.cache.insertions").value() -
                InsertionsBefore,
            S.Cache.Insertions);
}

TEST(CompileService, UnknownVolumeAssaysCompileRelative) {
  CompileService Service;
  CompileResponse R = Service.compileNow(
      graphRequest("glycomics", assays::buildGlycomicsAssay()));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.Artifact->Managed);
  EXPECT_FALSE(R.Artifact->Program.Instrs.empty());
}

TEST(CompileService, InvalidMachineSpecFailsTheRequest) {
  CompileService Service;
  for (double Bad : {std::nan(""), HUGE_VAL, 0.0, -1.0}) {
    CompileRequest Cap = sourceRequest("glucose", assays::glucoseSource());
    Cap.Spec.MaxCapacityNl = Bad;
    CompileResponse R = Service.compileNow(Cap);
    EXPECT_FALSE(R.Ok) << "capacity " << Bad;
    EXPECT_NE(R.Error.find("MaxCapacityNl"), std::string::npos) << R.Error;

    CompileRequest Lc = graphRequest("glycomics", assays::buildGlycomicsAssay());
    Lc.Spec.LeastCountNl = Bad;
    R = Service.compileNow(Lc);
    EXPECT_FALSE(R.Ok) << "least count " << Bad;
    EXPECT_NE(R.Error.find("LeastCountNl"), std::string::npos) << R.Error;
  }
}

TEST(CompileService, MixedBatchKeepsRequestOrder) {
  ServiceOptions Options;
  Options.Threads = 4;
  CompileService Service(Options);
  std::vector<CompileRequest> Batch;
  Batch.push_back(graphRequest("glucose", assays::buildGlucoseAssay()));
  Batch.push_back(graphRequest("mic", assays::buildMicPanel(6)));
  Batch.push_back(sourceRequest("bad", "not an assay"));
  Batch.push_back(graphRequest("glucose", assays::buildGlucoseAssay()));
  std::vector<CompileResponse> Responses =
      Service.compileBatch(std::move(Batch));
  ASSERT_EQ(Responses.size(), 4u);
  EXPECT_EQ(Responses[0].Name, "glucose");
  EXPECT_TRUE(Responses[0].Ok);
  EXPECT_EQ(Responses[1].Name, "mic");
  EXPECT_TRUE(Responses[1].Ok);
  EXPECT_EQ(Responses[2].Name, "bad");
  EXPECT_FALSE(Responses[2].Ok);
  EXPECT_TRUE(Responses[3].Ok);
  EXPECT_EQ(Service.stats().Failed, 1u);
  for (const CompileResponse &R : Responses)
    EXPECT_GE(R.LatencySec, 0.0);
}

namespace {

/// LP-bound structure: the 1:24 skewed mix next to parallel 1:1 uses of
/// the same input starves DAGSolve's equal-output split, so the manager
/// falls through to the Figure 3 LP and the artifact carries a
/// warm-start basis.
std::shared_ptr<const ir::AssayGraph> lpBoundGraph() {
  ir::AssayGraph G;
  ir::NodeId A = G.addInput("A");
  ir::NodeId B = G.addInput("B");
  ir::NodeId MixP = G.addMix("mixP", {{A, 1}, {B, 24}});
  G.addUnary(ir::NodeKind::Sense, "P", MixP);
  for (int I = 0; I < 96; ++I) {
    ir::NodeId MixQ = G.addMix("mixQ" + std::to_string(I), {{A, 1}, {B, 1}});
    G.addUnary(ir::NodeKind::Sense, "Q" + std::to_string(I), MixQ);
  }
  return std::make_shared<const ir::AssayGraph>(std::move(G));
}

/// One step of a capacity sweep over the shared LP-bound structure:
/// distinct fingerprints (capacity differs), identical structure key.
CompileRequest capacityRequest(std::shared_ptr<const ir::AssayGraph> G,
                               double CapacityNl, const char *Name) {
  CompileRequest R;
  R.Name = Name;
  R.Graph = std::move(G);
  R.Spec.MaxCapacityNl = CapacityNl;
  R.Manage.AllowCascading = false;
  R.Manage.AllowReplication = false;
  return R;
}

} // namespace

TEST(CompileService, WarmMissReusesDonorBasisAcrossCapacitySweep) {
  CompileService Service;
  auto G = lpBoundGraph();

  CompileResponse R1 = Service.compileNow(capacityRequest(G, 100.0, "cap100"));
  ASSERT_TRUE(R1.Ok) << R1.Error;
  ASSERT_EQ(R1.Artifact->VM.Method, core::SolveMethod::LP)
      << "fixture must exercise the LP path for warm-miss to apply";
  ASSERT_NE(R1.Artifact->VM.LpBasis, nullptr);
  EXPECT_FALSE(R1.Artifact->VM.LpWarmStarted);

  CompileResponse R2 = Service.compileNow(capacityRequest(G, 90.0, "cap90"));
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_FALSE(R2.CacheHit) << "capacity change must be a genuine miss";
  EXPECT_TRUE(R2.Artifact->VM.LpWarmStarted);
  EXPECT_EQ(R2.Artifact->VM.LpShapeHash, R1.Artifact->VM.LpShapeHash)
      << "same structure must hash to the same donor shape";
  EXPECT_EQ(Service.stats().WarmMissHits, 1u);

  // The warm repair must be invisible in the artifact: a cold service
  // compiling the same swept request produces the identical program and
  // rounded assignment.
  ServiceOptions Off;
  Off.WarmMiss = false;
  CompileService Cold(Off);
  CompileResponse C2 = Cold.compileNow(capacityRequest(G, 90.0, "cap90"));
  ASSERT_TRUE(C2.Ok) << C2.Error;
  EXPECT_FALSE(C2.Artifact->VM.LpWarmStarted);
  EXPECT_EQ(Cold.stats().WarmMissHits, 0u);
  EXPECT_EQ(R2.Artifact->Program.str(), C2.Artifact->Program.str());
  EXPECT_EQ(R2.Artifact->VM.Rounded.NodeUnits, C2.Artifact->VM.Rounded.NodeUnits);
  EXPECT_EQ(R2.Artifact->VM.Rounded.EdgeUnits, C2.Artifact->VM.Rounded.EdgeUnits);
}

TEST(CompileService, BatchedDrainDeliversEveryResponseInOrder) {
  // The batched response drain: one handle for the whole batch, slots
  // written by workers, one wakeup at the end. Order, shed handling, and
  // per-request outcomes must match the future-based path exactly.
  ServiceOptions Options;
  Options.Threads = 4;
  CompileService Service(Options);
  std::vector<CompileRequest> Batch;
  Batch.push_back(graphRequest("glucose", assays::buildGlucoseAssay()));
  Batch.push_back(sourceRequest("bad", "not an assay"));
  Batch.push_back(graphRequest("mic", assays::buildMicPanel(6)));
  ResponseBatch Drain = Service.submitBatchDrained(std::move(Batch));
  EXPECT_EQ(Drain.size(), 3u);
  std::vector<CompileResponse> Responses = Drain.take();
  ASSERT_EQ(Responses.size(), 3u);
  EXPECT_EQ(Responses[0].Name, "glucose");
  EXPECT_TRUE(Responses[0].Ok) << Responses[0].Error;
  EXPECT_EQ(Responses[1].Name, "bad");
  EXPECT_FALSE(Responses[1].Ok);
  EXPECT_EQ(Responses[2].Name, "mic");
  EXPECT_TRUE(Responses[2].Ok) << Responses[2].Error;
  // A second take() on the same handle is empty, not a hang.
  EXPECT_TRUE(Drain.take().empty());
  // An empty batch drains immediately.
  EXPECT_TRUE(Service.submitBatchDrained({}).take().empty());
}

TEST(CompileService, BatchedDrainAppliesAdmissionPerRequest) {
  ServiceOptions Options;
  Options.Threads = 1;
  Options.MaxQueueDepth = 1;
  Options.StartPaused = true;
  CompileService Service(Options);
  std::vector<CompileRequest> Batch;
  for (int I = 0; I < 3; ++I)
    Batch.push_back(graphRequest("glucose", assays::buildGlucoseAssay()));
  ResponseBatch Drain = Service.submitBatchDrained(std::move(Batch));
  Service.resume();
  std::vector<CompileResponse> Responses = Drain.take();
  ASSERT_EQ(Responses.size(), 3u);
  EXPECT_TRUE(Responses[0].Ok) << Responses[0].Error;
  // The queue had room for one; the rest shed at submit, and their shed
  // responses arrive through the same drain.
  EXPECT_EQ(Responses[1].Shed, ShedReason::QueueFull);
  EXPECT_EQ(Responses[2].Shed, ShedReason::QueueFull);
  EXPECT_EQ(Service.stats().ShedQueueFull, 2u);
}

TEST(CompileService, SharedGraphSubmissionsReuseTheCanonicalMemo) {
  // Repeat submissions of one shared DAG skip WL canonicalization via the
  // graph-identity memo -- the dominant cost of the cache-hit path.
  ServiceOptions Options;
  Options.Threads = 2;
  CompileService Service(Options);
  auto Shared =
      std::make_shared<const ir::AssayGraph>(assays::buildGlucoseAssay());
  std::vector<CompileRequest> Batch;
  for (int I = 0; I < 8; ++I) {
    CompileRequest R;
    R.Name = "repeat";
    R.Graph = Shared;
    Batch.push_back(std::move(R));
  }
  std::vector<CompileResponse> Responses =
      Service.compileBatch(std::move(Batch));
  for (const CompileResponse &R : Responses) {
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Key, Responses[0].Key) << "memoized form must yield the "
                                          "same fingerprint";
  }
  ServiceStats S = Service.stats();
  EXPECT_GE(S.CanonMemoHits, 7u)
      << "all but the first submission reuse the memoized canonical form";
  // A *different* graph object with identical structure still computes
  // its own canonical form (identity memo, not structural), and maps to
  // the same fingerprint.
  CompileResponse Fresh = Service.compileNow(
      graphRequest("fresh", assays::buildGlucoseAssay()));
  EXPECT_TRUE(Fresh.Ok) << Fresh.Error;
  EXPECT_EQ(Fresh.Key, Responses[0].Key);
  EXPECT_TRUE(Fresh.CacheHit);
}

namespace {

/// The front-end path of the most recent digest in the global recorder.
obs::FrontEndPath lastFrontEnd() {
  std::vector<obs::RequestDigest> D = obs::FlightRecorder::global().snapshot();
  return D.empty() ? obs::FrontEndPath::None : D.back().FrontEnd;
}

CompileRequest glucoseAtCapacity(double CapacityNl) {
  CompileRequest R = sourceRequest("glucose", assays::glucoseSource());
  R.Spec.MaxCapacityNl = CapacityNl;
  return R;
}

} // namespace

TEST(CompileService, RepeatedSourceSkipsTheFrontEndUnderEverySpec) {
  // One source under N specs: every request after the first reuses the
  // memoized lowering and canonical form, and the answers are exactly
  // what a service that never saw the source before computes.
  const double Caps[] = {100, 125, 150, 200, 250, 300};
  const std::size_t N = std::size(Caps);
  CompileService Service;
  for (std::size_t I = 0; I < N; ++I) {
    CompileResponse R = Service.compileNow(glucoseAtCapacity(Caps[I]));
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_FALSE(R.CacheHit) << "distinct specs are distinct cache keys";
    EXPECT_EQ(lastFrontEnd(), I == 0 ? obs::FrontEndPath::Lowered
                                     : obs::FrontEndPath::Memo);
    CompileService Fresh;
    CompileResponse F = Fresh.compileNow(glucoseAtCapacity(Caps[I]));
    ASSERT_TRUE(F.Ok) << F.Error;
    EXPECT_EQ(Fresh.stats().CanonMemoHits, 0u);
    EXPECT_EQ(R.Key, F.Key);
    EXPECT_EQ(encodeArtifact(*R.Artifact), encodeArtifact(*F.Artifact));
  }
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.CanonMemoHits, N - 1);
  EXPECT_EQ(S.FrontEndMemoEntries, 1u);
}

TEST(CompileService, ReformattedSourceMissesTheMemoButHitsTheCache) {
  // The memo keys on bytes, the cache on structure: whitespace or a
  // comment is a new memo key that lowers to the same fingerprint.
  CompileService Service;
  std::string Source = assays::glucoseSource();
  CompileResponse First = Service.compileNow(
      sourceRequest("glucose", Source.c_str()));
  ASSERT_TRUE(First.Ok) << First.Error;
  std::string Spaced = "\n  " + Source + "\n\n";
  std::string Commented = "-- plate 7\n" + Source;
  for (const std::string &Variant : {Spaced, Commented}) {
    CompileResponse R =
        Service.compileNow(sourceRequest("variant", Variant.c_str()));
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.CacheHit);
    EXPECT_EQ(R.Key, First.Key);
    EXPECT_EQ(lastFrontEnd(), obs::FrontEndPath::Lowered);
  }
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.CanonMemoHits, 0u);
  EXPECT_EQ(S.FrontEndMemoEntries, 3u);
}

TEST(CompileService, SourcesThatFailToParseAreNotMemoized) {
  CompileService Service;
  std::string FirstError;
  for (int I = 0; I < 3; ++I) {
    CompileResponse R =
        Service.compileNow(sourceRequest("broken", "ASSAY ( nonsense"));
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Artifact, nullptr);
    ASSERT_FALSE(R.Error.empty());
    if (I == 0)
      FirstError = R.Error;
    EXPECT_EQ(R.Error, FirstError);
    EXPECT_EQ(lastFrontEnd(), obs::FrontEndPath::Lowered);
  }
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.CanonMemoHits, 0u);
  EXPECT_EQ(S.FrontEndMemoEntries, 0u);
  EXPECT_EQ(S.Failed, 3u);
}

TEST(CompileService, ConcurrentFirstSubmissionsOfOneSourceLowerOnce) {
  // A batch of one never-seen source across four workers: one lowering,
  // every other request waits on it instead of lowering again.
  const std::size_t N = 16;
  ServiceOptions Options;
  Options.Threads = 4;
  CompileService Service(Options);
  std::vector<CompileRequest> Batch;
  for (std::size_t I = 0; I < N; ++I)
    Batch.push_back(
        glucoseAtCapacity(100.0 + 25.0 * static_cast<double>(I % 4)));
  std::vector<CompileResponse> Responses =
      Service.compileBatch(std::move(Batch));
  for (const CompileResponse &R : Responses)
    EXPECT_TRUE(R.Ok) << R.Error;
  ServiceStats S = Service.stats();
  EXPECT_GE(S.CanonMemoHits, N - 1);
  EXPECT_EQ(S.FrontEndMemoEntries, 1u);
}

TEST(CompileService, FrontEndMemoStaysWithinCapacity) {
  // Twice the capacity of distinct sources (a numbered comment makes each
  // one new bytes over the same assay). The memo keeps at most its
  // capacity; the first source, long evicted, still compiles to the same
  // artifact.
  const std::size_t Distinct = 2 * CompileService::FrontEndMemoCapacity;
  CompileService Service;
  std::string First;
  for (std::size_t I = 0; I < Distinct; ++I) {
    std::string Source =
        "-- variant " + std::to_string(I) + "\n" + assays::glucoseSource();
    CompileResponse R =
        Service.compileNow(sourceRequest("variant", Source.c_str()));
    ASSERT_TRUE(R.Ok) << R.Error;
    if (I == 0)
      First = encodeArtifact(*R.Artifact);
  }
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.CanonMemoHits, 0u);
  EXPECT_LE(S.FrontEndMemoEntries, CompileService::FrontEndMemoCapacity);
  std::string Source = "-- variant 0\n" + std::string(assays::glucoseSource());
  CompileResponse Again =
      Service.compileNow(sourceRequest("variant", Source.c_str()));
  ASSERT_TRUE(Again.Ok) << Again.Error;
  EXPECT_EQ(Service.stats().CanonMemoHits, 0u)
      << "the oldest source must have been evicted";
  EXPECT_EQ(lastFrontEnd(), obs::FrontEndPath::Lowered);
  EXPECT_EQ(encodeArtifact(*Again.Artifact), First);
}

TEST(CompileService, CacheOffBypassesTheFrontEndMemo) {
  // Cache off is the full-pipeline baseline: no request, source or
  // shared graph, may skip the front end.
  ServiceOptions Options;
  Options.Threads = 2;
  Options.EnableCache = false;
  CompileService Service(Options);
  auto Shared =
      std::make_shared<const ir::AssayGraph>(assays::buildGlucoseAssay());
  std::vector<CompileRequest> Batch;
  for (int I = 0; I < 4; ++I) {
    Batch.push_back(sourceRequest("glucose", assays::glucoseSource()));
    CompileRequest G;
    G.Name = "shared";
    G.Graph = Shared;
    Batch.push_back(std::move(G));
  }
  for (const CompileResponse &R : Service.compileBatch(std::move(Batch)))
    EXPECT_TRUE(R.Ok) << R.Error;
  CompileResponse Last = Service.compileNow(graphRequest(
      "fresh", assays::buildGlucoseAssay()));
  EXPECT_TRUE(Last.Ok) << Last.Error;
  EXPECT_EQ(lastFrontEnd(), obs::FrontEndPath::Graph);
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.CanonMemoHits, 0u);
  EXPECT_EQ(S.FrontEndMemoEntries, 0u);
}
