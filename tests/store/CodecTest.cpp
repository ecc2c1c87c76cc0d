//===- CodecTest.cpp - Artifact codec round-trip and robustness tests -----------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The codec contract the persistent store depends on:
//
//  * bit-faithful round-trips on real pipeline output, managed and
//    relative-mode alike: encode(decode(encode(A))) == encode(A);
//  * slot-faithful graphs: dead slots, adjacency order and parameters
//    come back exactly as they were;
//  * defensive decoding: truncation at *every* byte length, garbage
//    input, bad magic, version skew, out-of-range graph ids and adjacency
//    lists that disagree with the edge table all fail cleanly, never
//    crash; a stored rational always decodes canonical.
//
//===----------------------------------------------------------------------===//

#include "aqua/service/ArtifactCodec.h"

#include "aqua/lp/RevisedSimplex.h"

#include "aqua/assays/ExtraAssays.h"
#include "aqua/assays/PaperAssays.h"
#include "aqua/service/CompileService.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

using namespace aqua;
using namespace aqua::service;

namespace {

/// Compiles \p G through the real service and returns the cached artifact.
std::shared_ptr<const CompileArtifact> compiled(ir::AssayGraph G) {
  CompileService Service;
  CompileRequest R;
  R.Name = "codec";
  R.Graph = std::make_shared<const ir::AssayGraph>(std::move(G));
  CompileResponse Resp = Service.compileNow(R);
  EXPECT_NE(Resp.Artifact, nullptr) << Resp.Error;
  return Resp.Artifact;
}

/// The full round-trip property: decode succeeds and re-encodes to the
/// identical byte string (which subsumes field-by-field equality).
void expectRoundTrip(const CompileArtifact &A) {
  std::string E1 = encodeArtifact(A);
  auto D = decodeArtifact(E1);
  ASSERT_TRUE(D.ok()) << D.message();
  EXPECT_EQ(encodeArtifact(*D), E1) << "re-encoding must be bit-identical";
  EXPECT_EQ(D->Ok, A.Ok);
  EXPECT_EQ(D->Managed, A.Managed);
  EXPECT_EQ(D->Error, A.Error);
  EXPECT_EQ(D->Program.str(), A.Program.str());
}

/// Every slot of \p B equals the same slot of \p A, field by field.
void expectSameSlots(const ir::AssayGraph &A, const ir::AssayGraph &B) {
  ASSERT_EQ(A.numNodeSlots(), B.numNodeSlots());
  ASSERT_EQ(A.numEdgeSlots(), B.numEdgeSlots());
  for (ir::NodeId N = 0; N < A.numNodeSlots(); ++N) {
    const ir::Node &X = A.node(N), &Y = B.node(N);
    EXPECT_EQ(X.Kind, Y.Kind) << "node " << N;
    EXPECT_EQ(X.Name, Y.Name) << "node " << N;
    EXPECT_EQ(X.Dead, Y.Dead) << "node " << N;
    EXPECT_EQ(X.OutFraction, Y.OutFraction) << "node " << N;
    EXPECT_EQ(X.UnknownVolume, Y.UnknownVolume) << "node " << N;
    EXPECT_EQ(X.NoExcess, Y.NoExcess) << "node " << N;
    EXPECT_EQ(X.ExcessShare, Y.ExcessShare) << "node " << N;
    EXPECT_EQ(X.Params.Seconds, Y.Params.Seconds) << "node " << N;
    EXPECT_EQ(X.Params.TempC, Y.Params.TempC) << "node " << N;
    EXPECT_EQ(X.Params.Flavor, Y.Params.Flavor) << "node " << N;
    EXPECT_EQ(X.Params.Matrix, Y.Params.Matrix) << "node " << N;
    EXPECT_EQ(X.Params.Pusher, Y.Params.Pusher) << "node " << N;
    EXPECT_EQ(X.In, Y.In) << "node " << N;
    EXPECT_EQ(X.Out, Y.Out) << "node " << N;
  }
  for (ir::EdgeId E = 0; E < A.numEdgeSlots(); ++E) {
    const ir::Edge &X = A.edge(E), &Y = B.edge(E);
    EXPECT_EQ(X.Src, Y.Src) << "edge " << E;
    EXPECT_EQ(X.Dst, Y.Dst) << "edge " << E;
    EXPECT_EQ(X.Fraction, Y.Fraction) << "edge " << E;
    EXPECT_EQ(X.Dead, Y.Dead) << "edge " << E;
  }
}

/// A payload written field by field, independently of encodeArtifact: a
/// default artifact around a two-node graph `a -> b` whose edge endpoints,
/// dead flags, adjacency lists and rationals a test can set to anything.
struct HandPayload {
  ir::NodeId Src = 0, Dst = 1;
  std::vector<ir::EdgeId> AIn, AOut{0}, BIn{0}, BOut;
  bool ADead = false, EdgeDead = false;
  std::int64_t FracNum = 1, FracDen = 1;
  std::int64_t OutFracNum = 1, OutFracDen = 1;

  std::string build() const {
    std::string P;
    auto Le = [&](std::uint64_t V, int Bytes) {
      for (int I = 0; I < Bytes; ++I)
        P.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
    };
    auto U8 = [&](std::uint64_t V) { Le(V, 1); };
    auto U64 = [&](std::uint64_t V) { Le(V, 8); };
    auto I32 = [&](std::int64_t V) { Le(static_cast<std::uint32_t>(V), 4); };
    auto Rat = [&](std::int64_t N, std::int64_t D) {
      U64(static_cast<std::uint64_t>(N));
      U64(static_cast<std::uint64_t>(D));
    };
    auto Str = [&](const std::string &S) {
      U64(S.size());
      P += S;
    };
    auto Ids = [&](const std::vector<ir::EdgeId> &List) {
      U64(List.size());
      for (ir::EdgeId E : List)
        I32(E);
    };
    auto Node = [&](ir::NodeKind Kind, const char *Name, bool Dead,
                    const std::vector<ir::EdgeId> &In,
                    const std::vector<ir::EdgeId> &Out) {
      U8(static_cast<std::uint8_t>(Kind));
      U8(Dead);
      Str(Name);
      Rat(OutFracNum, OutFracDen);
      U8(0); // UnknownVolume
      U8(0); // NoExcess
      Rat(0, 1);
      U64(0); // Seconds: +0.0
      U64(0); // TempC
      Str("");
      Str("");
      Str("");
      Ids(In);
      Ids(Out);
    };
    Le(0x52415141u, 4); // "AQAR"
    Le(ArtifactCodecVersion, 4);
    U8(1); // Ok
    U8(1); // Managed
    Str("");
    U8(1); // Feasible
    U8(0); // Method
    U64(2);
    Node(ir::NodeKind::Input, "a", ADead, AIn, AOut);
    Node(ir::NodeKind::Output, "b", false, BIn, BOut);
    U64(1);
    I32(Src);
    I32(Dst);
    Rat(FracNum, FracDen);
    U8(EdgeDead);
    U64(0); // RVol node volumes
    U64(0); // RVol edge volumes
    U64(0); // IVol node units
    U64(0); // IVol edge units
    U64(0); // MaxRatioErrorPct
    U64(0); // MeanRatioErrorPct
    U8(0);  // Underflow
    U8(0);  // Overflow
    I32(0); // CascadesApplied
    I32(0); // ReplicationsApplied
    U64(0); // MinDispenseNl
    Str(""); // Log
    U64(0); // metered node volumes
    U64(0); // metered edge volumes
    U64(0); // instructions
    for (int I = 0; I < 6; ++I)
      I32(0); // Used* resource counts
    U64(0); // LP shape hash
    U8(0);  // no basis
    return P;
  }
};

} // namespace

TEST(ArtifactCodec, RoundTripsManagedArtifact) {
  auto A = compiled(assays::buildGlucoseAssay());
  ASSERT_TRUE(A && A->Ok && A->Managed);
  expectRoundTrip(*A);
  // Spot-check the solve payload survives beyond byte equality.
  auto D = decodeArtifact(encodeArtifact(*A));
  ASSERT_TRUE(D.ok());
  EXPECT_TRUE(D->VM.Feasible);
  EXPECT_EQ(D->VM.Rounded.NodeUnits, A->VM.Rounded.NodeUnits);
  EXPECT_EQ(D->VM.Rounded.EdgeUnits, A->VM.Rounded.EdgeUnits);
  EXPECT_EQ(D->Metered.NodeVolumeNl, A->Metered.NodeVolumeNl);
  EXPECT_EQ(D->Metered.EdgeVolumeNl, A->Metered.EdgeVolumeNl);
}

TEST(ArtifactCodec, RoundTripsTransformedGraphs) {
  // Enzyme/MIC assays exercise cascading and replication, so the encoded
  // graph is the *transformed* one with dead slots and rewritten edges.
  for (auto &A : {compiled(assays::buildEnzymeAssay(4)),
                  compiled(assays::buildMicPanel(6)),
                  compiled(assays::buildBradfordProtein())}) {
    ASSERT_TRUE(A && A->Ok);
    expectRoundTrip(*A);
  }
}

TEST(ArtifactCodec, RoundTripsUnmanagedRelativeArtifact) {
  // Glycomics has run-time-unknown volumes: relative-mode AIS, empty
  // manager result.
  auto A = compiled(assays::buildGlycomicsAssay());
  ASSERT_TRUE(A && A->Ok);
  EXPECT_FALSE(A->Managed);
  expectRoundTrip(*A);
}

TEST(ArtifactCodec, RoundTripsCachedFailureArtifact) {
  // Deterministic failures are cached and therefore persisted too.
  ir::AssayGraph G;
  ir::NodeId A = G.addInput("A");
  ir::NodeId B = G.addInput("B");
  ir::NodeId M = G.addMix("M", {{A, 1}, {B, 1999}});
  G.addUnary(ir::NodeKind::Sense, "out", M);
  CompileService Service;
  CompileRequest R;
  R.Name = "infeasible";
  R.Graph = std::make_shared<const ir::AssayGraph>(std::move(G));
  R.Manage.AllowCascading = false;
  R.Manage.AllowReplication = false;
  CompileResponse Resp = Service.compileNow(R);
  ASSERT_NE(Resp.Artifact, nullptr);
  EXPECT_FALSE(Resp.Artifact->Ok);
  EXPECT_FALSE(Resp.Artifact->Error.empty());
  expectRoundTrip(*Resp.Artifact);
}

TEST(ArtifactCodec, RoundTripsDefaultArtifact) {
  expectRoundTrip(CompileArtifact{});
}

TEST(ArtifactCodec, RejectsBadMagicAndVersionSkew) {
  std::string Good = encodeArtifact(CompileArtifact{});
  ASSERT_GE(Good.size(), 8u);

  std::string BadMagic = Good;
  BadMagic[0] ^= 0x5A;
  EXPECT_FALSE(decodeArtifact(BadMagic).ok());

  // Version is the u32 after the magic; a future version must be refused,
  // not misparsed.
  std::string Skewed = Good;
  Skewed[4] = 0x7F;
  EXPECT_FALSE(decodeArtifact(Skewed).ok());
}

TEST(ArtifactCodec, RejectsTrailingGarbage) {
  std::string Good = encodeArtifact(CompileArtifact{});
  EXPECT_FALSE(decodeArtifact(Good + "x").ok())
      << "payloads must be fully self-delimiting";
}

TEST(ArtifactCodecProperty, EveryTruncationFailsCleanly) {
  auto A = compiled(assays::buildGlucoseAssay());
  ASSERT_TRUE(A && A->Ok);
  std::string Full = encodeArtifact(*A);
  for (std::size_t Len = 0; Len < Full.size(); ++Len) {
    auto D = decodeArtifact(std::string_view(Full.data(), Len));
    EXPECT_FALSE(D.ok()) << "truncation to " << Len << " of " << Full.size()
                         << " bytes decoded";
  }
}

TEST(ArtifactCodecProperty, GarbageInputNeverCrashes) {
  std::mt19937_64 Rng(0xA9'5E'ED);
  for (int Case = 0; Case < 500; ++Case) {
    std::string Junk(Rng() % 512, '\0');
    for (char &C : Junk)
      C = static_cast<char>(Rng());
    EXPECT_FALSE(decodeArtifact(Junk).ok());
  }
  // Adversarial: valid header, garbage body.
  std::string Good = encodeArtifact(CompileArtifact{});
  for (int Case = 0; Case < 500; ++Case) {
    std::string Junk = Good.substr(0, 8);
    Junk.resize(8 + Rng() % 512);
    for (std::size_t I = 8; I < Junk.size(); ++I)
      Junk[I] = static_cast<char>(Rng());
    // Must not crash; anything that does decode must reach the codec's
    // canonical fixed point in one round (re-encoding decodes to an
    // identical re-encoding).
    auto D = decodeArtifact(Junk);
    if (D.ok()) {
      std::string E2 = encodeArtifact(*D);
      auto D2 = decodeArtifact(E2);
      ASSERT_TRUE(D2.ok());
      EXPECT_EQ(encodeArtifact(*D2), E2);
    }
  }
}

TEST(ArtifactCodecProperty, SingleBitFlipsNeverCrashOrDecodeUncanonically) {
  // The store's CRC catches disk rot before the codec ever sees it; this
  // checks the codec's own posture anyway: a flipped payload either fails
  // to decode or decodes to something inside the codec's canonical fixed
  // point (a non-canonical byte -- e.g. a bool stored as 2 -- normalizes
  // in one decode-encode round and stays put).
  auto A = compiled(assays::buildGlucoseAssay());
  ASSERT_TRUE(A && A->Ok);
  std::string Full = encodeArtifact(*A);
  std::mt19937_64 Rng(0xB17F11B5);
  for (int Case = 0; Case < 300; ++Case) {
    std::string Flipped = Full;
    std::size_t Byte = Rng() % Flipped.size();
    Flipped[Byte] ^= static_cast<char>(1u << (Rng() % 8));
    auto D = decodeArtifact(Flipped);
    if (!D.ok())
      continue;
    std::string E2 = encodeArtifact(*D);
    auto D2 = decodeArtifact(E2);
    ASSERT_TRUE(D2.ok()) << "bit flip at byte " << Byte;
    EXPECT_EQ(encodeArtifact(*D2), E2)
        << "bit flip at byte " << Byte << " decoded unfaithfully";
  }
}

TEST(ArtifactCodec, RoundTripsWarmStartBasisBlock) {
  // v2 appends the RVol warm-start block; a synthetic basis covers every
  // status value plus the optional reduced-cost / devex payloads.
  CompileArtifact A;
  A.VM.LpShapeHash = 0x123456789ABCDEF0ull;
  auto B = std::make_shared<lp::Basis>();
  B->Status = {lp::VarStatus::Basic, lp::VarStatus::AtLower,
               lp::VarStatus::AtUpper, lp::VarStatus::Free};
  B->BasicCol = {0, 2};
  B->RedCost = {0.0, 1.5, -2.25, 0.125};
  B->DevexW = {1.0, 1.0, 4.0, 0.5};
  A.VM.LpBasis = B;
  expectRoundTrip(A);

  auto D = decodeArtifact(encodeArtifact(A));
  ASSERT_TRUE(D.ok()) << D.message();
  EXPECT_EQ(D->VM.LpShapeHash, A.VM.LpShapeHash);
  ASSERT_NE(D->VM.LpBasis, nullptr);
  EXPECT_EQ(D->VM.LpBasis->Status, B->Status);
  EXPECT_EQ(D->VM.LpBasis->BasicCol, B->BasicCol);
  EXPECT_EQ(D->VM.LpBasis->RedCost, B->RedCost);
  EXPECT_EQ(D->VM.LpBasis->DevexW, B->DevexW);
}

TEST(ArtifactCodec, DecodesVersion1PayloadsWithoutBasisBlock) {
  // A v1 payload is the v2 layout minus the trailing warm-start block
  // (u64 shape hash + presence bool when no basis is attached). Old store
  // entries must keep decoding -- they just carry no donor basis.
  std::string V2 = encodeArtifact(CompileArtifact{});
  ASSERT_GT(V2.size(), 9u);
  std::string V1 = V2.substr(0, V2.size() - 9);
  V1[4] = 1; // Version u32 sits after the magic, little-endian.
  auto D = decodeArtifact(V1);
  ASSERT_TRUE(D.ok()) << D.message();
  EXPECT_EQ(D->VM.LpShapeHash, 0u);
  EXPECT_EQ(D->VM.LpBasis, nullptr);
  // Re-encoding writes the current version: the store upgrades on rewrite.
  EXPECT_EQ(encodeArtifact(*D), V2);

  // A v1 payload with the v2 trailer is overlong for its version.
  std::string Mixed = V2;
  Mixed[4] = 1;
  EXPECT_FALSE(decodeArtifact(Mixed).ok());
}

TEST(ArtifactCodec, DecodedGraphMatchesSlotForSlot) {
  // Dead node and edge slots, a rewired edge (so adjacency order is not
  // creation order) and every parameter string set.
  ir::AssayGraph G;
  ir::NodeId A = G.addInput("A");
  ir::NodeId B = G.addInput("B");
  ir::NodeId C = G.addInput("C");
  ir::NodeId M = G.addMix("M", {{A, 1}, {B, 3}}, 12.5);
  ir::NodeId S = G.addUnary(ir::NodeKind::Separate, "S", M);
  G.node(S).OutFraction = Rational(2, 5);
  G.node(S).UnknownVolume = true;
  G.node(S).NoExcess = true;
  G.node(S).Params = {30.0, 37.0, "AF", "matrix-fluid", "pusher-buffer"};
  ir::NodeId X = G.addUnary(ir::NodeKind::Excess, "X", S);
  G.node(X).ExcessShare = Rational(9, 10);
  ir::NodeId Gone = G.addUnary(ir::NodeKind::Sense, "gone", M);
  G.addUnary(ir::NodeKind::Output, "out", S);
  G.removeNode(Gone);
  G.setEdgeSource(G.node(M).In.front(), C);
  ASSERT_TRUE(G.node(Gone).Dead);

  CompileArtifact Art;
  Art.VM.Graph = G;
  auto D = decodeArtifact(encodeArtifact(Art));
  ASSERT_TRUE(D.ok()) << D.message();
  expectSameSlots(G, D->VM.Graph);
  EXPECT_TRUE(D->VM.Graph.node(Gone).Dead);
  EXPECT_LT(D->VM.Graph.numEdges(), D->VM.Graph.numEdgeSlots());
  EXPECT_EQ(D->VM.Graph.node(S).Params.Pusher, "pusher-buffer");

  // The transformed graphs real compiles leave behind.
  for (auto &Compiled : {compiled(assays::buildEnzymeAssay(4)),
                         compiled(assays::buildMicPanel(6))}) {
    ASSERT_TRUE(Compiled && Compiled->Ok);
    auto RT = decodeArtifact(encodeArtifact(*Compiled));
    ASSERT_TRUE(RT.ok()) << RT.message();
    expectSameSlots(Compiled->VM.Graph, RT->VM.Graph);
  }
}

TEST(ArtifactCodec, HandBuiltPayloadDecodes) {
  // The hand-written layout the rejection tests below corrupt.
  std::string P = HandPayload{}.build();
  auto D = decodeArtifact(P);
  ASSERT_TRUE(D.ok()) << D.message();
  EXPECT_EQ(encodeArtifact(*D), P);
  const ir::AssayGraph &G = D->VM.Graph;
  ASSERT_EQ(G.numNodeSlots(), 2);
  ASSERT_EQ(G.numEdgeSlots(), 1);
  EXPECT_EQ(G.edge(0).Src, 0);
  EXPECT_EQ(G.edge(0).Dst, 1);
  EXPECT_EQ(G.node(0).Out, std::vector<ir::EdgeId>{0});
  EXPECT_EQ(G.node(1).In, std::vector<ir::EdgeId>{0});
}

TEST(ArtifactCodec, RejectsIdsOnePastTheEnd) {
  // Two node slots and one edge slot: node id 2 and edge id 1 are one past
  // the end, -1 is one before the start.
  for (ir::NodeId Bad : {2, -1}) {
    HandPayload Src, Dst;
    Src.Src = Bad;
    Dst.Dst = Bad;
    EXPECT_FALSE(decodeArtifact(Src.build()).ok()) << "edge source " << Bad;
    EXPECT_FALSE(decodeArtifact(Dst.build()).ok()) << "edge target " << Bad;
  }
  for (ir::EdgeId Bad : {1, -1}) {
    HandPayload Out, In;
    Out.AOut = {Bad};
    In.BIn = {Bad};
    EXPECT_FALSE(decodeArtifact(Out.build()).ok()) << "out-edge id " << Bad;
    EXPECT_FALSE(decodeArtifact(In.build()).ok()) << "in-edge id " << Bad;
  }
}

TEST(ArtifactCodec, RejectsListsThatDisagreeWithTheEdgeTable) {
  // Each case breaks one rule of the adjacency invariant the graph's edge
  // views rely on; every id stays in range.
  HandPayload DeadEdgeListed;
  DeadEdgeListed.EdgeDead = true;
  EXPECT_FALSE(decodeArtifact(DeadEdgeListed.build()).ok())
      << "lists name a dead edge";

  HandPayload InWrongEnd, OutWrongEnd;
  InWrongEnd.AIn = {0}; // Edge 0 ends at b, not a.
  OutWrongEnd.BOut = {0}; // Edge 0 starts at a, not b.
  EXPECT_FALSE(decodeArtifact(InWrongEnd.build()).ok())
      << "an in-list names an edge ending elsewhere";
  EXPECT_FALSE(decodeArtifact(OutWrongEnd.build()).ok())
      << "an out-list names an edge starting elsewhere";

  HandPayload Missing;
  Missing.BIn = {};
  EXPECT_FALSE(decodeArtifact(Missing.build()).ok())
      << "a live edge is missing from its target's in-list";

  HandPayload DeadNode;
  DeadNode.ADead = true; // Still lists its out-edge.
  EXPECT_FALSE(decodeArtifact(DeadNode.build()).ok())
      << "a dead node lists an edge";

  HandPayload Twice;
  Twice.BIn = {0, 0};
  EXPECT_FALSE(decodeArtifact(Twice.build()).ok())
      << "an in-list names an edge twice";
}

TEST(ArtifactCodec, StoredRationalsDecodeReduced) {
  struct Case {
    std::int64_t Num, Den, WantNum, WantDen;
  };
  for (Case C : {Case{2, 4, 1, 2}, Case{6, 3, 2, 1}, Case{0, 7, 0, 1},
                 Case{-9, 12, -3, 4}, Case{5, 1, 5, 1},
                 Case{INT64_MAX - 1, INT64_MAX - 1, 1, 1}}) {
    HandPayload P;
    P.FracNum = C.Num;
    P.FracDen = C.Den;
    P.OutFracNum = C.Num;
    P.OutFracDen = C.Den;
    auto D = decodeArtifact(P.build());
    ASSERT_TRUE(D.ok()) << C.Num << "/" << C.Den << ": " << D.message();
    for (const Rational &R :
         {D->VM.Graph.edge(0).Fraction, D->VM.Graph.node(0).OutFraction}) {
      EXPECT_EQ(R.numerator(), C.WantNum) << C.Num << "/" << C.Den;
      EXPECT_EQ(R.denominator(), C.WantDen) << C.Num << "/" << C.Den;
      EXPECT_EQ(std::gcd(R.numerator(), R.denominator()), 1)
          << C.Num << "/" << C.Den;
    }
  }
  // Rational's invariant is Den > 0: a zero or negative stored
  // denominator is corruption, not a value to normalize.
  for (std::int64_t Den : {0, -4}) {
    HandPayload P;
    P.FracNum = 2;
    P.FracDen = Den;
    EXPECT_FALSE(decodeArtifact(P.build()).ok()) << "denominator " << Den;
  }
}
