//===- Cascading.cpp - Extreme-ratio cascading --------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/core/Cascading.h"

#include "aqua/support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;

std::vector<std::int64_t> aqua::core::cascadeBoundaries(std::int64_t Small,
                                                        std::int64_t Large,
                                                        int Stages) {
  assert(Small >= 1 && Large > Small && Stages >= 1 && "bad cascade request");
  std::int64_t Total = Small + Large;
  std::vector<std::int64_t> Bounds;
  Bounds.push_back(Small);
  // Near-geometric boundaries: a_i = Small * (Total/Small)^(i/k), rounded
  // and kept strictly increasing. A perfect k-th power yields equal stages.
  double Factor = static_cast<double>(Total) / static_cast<double>(Small);
  for (int I = 1; I < Stages; ++I) {
    double Ideal = static_cast<double>(Small) *
                   std::pow(Factor, static_cast<double>(I) / Stages);
    std::int64_t A = static_cast<std::int64_t>(std::llround(Ideal));
    A = std::clamp<std::int64_t>(A, Bounds.back() + 1,
                                 Total - (Stages - I));
    Bounds.push_back(A);
  }
  Bounds.push_back(Total);
  return Bounds;
}

int aqua::core::chooseCascadeStages(std::int64_t Small, std::int64_t Large,
                                    std::int64_t MaxStageSkew, int MaxStages) {
  assert(MaxStageSkew >= 2 && "stage skew bound too tight");
  double Factor = static_cast<double>(Small + Large) /
                  static_cast<double>(Small);
  for (int K = 1; K <= MaxStages; ++K) {
    double StageFactor = std::pow(Factor, 1.0 / K);
    if (StageFactor - 1.0 <= static_cast<double>(MaxStageSkew))
      return K;
  }
  return MaxStages;
}

Rational aqua::core::mixSkew(const AssayGraph &G, NodeId M) {
  const std::vector<EdgeId> &In = G.inEdges(M);
  if (In.size() < 2)
    return Rational(1);
  Rational Min = G.edge(In[0]).Fraction;
  Rational Max = Min;
  for (EdgeId E : In) {
    Min = min(Min, G.edge(E).Fraction);
    Max = max(Max, G.edge(E).Fraction);
  }
  return Max / Min;
}

Expected<std::vector<NodeId>> aqua::core::binarizeMix(AssayGraph &G,
                                                      NodeId M) {
  using RetTy = Expected<std::vector<NodeId>>;
  // By value: addNode below may grow the node table and invalidate
  // references into it.
  const Node MN = G.node(M);
  if (MN.Kind != NodeKind::Mix)
    return RetTy::error(format("node '%s' is not a mix", MN.Name.c_str()));
  // A copy: removeEdge below rewrites M's list.
  std::vector<EdgeId> In = G.inEdges(M);
  if (In.size() <= 2)
    return RetTy::error(
        format("mix '%s' is already binary", MN.Name.c_str()));

  struct Part {
    NodeId Source;
    Rational Share; // Of the final mixture.
  };
  std::vector<Part> Parts;
  for (EdgeId E : In)
    Parts.push_back(Part{G.edge(E).Src, G.edge(E).Fraction});
  for (EdgeId E : In)
    G.removeEdge(E);

  double Seconds = MN.Params.Seconds;
  std::vector<NodeId> Created;
  int Counter = 0;
  // Huffman-style: repeatedly merge the two smallest shares, so the most
  // extreme contribution ends up isolated in one binary mix.
  while (Parts.size() > 2) {
    std::sort(Parts.begin(), Parts.end(), [](const Part &A, const Part &B) {
      return A.Share < B.Share;
    });
    Part A = Parts[0], B = Parts[1];
    Parts.erase(Parts.begin(), Parts.begin() + 2);
    Rational Sum = A.Share + B.Share;
    NodeId C = G.addNode(NodeKind::Mix,
                         format("%s.bin%d", MN.Name.c_str(), ++Counter));
    G.node(C).Params.Seconds = Seconds;
    G.addEdge(A.Source, C, A.Share / Sum);
    G.addEdge(B.Source, C, B.Share / Sum);
    Created.push_back(C);
    Parts.push_back(Part{C, Sum});
  }
  G.addEdge(Parts[0].Source, M, Parts[0].Share);
  G.addEdge(Parts[1].Source, M, Parts[1].Share);
  return Created;
}

Expected<CascadeInfo> aqua::core::cascadeMix(AssayGraph &G, NodeId M,
                                             int Stages) {
  if (Stages < 2)
    return Expected<CascadeInfo>::error("cascade needs at least two stages");
  // By value: addNode below may grow the node table and invalidate
  // references into it.
  const Node MN = G.node(M);
  if (MN.Kind != NodeKind::Mix)
    return Expected<CascadeInfo>::error(
        format("node '%s' is not a mix", MN.Name.c_str()));
  // A copy: the rewiring below rewrites M's list.
  std::vector<EdgeId> In = G.inEdges(M);
  if (In.size() != 2)
    return Expected<CascadeInfo>::error(
        format("cascading requires a two-input mix; '%s' has %zu inputs",
               MN.Name.c_str(), In.size()));

  EdgeId SmallE = In[0], LargeE = In[1];
  if (G.edge(SmallE).Fraction > G.edge(LargeE).Fraction)
    std::swap(SmallE, LargeE);
  NodeId S = G.edge(SmallE).Src;
  NodeId L = G.edge(LargeE).Src;
  if (G.node(S).NoExcess || G.node(L).NoExcess || MN.NoExcess)
    return Expected<CascadeInfo>::error(
        format("fluid in mix '%s' is marked no-excess; cascading disallowed",
               MN.Name.c_str()));

  // Reduced integer parts p : (T - p) from the exact small fraction p/T.
  Rational FSmall = G.edge(SmallE).Fraction;
  std::int64_t P = FSmall.numerator();
  std::int64_t T = FSmall.denominator();
  if (T - P <= P)
    return Expected<CascadeInfo>::error(
        format("mix '%s' ratio %lld:%lld is not skewed enough to cascade",
               MN.Name.c_str(), static_cast<long long>(P),
               static_cast<long long>(T - P)));

  std::vector<std::int64_t> Bounds = cascadeBoundaries(P, T - P, Stages);

  CascadeInfo Info;
  double Seconds = MN.Params.Seconds;
  G.removeEdge(SmallE);
  G.removeEdge(LargeE);

  NodeId Prev = S;
  std::int64_t PrevParts = Bounds[0];
  for (int I = 1; I < Stages; ++I) {
    std::int64_t A = Bounds[I];
    NodeId C = G.addNode(NodeKind::Mix,
                         format("%s.casc%d", MN.Name.c_str(), I));
    G.node(C).Params.Seconds = Seconds;
    G.addEdge(Prev, C, Rational(PrevParts, A));
    G.addEdge(L, C, Rational(A - PrevParts, A));
    Info.StageMixes.push_back(C);

    // Excess: when every cascade volume equals the final mix volume, stage
    // i+1 consumes a_i/a_{i+1} of this intermediate; the rest is discarded
    // -- a fraction known a priori (Section 3.4.1).
    std::int64_t Next = Bounds[I + 1];
    NodeId X = G.addNode(NodeKind::Excess,
                         format("%s.excess%d", MN.Name.c_str(), I));
    G.node(X).ExcessShare = Rational(Next - A, Next);
    G.addEdge(C, X, Rational(1));
    Info.ExcessNodes.push_back(X);

    Prev = C;
    PrevParts = A;
  }

  // Final stage reuses the original node so downstream edges stay intact.
  G.addEdge(Prev, M, Rational(PrevParts, T));
  G.addEdge(L, M, Rational(T - PrevParts, T));
  Info.StageMixes.push_back(M);
  return Info;
}
