//===- BioStream.cpp - BioStream 1:1 mixing baseline ----------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/core/BioStream.h"

#include "aqua/support/StringUtils.h"

#include <cmath>

using namespace aqua;
using namespace aqua::core;
using namespace aqua::ir;

Expected<BioStreamInfo> aqua::core::biostreamMix(AssayGraph &G, NodeId M,
                                                 int Bits) {
  using RetTy = Expected<BioStreamInfo>;
  if (Bits < 1 || Bits > 24)
    return RetTy::error("biostream precision must be 1..24 bits");
  // By value: addNode below may grow the node table and invalidate
  // references into it.
  const Node MN = G.node(M);
  if (MN.Kind != NodeKind::Mix)
    return RetTy::error(format("node '%s' is not a mix", MN.Name.c_str()));
  // A copy: removeEdge below rewrites M's list.
  std::vector<EdgeId> In = G.inEdges(M);
  if (In.size() != 2)
    return RetTy::error("biostream rewriting needs a two-input mix");

  EdgeId SmallE = In[0], LargeE = In[1];
  if (G.edge(SmallE).Fraction > G.edge(LargeE).Fraction)
    std::swap(SmallE, LargeE);
  NodeId A = G.edge(SmallE).Src; // "1" ingredient.
  NodeId B = G.edge(LargeE).Src; // "0" ingredient.
  if (G.node(A).NoExcess || G.node(B).NoExcess || MN.NoExcess)
    return RetTy::error("biostream mixing discards fluid; disallowed for "
                        "no-excess fluids");

  BioStreamInfo Info;
  Info.Target = G.edge(SmallE).Fraction;

  // Quantize the target to Bits binary digits and reduce.
  std::int64_t Denom = std::int64_t(1) << Bits;
  std::int64_t m = static_cast<std::int64_t>(
      std::llround(Info.Target.toDouble() * static_cast<double>(Denom)));
  if (m <= 0 || m >= Denom)
    return RetTy::error(
        format("target ratio %s is not representable in %d bits",
               Info.Target.str().c_str(), Bits));
  Info.Achieved = Rational(m, Denom); // Reduces trailing zero bits.
  Info.ErrorPct = std::fabs(Info.Achieved.toDouble() -
                            Info.Target.toDouble()) /
                  Info.Target.toDouble() * 100.0;

  // Derive the 1:1 ingredient sequence backward from the target:
  // c = (prev + s)/2 with s in {0,1}, so prev = 2c - s.
  Rational C = Info.Achieved;
  std::vector<int> Seq; // Ingredient per merge, derived last-to-first.
  while (!C.isZero() && C != Rational(1)) {
    Rational Twice = C * Rational(2);
    int S = Twice > Rational(1) ? 1 : 0;
    Seq.push_back(S);
    C = Twice - Rational(S);
  }
  int Start = C == Rational(1) ? 1 : 0;

  // Build the chain forward; the last merge reuses node M.
  G.removeEdge(SmallE);
  G.removeEdge(LargeE);
  double Seconds = MN.Params.Seconds;
  NodeId Cur = Start ? A : B;
  for (size_t I = Seq.size(); I-- > 0;) {
    bool Final = I == 0;
    NodeId Pure = Seq[I] ? A : B;
    NodeId Stage;
    if (Final) {
      Stage = M;
    } else {
      Stage = G.addNode(NodeKind::Mix,
                        format("%s.bs%zu", MN.Name.c_str(), Seq.size() - I));
      G.node(Stage).Params.Seconds = Seconds;
    }
    if (Cur == Pure)
      return RetTy::error("degenerate 1:1 merge of a fluid with itself");
    G.addEdge(Cur, Stage, Rational(1, 2));
    G.addEdge(Pure, Stage, Rational(1, 2));
    if (!Final) {
      // Half of every intermediate is carried forward; the other half is
      // discarded (the BioStream model).
      NodeId X = G.addNode(NodeKind::Excess,
                           format("%s.bsx%zu", MN.Name.c_str(),
                                  Seq.size() - I));
      G.node(X).ExcessShare = Rational(1, 2);
      G.addEdge(Stage, X, Rational(1));
      Info.ExcessNodes.push_back(X);
    }
    Info.Stages.push_back(Stage);
    Cur = Stage;
  }
  return Info;
}
