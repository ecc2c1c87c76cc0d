//===- Branching.cpp - Branch-and-bound branching layer ---------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/lp/Branching.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace aqua;
using namespace aqua::lp;

std::vector<BranchCandidate>
aqua::lp::fractionalCandidates(const std::vector<double> &Values,
                               const std::vector<bool> &IsInteger,
                               double Tol) {
  assert(Values.size() == IsInteger.size() && "mask/value size mismatch");
  std::vector<BranchCandidate> Out;
  for (size_t I = 0; I < Values.size(); ++I) {
    if (!IsInteger[I])
      continue;
    double Frac = Values[I] - std::floor(Values[I]);
    if (std::min(Frac, 1.0 - Frac) > Tol)
      Out.push_back({static_cast<int>(I), Frac});
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const BranchCandidate &A, const BranchCandidate &B) {
                     return std::min(A.Frac, 1.0 - A.Frac) >
                            std::min(B.Frac, 1.0 - B.Frac);
                   });
  return Out;
}

bool aqua::lp::PseudocostTable::record(int Var, bool Up, double PerUnit) {
  PerUnit = std::max(PerUnit, 0.0);
  Entry &E = Tab[Var];
  Dir &D = Up ? E.UpD : E.DownD;
  Dir &G = Up ? GlobalUp : GlobalDown;
  const bool First = D.Cnt == 0;
  D.Sum += PerUnit;
  ++D.Cnt;
  G.Sum += PerUnit;
  ++G.Cnt;
  return First;
}

double aqua::lp::PseudocostTable::estimate(int Var, bool Up) const {
  const Entry &E = Tab[Var];
  const Dir &D = Up ? E.UpD : E.DownD;
  if (D.Cnt > 0)
    return D.Sum / D.Cnt;
  const Dir &G = Up ? GlobalUp : GlobalDown;
  return G.Cnt > 0 ? G.Sum / G.Cnt : 0.0;
}

int aqua::lp::PseudocostTable::reliability(int Var) const {
  const Entry &E = Tab[Var];
  return std::min(E.UpD.Cnt, E.DownD.Cnt);
}

double aqua::lp::pseudocostScore(double UpEst, double DownEst, double Frac) {
  constexpr double Eps = 1e-6;
  const double UpGain = UpEst * (1.0 - Frac);
  const double DownGain = DownEst * Frac;
  return std::max(UpGain, Eps) * std::max(DownGain, Eps);
}
