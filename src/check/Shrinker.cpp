//===- Shrinker.cpp - Greedy failure minimization -------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/check/Shrinker.h"

#include <algorithm>

using namespace aqua;
using namespace aqua::check;

namespace {

/// The shrink loop state: the current smallest failing program and the
/// acceptance predicate.
class Shrinker {
public:
  Shrinker(const GenProgram &P, Oracle Target, const CheckOptions &Check,
           const ShrinkOptions &Opts)
      : Current(P), Target(Target), Check(Check), Opts(Opts) {}

  ShrinkResult run() {
    // Pass order: coarse edits first (whole statements), then finer ones.
    // Loop to a fixpoint: operand removal can unlock statement removal.
    bool Changed = true;
    while (Changed && Evaluations < Opts.MaxEvaluations) {
      Changed = false;
      Changed |= deleteStatements();
      Changed |= dropMixOperands();
      Changed |= simplifyRatios();
      Changed |= simplifyLoops();
      Shrunk |= Changed;
    }

    ShrinkResult R;
    R.Minimal = Current;
    R.Report = checkProgram(Current, Check);
    R.Evaluations = Evaluations + 1;
    R.Shrunk = Shrunk;
    return R;
  }

private:
  /// True when \p Candidate still exhibits a failure of the target oracle
  /// family; on acceptance the candidate becomes the new current program.
  bool accept(GenProgram Candidate) {
    if (Evaluations >= Opts.MaxEvaluations)
      return false;
    ++Evaluations;
    CaseReport R = checkProgram(Candidate, Check);
    bool SameFamily = std::any_of(
        R.Failures.begin(), R.Failures.end(),
        [&](const Failure &F) { return F.O == Target; });
    if (!SameFamily)
      return false;
    Current = std::move(Candidate);
    return true;
  }

  /// Deletes statements one at a time, last first (later statements are
  /// less likely to be load-bearing for earlier ones' `it` chains).
  bool deleteStatements() {
    bool Changed = false;
    for (int I = static_cast<int>(Current.Stmts.size()) - 1; I >= 0; --I) {
      if (Current.Stmts.size() <= 1)
        break;
      GenProgram Candidate = Current;
      Candidate.Stmts.erase(Candidate.Stmts.begin() + I);
      Changed |= accept(std::move(Candidate));
    }
    return Changed;
  }

  bool dropMixOperands() {
    bool Changed = false;
    for (size_t I = 0; I < Current.Stmts.size(); ++I) {
      if (Current.Stmts[I].K != GenStmt::Kind::Mix)
        continue;
      for (int Op = static_cast<int>(Current.Stmts[I].Operands.size()) - 1;
           Op >= 0 && Current.Stmts[I].Operands.size() > 2; --Op) {
        GenProgram Candidate = Current;
        GenStmt &S = Candidate.Stmts[I];
        S.Operands.erase(S.Operands.begin() + Op);
        S.Ratios.erase(S.Ratios.begin() + Op);
        Changed |= accept(std::move(Candidate));
      }
    }
    return Changed;
  }

  bool simplifyRatios() {
    bool Changed = false;
    for (size_t I = 0; I < Current.Stmts.size(); ++I) {
      if (Current.Stmts[I].K != GenStmt::Kind::Mix)
        continue;
      for (size_t Part = 0; Part < Current.Stmts[I].Ratios.size(); ++Part) {
        if (Current.Stmts[I].Ratios[Part] == 1)
          continue;
        GenProgram Candidate = Current;
        Candidate.Stmts[I].Ratios[Part] = 1;
        Changed |= accept(std::move(Candidate));
      }
    }
    return Changed;
  }

  bool simplifyLoops() {
    bool Changed = false;
    // accept() replaces Current: re-index Current.Stmts[I] after each call.
    for (size_t I = 0; I < Current.Stmts.size(); ++I) {
      if (Current.Stmts[I].K == GenStmt::Kind::DilutionLoop) {
        if (Current.Stmts[I].Trips > 2) {
          GenProgram Candidate = Current;
          Candidate.Stmts[I].Trips = 2;
          Changed |= accept(std::move(Candidate));
        }
        if (Current.Stmts[I].Factor > 2) {
          GenProgram Candidate = Current;
          Candidate.Stmts[I].Factor = 2;
          Changed |= accept(std::move(Candidate));
        }
      }
      // A yield hint is simpler than a statically-unknown volume.
      const GenStmt &S = Current.Stmts[I];
      if ((S.K == GenStmt::Kind::Separate ||
           S.K == GenStmt::Kind::Concentrate) &&
          !S.HasYield) {
        GenProgram Candidate = Current;
        Candidate.Stmts[I].HasYield = true;
        Changed |= accept(std::move(Candidate));
      }
    }
    return Changed;
  }

  GenProgram Current;
  Oracle Target;
  const CheckOptions &Check;
  const ShrinkOptions &Opts;
  int Evaluations = 0;
  bool Shrunk = false;
};

} // namespace

ShrinkResult aqua::check::shrink(const GenProgram &P,
                                 const CaseReport &Original,
                                 const CheckOptions &Check,
                                 const ShrinkOptions &Opts) {
  if (Original.Failures.empty()) {
    ShrinkResult R;
    R.Minimal = P;
    R.Report = Original;
    return R;
  }
  Shrinker S(P, Original.Failures.front().O, Check, Opts);
  return S.run();
}
