//===- Harness.cpp - Differential-testing harness -------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/check/Harness.h"

#include "aqua/support/Json.h"
#include "aqua/support/Random.h"
#include "aqua/support/StringUtils.h"

#include <fstream>

using namespace aqua;
using namespace aqua::check;

std::string HarnessResult::summary() const {
  std::string Out;
  Out += format("cases:             %d\n", Cases);
  Out += format("failures:          %d\n", Failures);
  Out += format("frontend ok:       %d\n", FrontendOk);
  Out += format("managed:           %d\n", Managed);
  Out += format("feasible:          %d\n", Feasible);
  Out += format("solved by LP:      %d\n", SolvedByLP);
  Out += format("simulated:         %d\n", Simulated);
  Out += format("exact composition: %d\n", ExactComposition);
  Out += format("ILP cross-checks:  %d\n", RanIlp);
  for (const FailedCase &F : Failed) {
    Out += format("FAILED case seed %llu (%d statements after %d shrink "
                  "evaluations)%s%s:\n",
                  static_cast<unsigned long long>(F.CaseSeed),
                  F.Minimal.numStatements(), F.ShrinkEvaluations,
                  F.ReproPath.empty() ? "" : ", repro ",
                  F.ReproPath.c_str());
    Out += F.Report.str();
  }
  return Out;
}

std::string HarnessResult::json() const {
  std::string Out = "{";
  Out += format("\"cases\":%d,\"failures\":%d,\"frontend_ok\":%d,"
                "\"managed\":%d,\"feasible\":%d,\"solved_by_lp\":%d,"
                "\"simulated\":%d,\"exact_composition\":%d,\"ilp_runs\":%d,",
                Cases, Failures, FrontendOk, Managed, Feasible, SolvedByLP,
                Simulated, ExactComposition, RanIlp);
  Out += "\"failed\":[";
  for (size_t I = 0; I < Failed.size(); ++I) {
    const FailedCase &F = Failed[I];
    if (I)
      Out += ",";
    Out += format("{\"seed\":%llu,\"statements\":%d,\"repro\":",
                  static_cast<unsigned long long>(F.CaseSeed),
                  F.Minimal.numStatements());
    json::appendQuoted(Out, F.ReproPath);
    Out += ",\"oracles\":[";
    for (size_t J = 0; J < F.Report.Failures.size(); ++J) {
      if (J)
        Out += ",";
      Out += format("{\"oracle\":\"%s\",\"message\":",
                    oracleName(F.Report.Failures[J].O));
      json::appendQuoted(Out, F.Report.Failures[J].Message);
      Out += "}";
    }
    Out += "]}";
  }
  Out += "]}";
  return Out;
}

std::string aqua::check::renderRepro(const FailedCase &F,
                                     const HarnessOptions &Opts) {
  std::string Out;
  Out += format("-- aqua-check repro (master seed %llu, case seed %llu, "
                "difficulty %d)\n",
                static_cast<unsigned long long>(Opts.Seed),
                static_cast<unsigned long long>(F.CaseSeed),
                Opts.Gen.Difficulty);
  Out += format("-- replay: aquacheck --replay FILE --yield %lld/%lld\n",
                static_cast<long long>(F.Minimal.YieldNum),
                static_cast<long long>(F.Minimal.YieldDen));
  for (const Failure &Fail : F.Report.Failures)
    Out += format("-- %s: %s\n", oracleName(Fail.O), Fail.Message.c_str());
  Out += F.Minimal.render();
  return Out;
}

HarnessResult aqua::check::runHarness(const HarnessOptions &Opts,
                                      void (*Log)(const std::string &)) {
  HarnessResult Result;
  SplitMix64 Master(Opts.Seed);

  for (int Case = 0; Case < Opts.Cases; ++Case) {
    std::uint64_t CaseSeed = Master.next();
    GenProgram P = generateProgram(CaseSeed, Opts.Gen);
    CaseReport R = checkProgram(P, Opts.Check);

    ++Result.Cases;
    Result.FrontendOk += R.FrontendOk;
    Result.Managed += R.Managed;
    Result.Feasible += R.Feasible;
    Result.SolvedByLP += R.Feasible && R.Method == core::SolveMethod::LP;
    Result.Simulated += R.Simulated;
    Result.ExactComposition += R.ExactComposition;
    Result.RanIlp += R.RanIlp;
    if (R.ok())
      continue;

    ++Result.Failures;
    FailedCase F;
    F.CaseSeed = CaseSeed;
    if (Opts.Shrink) {
      ShrinkResult S = shrink(P, R, Opts.Check, Opts.ShrinkOpts);
      F.Minimal = std::move(S.Minimal);
      F.Report = std::move(S.Report);
      F.ShrinkEvaluations = S.Evaluations;
    } else {
      F.Minimal = std::move(P);
      F.Report = std::move(R);
    }

    if (!Opts.ReproDir.empty()) {
      std::string Path =
          format("%s/aqua-check-repro-%llu.assay", Opts.ReproDir.c_str(),
                 static_cast<unsigned long long>(CaseSeed));
      std::ofstream File(Path);
      if (File) {
        File << renderRepro(F, Opts);
        F.ReproPath = Path;
      }
    }

    if (Log) {
      Log(format("case %d (seed %llu): %d oracle failure(s), shrunk to %d "
                 "statements",
                 Case, static_cast<unsigned long long>(CaseSeed),
                 static_cast<int>(F.Report.Failures.size()),
                 F.Minimal.numStatements()));
      for (const Failure &Fail : F.Report.Failures)
        Log(format("  %s: %s", oracleName(Fail.O), Fail.Message.c_str()));
    }
    Result.Failed.push_back(std::move(F));
  }
  return Result;
}
