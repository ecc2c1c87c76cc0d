//===- Generator.cpp - Random assay-program generator ---------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/check/Generator.h"

#include "aqua/support/Random.h"
#include "aqua/support/StringUtils.h"

#include <algorithm>
#include <set>

using namespace aqua;
using namespace aqua::check;

namespace {

/// Statement-kind weights by difficulty; higher difficulty shifts mass to
/// separations, loops and deep reuse.
struct Weights {
  int Mix, Incubate, Sense, Separate, Concentrate, Loop;
};

Weights weightsFor(int Difficulty, const GenConfig &Config) {
  Weights W;
  W.Mix = 10;
  W.Incubate = 3;
  W.Sense = 3;
  W.Separate = 1 + Difficulty;
  W.Concentrate = 1 + Difficulty / 2;
  W.Loop = Config.AllowLoops ? Difficulty : 0;
  return W;
}

class Generator {
public:
  Generator(std::uint64_t Seed, const GenConfig &Config)
      : Rng(Seed), Config(Config),
        Difficulty(std::clamp(Config.Difficulty, 1, 5)) {}

  GenProgram run(std::uint64_t Seed) {
    GenProgram P;
    P.Seed = Seed;
    P.Name = format("gen_%llu", static_cast<unsigned long long>(Seed));
    pickYield(P);

    int Statements = 2 + 2 * Difficulty +
                     static_cast<int>(Rng.nextInRange(0, 2 * Difficulty));
    Weights W = weightsFor(Difficulty, Config);
    for (int I = 0; I < Statements; ++I)
      P.Stmts.push_back(nextStmt(W));

    // Every program ends in at least one sense so the simulation oracle has
    // a composition vector to cross-check.
    P.Stmts.push_back(makeSense());
    return P;
  }

private:
  /// The shared yield fraction: simple fractions whose product with any
  /// least-count-multiple volume stays on the metering grid often enough to
  /// keep managed simulations clean.
  void pickYield(GenProgram &P) {
    static const std::pair<std::int64_t, std::int64_t> Choices[] = {
        {1, 2}, {1, 4}, {3, 4}, {2, 5}, {1, 5}};
    auto [N, D] = Choices[Rng.nextInRange(0, 4)];
    P.YieldNum = N;
    P.YieldDen = D;
  }

  std::string freshInput() {
    std::string Name = format("F%d", ++InputCounter);
    Pool.push_back(Name);
    return Name;
  }

  /// A fluid operand: mostly reuse (stressing replication), sometimes a
  /// fresh input.
  std::string pickFluid() {
    if (Pool.empty() || Rng.nextInRange(0, 9) < 3)
      return freshInput();
    return Pool[Rng.nextInRange(0, static_cast<std::int64_t>(Pool.size()) - 1)];
  }

  /// `it` is only meaningful right after a fluid-producing statement; using
  /// it is how incubate/concentrate products stay reachable.
  std::string pickInput() {
    if (ItValid && Rng.nextInRange(0, 3) == 0)
      return "it";
    return pickFluid();
  }

  std::int64_t ratioPart() {
    // Extreme parts appear from difficulty 2 up; 1:999 is the paper's
    // hardest case (three-stage cascade).
    int ExtremeChance = Difficulty >= 4 ? 4 : (Difficulty >= 2 ? 2 : 0);
    if (ExtremeChance && Rng.nextInRange(0, 9) < ExtremeChance) {
      static const std::int64_t Extreme[] = {49, 99, 199, 499, 999};
      std::int64_t Cap = Difficulty >= 3 ? 4 : 1;
      return Extreme[Rng.nextInRange(0, Cap)];
    }
    return Rng.nextInRange(1, 9);
  }

  GenStmt makeMix() {
    GenStmt S;
    S.K = GenStmt::Kind::Mix;
    int MaxOperands = std::min(4, 2 + Difficulty / 2);
    int Count = static_cast<int>(Rng.nextInRange(2, MaxOperands));
    std::set<std::string> Used;
    if (ItValid && Rng.nextInRange(0, 3) == 0) {
      S.Operands.push_back("it");
      Used.insert("it");
      // `it` aliases the last named product (if any); mixing both names
      // would be the same fluid twice.
      if (!ItName.empty())
        Used.insert(ItName);
    }
    while (static_cast<int>(S.Operands.size()) < Count) {
      std::string F = pickFluid();
      if (Used.count(F))
        F = freshInput(); // Distinct operands: a MIX may not reuse a fluid.
      Used.insert(F);
      S.Operands.push_back(F);
    }
    for (size_t I = 0; I < S.Operands.size(); ++I)
      S.Ratios.push_back(ratioPart());
    // At most one extreme part per mix keeps LP coefficients sane while
    // still forcing cascades.
    bool SeenExtreme = false;
    for (std::int64_t &R : S.Ratios) {
      if (R > 20) {
        if (SeenExtreme)
          R = Rng.nextInRange(1, 9);
        SeenExtreme = true;
      }
    }
    S.Seconds = Rng.nextInRange(1, 60);
    if (Rng.nextInRange(0, 4) != 0) {
      S.Result = format("p%d", ++ProductCounter);
      Pool.push_back(S.Result);
    }
    ItValid = true;
    ItName = S.Result; // Empty for an anonymous mix.
    return S;
  }

  GenStmt makeIncubate() {
    GenStmt S;
    S.K = GenStmt::Kind::Incubate;
    S.Input = pickInput();
    S.TempC = Rng.nextInRange(25, 95);
    S.Seconds = Rng.nextInRange(10, 600);
    ItValid = true; // The incubated product is only reachable as `it`.
    ItName.clear();
    return S;
  }

  GenStmt makeSense() {
    GenStmt S;
    S.K = GenStmt::Kind::Sense;
    S.Input = pickInput();
    S.SenseArray = format("R%d", ++SenseCounter);
    S.Fluorescence = Rng.nextInRange(0, 1) == 1;
    // Sensing neither rebinds `it` nor consumes the name; ItValid unchanged.
    return S;
  }

  GenStmt makeSeparate() {
    GenStmt S;
    S.K = GenStmt::Kind::Separate;
    S.Input = pickInput();
    S.LC = Rng.nextInRange(0, 1) == 1;
    int Id = ++SeparateCounter;
    S.MatrixName = format("Mtx%d", Id);
    S.PusherName = format("Buf%d", Id);
    S.EffluentName = format("eff%d", Id);
    S.WasteName = format("w%d", Id);
    S.HasYield = !Config.AllowUnknownVolumes || Rng.nextInRange(0, 3) != 0;
    Pool.push_back(S.EffluentName);
    ItValid = true;
    ItName = S.EffluentName;
    return S;
  }

  GenStmt makeConcentrate() {
    GenStmt S;
    S.K = GenStmt::Kind::Concentrate;
    S.Input = pickInput();
    S.TempC = Rng.nextInRange(60, 95);
    S.Seconds = Rng.nextInRange(30, 300);
    S.HasYield = !Config.AllowUnknownVolumes || Rng.nextInRange(0, 3) != 0;
    ItValid = true;
    ItName.clear();
    return S;
  }

  GenStmt makeLoop() {
    GenStmt S;
    S.K = GenStmt::Kind::DilutionLoop;
    int Id = ++LoopCounter;
    S.LoopVar = format("i%d", Id);
    S.DilVar = format("d%d", Id);
    S.SenseArray = format("LR%d", Id);
    S.Result = format("dil%d", Id);
    S.Operands = {pickFluid(), pickFluid()};
    if (S.Operands[0] == S.Operands[1])
      S.Operands[1] = freshInput();
    S.Trips = Rng.nextInRange(2, 1 + Difficulty);
    S.Factor = Difficulty >= 3 ? 10 : Rng.nextInRange(2, 5);
    S.DilBase = 1;
    // Keep the final dilution at or below the paper's 1:999.
    while (powCeil(S.Factor, S.Trips - 1) > 999)
      --S.Trips;
    if (S.Trips < 2)
      S.Trips = 2;
    S.Seconds = Rng.nextInRange(1, 30);
    Pool.push_back(S.Result); // The last iteration's binding escapes.
    ItValid = true;
    ItName = S.Result;
    return S;
  }

  static std::int64_t powCeil(std::int64_t Base, std::int64_t Exp) {
    std::int64_t V = 1;
    for (std::int64_t I = 0; I < Exp; ++I)
      V *= Base;
    return V;
  }

  GenStmt nextStmt(const Weights &W) {
    int Total = W.Mix + W.Incubate + W.Sense + W.Separate + W.Concentrate +
                W.Loop;
    std::int64_t Pick = Rng.nextInRange(0, Total - 1);
    if ((Pick -= W.Mix) < 0)
      return makeMix();
    if ((Pick -= W.Incubate) < 0)
      return makeIncubate();
    if ((Pick -= W.Sense) < 0)
      return makeSense();
    if ((Pick -= W.Separate) < 0)
      return makeSeparate();
    if ((Pick -= W.Concentrate) < 0)
      return makeConcentrate();
    return makeLoop();
  }

  SplitMix64 Rng;
  const GenConfig &Config;
  int Difficulty;

  std::vector<std::string> Pool; ///< Referencable fluid names.
  bool ItValid = false;
  std::string ItName; // The name `it` currently aliases; empty if anonymous.
  int InputCounter = 0, ProductCounter = 0, SenseCounter = 0;
  int SeparateCounter = 0, LoopCounter = 0;
};

/// Collects every referencable fluid name a statement mentions (wastes are
/// declared too; the language requires it).
void collectNames(const GenStmt &S, std::set<std::string> &Fluids,
                  std::set<std::string> &SenseScalars,
                  std::set<std::pair<std::string, std::int64_t>> &SenseArrays) {
  auto AddFluid = [&](const std::string &N) {
    if (!N.empty() && N != "it")
      Fluids.insert(N);
  };
  switch (S.K) {
  case GenStmt::Kind::Mix:
    for (const std::string &Op : S.Operands)
      AddFluid(Op);
    AddFluid(S.Result);
    break;
  case GenStmt::Kind::Incubate:
  case GenStmt::Kind::Concentrate:
    AddFluid(S.Input);
    break;
  case GenStmt::Kind::Sense:
    AddFluid(S.Input);
    SenseScalars.insert(S.SenseArray);
    break;
  case GenStmt::Kind::Separate:
    AddFluid(S.Input);
    AddFluid(S.EffluentName);
    AddFluid(S.WasteName);
    break;
  case GenStmt::Kind::DilutionLoop:
    for (const std::string &Op : S.Operands)
      AddFluid(Op);
    AddFluid(S.Result);
    SenseArrays.insert({S.SenseArray, S.Trips});
    break;
  }
}

void renderStmt(const GenProgram &P, const GenStmt &S, std::string &Out) {
  switch (S.K) {
  case GenStmt::Kind::Mix: {
    if (!S.Result.empty())
      Out += S.Result + " = ";
    Out += "MIX ";
    for (size_t I = 0; I < S.Operands.size(); ++I) {
      if (I)
        Out += " AND ";
      Out += S.Operands[I];
    }
    Out += " IN RATIOS ";
    for (size_t I = 0; I < S.Ratios.size(); ++I) {
      if (I)
        Out += " : ";
      Out += format("%lld", static_cast<long long>(S.Ratios[I]));
    }
    Out += format(" FOR %lld;\n", static_cast<long long>(S.Seconds));
    return;
  }
  case GenStmt::Kind::Incubate:
    Out += format("INCUBATE %s AT %lld FOR %lld;\n", S.Input.c_str(),
                  static_cast<long long>(S.TempC),
                  static_cast<long long>(S.Seconds));
    return;
  case GenStmt::Kind::Sense:
    Out += format("SENSE %s %s INTO %s[1];\n",
                  S.Fluorescence ? "FLUORESCENCE" : "OPTICAL", S.Input.c_str(),
                  S.SenseArray.c_str());
    return;
  case GenStmt::Kind::Separate: {
    Out += format("%s %s MATRIX %s USING %s FOR %lld",
                  S.LC ? "LCSEPARATE" : "SEPARATE", S.Input.c_str(),
                  S.MatrixName.c_str(), S.PusherName.c_str(),
                  static_cast<long long>(S.Seconds ? S.Seconds : 10));
    if (S.HasYield)
      Out += format(" YIELD %lld OF %lld", static_cast<long long>(P.YieldNum),
                    static_cast<long long>(P.YieldDen));
    Out += format(" INTO %s AND %s;\n", S.EffluentName.c_str(),
                  S.WasteName.c_str());
    return;
  }
  case GenStmt::Kind::Concentrate: {
    Out += format("CONCENTRATE %s AT %lld FOR %lld", S.Input.c_str(),
                  static_cast<long long>(S.TempC),
                  static_cast<long long>(S.Seconds));
    if (S.HasYield)
      Out += format(" YIELD %lld OF %lld", static_cast<long long>(P.YieldNum),
                    static_cast<long long>(P.YieldDen));
    Out += ";\n";
    return;
  }
  case GenStmt::Kind::DilutionLoop:
    Out += format("%s = %lld;\n", S.DilVar.c_str(),
                  static_cast<long long>(S.DilBase));
    Out += format("FOR %s FROM 1 TO %lld START\n", S.LoopVar.c_str(),
                  static_cast<long long>(S.Trips));
    Out += format("  %s = MIX %s AND %s IN RATIOS 1 : %s FOR %lld;\n",
                  S.Result.c_str(), S.Operands[0].c_str(),
                  S.Operands[1].c_str(), S.DilVar.c_str(),
                  static_cast<long long>(S.Seconds));
    Out += format("  SENSE OPTICAL %s INTO %s[%s];\n", S.Result.c_str(),
                  S.SenseArray.c_str(), S.LoopVar.c_str());
    Out += format("  %s = %s * %lld;\n", S.DilVar.c_str(), S.DilVar.c_str(),
                  static_cast<long long>(S.Factor));
    Out += "ENDFOR\n";
    return;
  }
}

} // namespace

std::string GenProgram::render() const {
  std::set<std::string> Fluids;
  std::set<std::string> SenseScalars;
  std::set<std::pair<std::string, std::int64_t>> SenseArrays;
  for (const GenStmt &S : Stmts)
    collectNames(S, Fluids, SenseScalars, SenseArrays);

  std::string Out = format("ASSAY %s START\n", Name.c_str());
  if (!Fluids.empty()) {
    Out += "fluid ";
    bool First = true;
    for (const std::string &F : Fluids) {
      if (!First)
        Out += ", ";
      Out += F;
      First = false;
    }
    Out += ";\n";
  }
  for (const std::string &R : SenseScalars)
    Out += format("VAR %s[1];\n", R.c_str());
  for (const auto &[Name, Dim] : SenseArrays)
    Out += format("VAR %s[%lld];\n", Name.c_str(),
                  static_cast<long long>(Dim));
  for (const GenStmt &S : Stmts) {
    if (S.K == GenStmt::Kind::DilutionLoop)
      Out += format("VAR %s;\n", S.DilVar.c_str());
  }
  for (const GenStmt &S : Stmts)
    renderStmt(*this, S, Out);
  Out += "END\n";
  return Out;
}

GenProgram aqua::check::generateProgram(std::uint64_t Seed,
                                        const GenConfig &Config) {
  Generator G(Seed, Config);
  return G.run(Seed);
}
