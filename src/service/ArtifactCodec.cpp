//===- ArtifactCodec.cpp - Binary artifact codec --------------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/service/ArtifactCodec.h"

#include "aqua/lp/RevisedSimplex.h"
#include "aqua/support/StringUtils.h"

#include <bit>
#include <cstring>
#include <memory>

using namespace aqua;
using namespace aqua::service;

namespace {

constexpr std::uint32_t PayloadMagic = 0x52415141u; // "AQAR", little-endian.

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

class Writer {
public:
  void u8(std::uint8_t V) { Out.push_back(static_cast<char>(V)); }
  void b(bool V) { u8(V ? 1 : 0); }

  void u32(std::uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  }

  void u64(std::uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  }

  void i32(std::int32_t V) { u32(static_cast<std::uint32_t>(V)); }
  void i64(std::int64_t V) { u64(static_cast<std::uint64_t>(V)); }

  /// Exact bit pattern, so the round trip is bit-identical (NaNs and -0.0
  /// included).
  void f64(double V) {
    std::uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }

  void str(std::string_view S) {
    u64(S.size());
    Out.append(S.data(), S.size());
  }

  void rat(const Rational &R) {
    i64(R.numerator());
    i64(R.denominator());
  }

  std::string take() { return std::move(Out); }

private:
  std::string Out;
};

//===----------------------------------------------------------------------===//
// Bounds-checked reader
//===----------------------------------------------------------------------===//

// The payload is little-endian, so on a little-endian host a stored word
// is its own in-memory image: the reader loads words, and whole arrays of
// them, with one bounds check and one copy.
static_assert(std::endian::native == std::endian::little,
              "the reader loads the little-endian payload words directly");

class Reader {
public:
  explicit Reader(std::string_view Data) : Data(Data) {}

  bool failed() const { return Failed; }
  bool done() const { return Pos == Data.size(); }

  std::uint8_t u8() { return word<std::uint8_t>(); }
  bool b() { return u8() != 0; }
  std::uint32_t u32() { return word<std::uint32_t>(); }
  std::uint64_t u64() { return word<std::uint64_t>(); }
  std::int32_t i32() { return word<std::int32_t>(); }
  std::int64_t i64() { return word<std::int64_t>(); }
  /// The stored bit pattern, so NaNs and -0.0 come back exactly.
  double f64() { return word<double>(); }

  std::string str() {
    std::uint64_t Len = u64();
    if (!need(Len))
      return {};
    std::string S(Data.substr(Pos, Len));
    Pos += Len;
    return S;
  }

  Rational rat() {
    std::int64_t Num = i64();
    std::int64_t Den = i64();
    if (Den <= 0) { // Rational's invariant; zero/negative means corruption.
      Failed = true;
      return Rational(0);
    }
    // Reduced, whatever was stored: the result is always canonical.
    return Den == 1 ? Rational(Num) : Rational(Num, Den);
  }

  /// A count about to drive a loop/allocation; bounded by the bytes left
  /// so corrupt payloads cannot request absurd allocations.
  std::uint64_t count(std::uint64_t MinBytesPerItem) {
    std::uint64_t N = u64();
    if (MinBytesPerItem == 0)
      MinBytesPerItem = 1;
    if (N > (Data.size() - Pos) / MinBytesPerItem + 1) {
      Failed = true;
      return 0;
    }
    return N;
  }

  /// A count-prefixed array of words, the layout Writer emits for every
  /// numeric vector; \p Out is left empty on failure.
  template <typename T> void words(std::vector<T> &Out) {
    std::uint64_t N = count(sizeof(T));
    if (N == 0 || !need(N * sizeof(T)))
      return;
    Out.resize(N);
    std::memcpy(Out.data(), Data.data() + Pos, N * sizeof(T));
    Pos += N * sizeof(T);
  }

private:
  template <typename T> T word() {
    T V{};
    if (need(sizeof(T))) {
      std::memcpy(&V, Data.data() + Pos, sizeof(T));
      Pos += sizeof(T);
    }
    return V;
  }

  bool need(std::uint64_t N) {
    if (Failed || N > Data.size() - Pos) {
      Failed = true;
      return false;
    }
    return true;
  }

  std::string_view Data;
  std::size_t Pos = 0;
  bool Failed = false;
};

//===----------------------------------------------------------------------===//
// Per-type encoders
//===----------------------------------------------------------------------===//

void encodeGraph(Writer &W, const ir::AssayGraph &G) {
  W.u64(static_cast<std::uint64_t>(G.numNodeSlots()));
  for (ir::NodeId N = 0; N < G.numNodeSlots(); ++N) {
    const ir::Node &Nd = G.node(N);
    W.u8(static_cast<std::uint8_t>(Nd.Kind));
    W.b(Nd.Dead);
    W.str(Nd.Name);
    W.rat(Nd.OutFraction);
    W.b(Nd.UnknownVolume);
    W.b(Nd.NoExcess);
    W.rat(Nd.ExcessShare);
    W.f64(Nd.Params.Seconds);
    W.f64(Nd.Params.TempC);
    W.str(Nd.Params.Flavor);
    W.str(Nd.Params.Matrix);
    W.str(Nd.Params.Pusher);
    // Adjacency lists verbatim: their order is graph state (regeneration
    // slices and codegen walk them), not a derivable accident.
    W.u64(Nd.In.size());
    for (ir::EdgeId E : Nd.In)
      W.i32(E);
    W.u64(Nd.Out.size());
    for (ir::EdgeId E : Nd.Out)
      W.i32(E);
  }
  W.u64(static_cast<std::uint64_t>(G.numEdgeSlots()));
  for (ir::EdgeId E = 0; E < G.numEdgeSlots(); ++E) {
    const ir::Edge &Ed = G.edge(E);
    W.i32(Ed.Src);
    W.i32(Ed.Dst);
    W.rat(Ed.Fraction);
    W.b(Ed.Dead);
  }
}

/// Fills the node and edge slots straight from the payload -- dead flags
/// and adjacency lists in their stored order -- so the result is
/// state-identical to the encoded graph. The graph adopts the slots only if
/// every id is in range and the lists hold the adjacency invariant
/// (ir::Node::In), which its edge views rely on.
bool decodeGraph(Reader &R, ir::AssayGraph &G) {
  std::uint64_t NumNodes = R.count(16);
  std::vector<ir::Node> Nodes(NumNodes);
  for (ir::Node &Nd : Nodes) {
    std::uint8_t Kind = R.u8();
    if (R.failed() || Kind > static_cast<std::uint8_t>(ir::NodeKind::Excess))
      return false;
    Nd.Kind = static_cast<ir::NodeKind>(Kind);
    Nd.Dead = R.b();
    Nd.Name = R.str();
    Nd.OutFraction = R.rat();
    Nd.UnknownVolume = R.b();
    Nd.NoExcess = R.b();
    Nd.ExcessShare = R.rat();
    Nd.Params.Seconds = R.f64();
    Nd.Params.TempC = R.f64();
    Nd.Params.Flavor = R.str();
    Nd.Params.Matrix = R.str();
    Nd.Params.Pusher = R.str();
    R.words(Nd.In);
    R.words(Nd.Out);
  }

  std::uint64_t NumEdges = R.count(25);
  std::vector<ir::Edge> Edges(NumEdges);
  for (ir::Edge &Ed : Edges) {
    Ed.Src = R.i32();
    Ed.Dst = R.i32();
    Ed.Fraction = R.rat();
    Ed.Dead = R.b();
  }
  return !R.failed() && G.adoptSlots(std::move(Nodes), std::move(Edges)).ok();
}

void encodeAssignment(Writer &W, const core::VolumeAssignment &A) {
  W.u64(A.NodeVolumeNl.size());
  for (double V : A.NodeVolumeNl)
    W.f64(V);
  W.u64(A.EdgeVolumeNl.size());
  for (double V : A.EdgeVolumeNl)
    W.f64(V);
}

bool decodeAssignment(Reader &R, core::VolumeAssignment &A) {
  R.words(A.NodeVolumeNl);
  R.words(A.EdgeVolumeNl);
  return !R.failed();
}

void encodeRounded(Writer &W, const core::IntegerAssignment &A) {
  W.u64(A.NodeUnits.size());
  for (std::int64_t V : A.NodeUnits)
    W.i64(V);
  W.u64(A.EdgeUnits.size());
  for (std::int64_t V : A.EdgeUnits)
    W.i64(V);
  W.f64(A.MaxRatioErrorPct);
  W.f64(A.MeanRatioErrorPct);
  W.b(A.Underflow);
  W.b(A.Overflow);
}

bool decodeRounded(Reader &R, core::IntegerAssignment &A) {
  R.words(A.NodeUnits);
  R.words(A.EdgeUnits);
  A.MaxRatioErrorPct = R.f64();
  A.MeanRatioErrorPct = R.f64();
  A.Underflow = R.b();
  A.Overflow = R.b();
  return !R.failed();
}

void encodeProgram(Writer &W, const codegen::AISProgram &P) {
  W.u64(P.Instrs.size());
  for (const codegen::Instruction &In : P.Instrs) {
    W.u8(static_cast<std::uint8_t>(In.Op));
    for (const codegen::Loc *L : {&In.Dst, &In.Src}) {
      W.u8(static_cast<std::uint8_t>(L->Kind));
      W.i32(L->Index);
      W.u8(static_cast<std::uint8_t>(L->Sub));
    }
    W.i64(In.RelParts);
    W.f64(In.VolumeNl);
    W.f64(In.Seconds);
    W.f64(In.TempC);
    W.str(In.Note);
    W.i32(In.Node);
  }
  W.i32(P.UsedReservoirs);
  W.i32(P.UsedMixers);
  W.i32(P.UsedHeaters);
  W.i32(P.UsedSensors);
  W.i32(P.UsedSeparators);
  W.i32(P.UsedInputPorts);
}

/// \p NodeSlots < 0 disables the node-id upper bound: an unmanaged
/// artifact's instructions reference the *request* graph, which the
/// artifact does not carry, so only the >= -1 floor can be checked.
bool decodeProgram(Reader &R, codegen::AISProgram &P, int NodeSlots) {
  std::uint64_t N = R.count(48);
  P.Instrs.reserve(N);
  for (std::uint64_t I = 0; I < N && !R.failed(); ++I) {
    codegen::Instruction &In = P.Instrs.emplace_back();
    std::uint8_t Op = R.u8();
    if (Op > static_cast<std::uint8_t>(codegen::Opcode::Output))
      return false;
    In.Op = static_cast<codegen::Opcode>(Op);
    for (codegen::Loc *L : {&In.Dst, &In.Src}) {
      std::uint8_t Kind = R.u8();
      if (Kind > static_cast<std::uint8_t>(codegen::LocKind::OutputPort))
        return false;
      L->Kind = static_cast<codegen::LocKind>(Kind);
      L->Index = R.i32();
      std::uint8_t Sub = R.u8();
      if (Sub > static_cast<std::uint8_t>(codegen::SubPort::Out1))
        return false;
      L->Sub = static_cast<codegen::SubPort>(Sub);
    }
    In.RelParts = R.i64();
    In.VolumeNl = R.f64();
    In.Seconds = R.f64();
    In.TempC = R.f64();
    In.Note = R.str();
    In.Node = R.i32();
    if (In.Node < ir::InvalidNode || (NodeSlots >= 0 && In.Node >= NodeSlots))
      return false;
  }
  P.UsedReservoirs = R.i32();
  P.UsedMixers = R.i32();
  P.UsedHeaters = R.i32();
  P.UsedSensors = R.i32();
  P.UsedSeparators = R.i32();
  P.UsedInputPorts = R.i32();
  return !R.failed();
}

/// v2 warm-start block: the basis is a flat snapshot (statuses, basic
/// columns, optional reduced costs and devex weights), valid under the
/// recorded presolved-shape hash.
void encodeBasisBlock(Writer &W, const core::ManagerResult &VM) {
  W.u64(VM.LpShapeHash);
  W.b(VM.LpBasis != nullptr);
  if (!VM.LpBasis)
    return;
  const lp::Basis &B = *VM.LpBasis;
  W.u64(B.Status.size());
  for (lp::VarStatus S : B.Status)
    W.u8(static_cast<std::uint8_t>(S));
  W.u64(B.BasicCol.size());
  for (int C : B.BasicCol)
    W.i32(C);
  W.u64(B.RedCost.size());
  for (double D : B.RedCost)
    W.f64(D);
  W.u64(B.DevexW.size());
  for (double D : B.DevexW)
    W.f64(D);
}

bool decodeBasisBlock(Reader &R, core::ManagerResult &VM) {
  VM.LpShapeHash = R.u64();
  if (!R.b())
    return !R.failed();
  auto B = std::make_shared<lp::Basis>();
  std::uint64_t NS = R.count(1);
  B->Status.reserve(NS);
  for (std::uint64_t I = 0; I < NS && !R.failed(); ++I) {
    std::uint8_t S = R.u8();
    if (S > static_cast<std::uint8_t>(lp::VarStatus::Free))
      return false;
    B->Status.push_back(static_cast<lp::VarStatus>(S));
  }
  R.words(B->BasicCol);
  for (int C : B->BasicCol)
    if (C < 0 || static_cast<std::uint64_t>(C) >= NS)
      return false;
  R.words(B->RedCost);
  R.words(B->DevexW);
  if (R.failed())
    return false;
  VM.LpBasis = std::move(B);
  return true;
}

} // namespace

std::string aqua::service::encodeArtifact(const CompileArtifact &Artifact) {
  Writer W;
  W.u32(PayloadMagic);
  W.u32(ArtifactCodecVersion);
  W.b(Artifact.Ok);
  W.b(Artifact.Managed);
  W.str(Artifact.Error);
  W.b(Artifact.VM.Feasible);
  W.u8(static_cast<std::uint8_t>(Artifact.VM.Method));
  encodeGraph(W, Artifact.VM.Graph);
  encodeAssignment(W, Artifact.VM.Volumes);
  encodeRounded(W, Artifact.VM.Rounded);
  W.i32(Artifact.VM.CascadesApplied);
  W.i32(Artifact.VM.ReplicationsApplied);
  W.f64(Artifact.VM.MinDispenseNl);
  W.str(Artifact.VM.Log);
  encodeAssignment(W, Artifact.Metered);
  encodeProgram(W, Artifact.Program);
  encodeBasisBlock(W, Artifact.VM);
  return W.take();
}

Expected<CompileArtifact>
aqua::service::decodeArtifact(std::string_view Payload) {
  Reader R(Payload);
  auto Bad = [](const char *What) {
    return Expected<CompileArtifact>::error(
        format("artifact payload: %s", What));
  };
  if (R.u32() != PayloadMagic)
    return Bad("bad magic");
  std::uint32_t Version = R.u32();
  if (Version < 1 || Version > ArtifactCodecVersion)
    return Bad(format("unsupported version %u", Version).c_str());

  CompileArtifact A;
  A.Ok = R.b();
  A.Managed = R.b();
  A.Error = R.str();
  A.VM.Feasible = R.b();
  std::uint8_t Method = R.u8();
  if (Method > static_cast<std::uint8_t>(core::SolveMethod::LP))
    return Bad("bad solve method");
  A.VM.Method = static_cast<core::SolveMethod>(Method);
  if (!decodeGraph(R, A.VM.Graph))
    return Bad("malformed graph");
  if (!decodeAssignment(R, A.VM.Volumes))
    return Bad("malformed RVol assignment");
  if (!decodeRounded(R, A.VM.Rounded))
    return Bad("malformed IVol assignment");
  A.VM.CascadesApplied = R.i32();
  A.VM.ReplicationsApplied = R.i32();
  A.VM.MinDispenseNl = R.f64();
  A.VM.Log = R.str();
  if (!decodeAssignment(R, A.Metered))
    return Bad("malformed metered assignment");
  if (!decodeProgram(R, A.Program,
                     A.Managed ? A.VM.Graph.numNodeSlots() : -1))
    return Bad("malformed AIS program");
  if (Version >= 2 && !decodeBasisBlock(R, A.VM))
    return Bad("malformed warm-start block");
  if (R.failed())
    return Bad("truncated");
  if (!R.done())
    return Bad("trailing bytes");
  return A;
}
