//===- AssayGraph.cpp - Assay DAG intermediate form --------------------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/ir/AssayGraph.h"

#include "aqua/support/StringUtils.h"

#include <algorithm>
#include <numeric>
#include <queue>

using namespace aqua;
using namespace aqua::ir;

const char *aqua::ir::nodeKindName(NodeKind K) {
  switch (K) {
  case NodeKind::Input:
    return "input";
  case NodeKind::Mix:
    return "mix";
  case NodeKind::Incubate:
    return "incubate";
  case NodeKind::Sense:
    return "sense";
  case NodeKind::Separate:
    return "separate";
  case NodeKind::Output:
    return "output";
  case NodeKind::Excess:
    return "excess";
  }
  AQUA_UNREACHABLE("bad NodeKind");
}

NodeId AssayGraph::addNode(NodeKind Kind, std::string Name) {
  Node N;
  N.Kind = Kind;
  N.Name = std::move(Name);
  Nodes.push_back(std::move(N));
  return static_cast<NodeId>(Nodes.size()) - 1;
}

EdgeId AssayGraph::addEdge(NodeId Src, NodeId Dst, Rational Fraction) {
  assert(Src >= 0 && Src < numNodeSlots() && "bad source node");
  assert(Dst >= 0 && Dst < numNodeSlots() && "bad destination node");
  assert(!Nodes[Src].Dead && !Nodes[Dst].Dead && "edge touches dead node");
  Edge E;
  E.Src = Src;
  E.Dst = Dst;
  E.Fraction = Fraction;
  Edges.push_back(E);
  EdgeId Id = static_cast<EdgeId>(Edges.size()) - 1;
  Nodes[Src].Out.push_back(Id);
  Nodes[Dst].In.push_back(Id);
  return Id;
}

NodeId AssayGraph::addMix(std::string Name, const std::vector<MixPart> &Parts,
                          double Seconds) {
  assert(Parts.size() >= 2 && "a mix needs at least two sources");
  std::int64_t Total = 0;
  for (const MixPart &P : Parts) {
    assert(P.Parts > 0 && "mix parts must be positive");
    Total += P.Parts;
  }
  NodeId N = addNode(NodeKind::Mix, std::move(Name));
  Nodes[N].Params.Seconds = Seconds;
  for (const MixPart &P : Parts)
    addEdge(P.Source, N, Rational(P.Parts, Total));
  return N;
}

NodeId AssayGraph::addUnary(NodeKind Kind, std::string Name, NodeId Src) {
  NodeId N = addNode(Kind, std::move(Name));
  addEdge(Src, N, Rational(1));
  return N;
}

void AssayGraph::removeEdge(EdgeId E) {
  Edge &Ed = Edges[E];
  if (Ed.Dead)
    return;
  Ed.Dead = true;
  auto Unlink = [E](std::vector<EdgeId> &List) {
    List.erase(std::remove(List.begin(), List.end(), E), List.end());
  };
  Unlink(Nodes[Ed.Src].Out);
  Unlink(Nodes[Ed.Dst].In);
}

void AssayGraph::removeNode(NodeId N) {
  Node &Nd = Nodes[N];
  if (Nd.Dead)
    return;
  // Copy: removeEdge mutates the adjacency lists.
  std::vector<EdgeId> Incident = Nd.In;
  Incident.insert(Incident.end(), Nd.Out.begin(), Nd.Out.end());
  for (EdgeId E : Incident)
    removeEdge(E);
  Nd.Dead = true;
}

void AssayGraph::setEdgeSource(EdgeId E, NodeId NewSrc) {
  Edge &Ed = Edges[E];
  assert(!Ed.Dead && "rewiring a dead edge");
  assert(!Nodes[NewSrc].Dead && "rewiring onto a dead node");
  auto &OldOut = Nodes[Ed.Src].Out;
  OldOut.erase(std::remove(OldOut.begin(), OldOut.end(), E), OldOut.end());
  Ed.Src = NewSrc;
  Nodes[NewSrc].Out.push_back(E);
}

namespace {

/// Every edge endpoint names a node slot, and the adjacency invariant
/// holds (see Node::In). It allocates only to sort a list that
/// setEdgeSource left out of id order, so the artifact decoder can afford
/// it on every graph it loads.
Status checkAdjacency(const std::vector<Node> &Nodes,
                      const std::vector<Edge> &Edges) {
  const auto NumNodes = static_cast<NodeId>(Nodes.size());
  const auto NumEdges = static_cast<EdgeId>(Edges.size());
  std::size_t LiveEdges = 0;
  for (EdgeId E = 0; E < NumEdges; ++E) {
    const Edge &Ed = Edges[E];
    if (Ed.Src < 0 || Ed.Src >= NumNodes || Ed.Dst < 0 || Ed.Dst >= NumNodes)
      return Status::error(format("edge %d names a missing node slot", E));
    LiveEdges += !Ed.Dead;
  }
  // An id is valid only in the list of its own endpoint, so once every
  // list holds valid, distinct ids, equal totals mean that each live edge
  // is listed exactly once at each end.
  auto ValidDistinct = [&](const std::vector<EdgeId> &List, NodeId N,
                           NodeId Edge::*End) {
    for (EdgeId E : List)
      if (E < 0 || E >= NumEdges || Edges[E].Dead || Edges[E].*End != N)
        return false;
    if (std::is_sorted(List.begin(), List.end()))
      return std::adjacent_find(List.begin(), List.end()) == List.end();
    std::vector<EdgeId> Sorted = List;
    std::sort(Sorted.begin(), Sorted.end());
    return std::adjacent_find(Sorted.begin(), Sorted.end()) == Sorted.end();
  };
  std::size_t InIds = 0, OutIds = 0;
  for (NodeId N = 0; N < NumNodes; ++N) {
    const Node &Nd = Nodes[N];
    if (Nd.Dead && (!Nd.In.empty() || !Nd.Out.empty()))
      return Status::error(format("dead node %d lists edges", N));
    if (!ValidDistinct(Nd.In, N, &Edge::Dst) ||
        !ValidDistinct(Nd.Out, N, &Edge::Src))
      return Status::error(format("node %d lists an edge that is dead, not "
                                  "incident there, or listed twice",
                                  N));
    InIds += Nd.In.size();
    OutIds += Nd.Out.size();
  }
  if (InIds != LiveEdges || OutIds != LiveEdges)
    return Status::error("a live edge is missing from its endpoints' lists");
  return Status::success();
}

} // namespace

Status AssayGraph::adoptSlots(std::vector<Node> NewNodes,
                              std::vector<Edge> NewEdges) {
  if (Status S = checkAdjacency(NewNodes, NewEdges); !S.ok())
    return S;
  Nodes = std::move(NewNodes);
  Edges = std::move(NewEdges);
  return Status::success();
}

int AssayGraph::numNodes() const {
  return static_cast<int>(std::count_if(
      Nodes.begin(), Nodes.end(), [](const Node &N) { return !N.Dead; }));
}

int AssayGraph::numEdges() const {
  return static_cast<int>(std::count_if(
      Edges.begin(), Edges.end(), [](const Edge &E) { return !E.Dead; }));
}

std::vector<NodeId> AssayGraph::liveNodes() const {
  std::vector<NodeId> Result;
  for (NodeId N = 0; N < numNodeSlots(); ++N)
    if (!Nodes[N].Dead)
      Result.push_back(N);
  return Result;
}

std::vector<EdgeId> AssayGraph::liveEdges() const {
  std::vector<EdgeId> Result;
  for (EdgeId E = 0; E < numEdgeSlots(); ++E)
    if (!Edges[E].Dead)
      Result.push_back(E);
  return Result;
}

std::vector<NodeId> AssayGraph::topologicalOrder() const {
  // Kahn's algorithm with a min-heap so the smallest-id ready node comes
  // first: on frontend-built graphs (where creation order is already
  // topological) this reproduces program order, which keeps generated AIS
  // in the paper's statement order and minimizes value lifetimes.
  std::vector<int> Pending(numNodeSlots(), 0);
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<NodeId>>
      Ready;
  for (NodeId N = 0; N < numNodeSlots(); ++N) {
    if (Nodes[N].Dead)
      continue;
    Pending[N] = static_cast<int>(inEdges(N).size());
    if (Pending[N] == 0)
      Ready.push(N);
  }
  std::vector<NodeId> Order;
  while (!Ready.empty()) {
    NodeId N = Ready.top();
    Ready.pop();
    Order.push_back(N);
    for (EdgeId E : outEdges(N))
      if (--Pending[Edges[E].Dst] == 0)
        Ready.push(Edges[E].Dst);
  }
  assert(static_cast<int>(Order.size()) == numNodes() &&
         "cycle in assay graph (run verify())");
  return Order;
}

std::vector<NodeId> AssayGraph::backwardSlice(NodeId Target) const {
  std::vector<char> Seen(numNodeSlots(), 0);
  std::vector<NodeId> Stack{Target};
  Seen[Target] = 1;
  std::vector<NodeId> Slice;
  while (!Stack.empty()) {
    NodeId N = Stack.back();
    Stack.pop_back();
    Slice.push_back(N);
    for (EdgeId E : inEdges(N)) {
      NodeId Src = Edges[E].Src;
      if (!Seen[Src]) {
        Seen[Src] = 1;
        Stack.push_back(Src);
      }
    }
  }
  std::sort(Slice.begin(), Slice.end());
  return Slice;
}

Status AssayGraph::verify() const {
  // First, so the walks below can trust every listed id.
  if (Status S = checkAdjacency(Nodes, Edges); !S.ok())
    return S;

  // Acyclicity via Kahn's algorithm.
  {
    std::vector<int> Pending(numNodeSlots(), 0);
    std::vector<NodeId> Ready;
    int Live = 0;
    for (NodeId N = 0; N < numNodeSlots(); ++N) {
      if (Nodes[N].Dead)
        continue;
      ++Live;
      Pending[N] = static_cast<int>(inEdges(N).size());
      if (Pending[N] == 0)
        Ready.push_back(N);
    }
    size_t Done = 0;
    for (size_t I = 0; I < Ready.size(); ++I, ++Done)
      for (EdgeId E : outEdges(Ready[I]))
        if (--Pending[Edges[E].Dst] == 0)
          Ready.push_back(Edges[E].Dst);
    if (static_cast<int>(Done) != Live)
      return Status::error("assay graph contains a cycle");
  }

  for (EdgeId E : liveEdges()) {
    const Edge &Ed = Edges[E];
    if (Ed.Fraction <= Rational(0) || Ed.Fraction > Rational(1))
      return Status::error(
          format("edge %d fraction %s outside (0, 1]", E,
                 Ed.Fraction.str().c_str()));
  }

  for (NodeId N : liveNodes()) {
    const Node &Nd = Nodes[N];
    const std::vector<EdgeId> &In = inEdges(N);
    switch (Nd.Kind) {
    case NodeKind::Input:
      if (!In.empty())
        return Status::error(
            format("input node '%s' has in-edges", Nd.Name.c_str()));
      break;
    case NodeKind::Mix: {
      if (In.size() < 2)
        return Status::error(
            format("mix node '%s' has fewer than two sources",
                   Nd.Name.c_str()));
      Rational Sum(0);
      for (EdgeId E : In)
        Sum += Edges[E].Fraction;
      if (Sum != Rational(1))
        return Status::error(
            format("mix node '%s' in-edge fractions sum to %s, not 1",
                   Nd.Name.c_str(), Sum.str().c_str()));
      break;
    }
    case NodeKind::Incubate:
    case NodeKind::Sense:
    case NodeKind::Separate:
    case NodeKind::Output:
    case NodeKind::Excess:
      if (In.size() != 1)
        return Status::error(
            format("%s node '%s' must have exactly one in-edge",
                   nodeKindName(Nd.Kind), Nd.Name.c_str()));
      if (Edges[In[0]].Fraction != Rational(1))
        return Status::error(
            format("%s node '%s' in-edge fraction must be 1",
                   nodeKindName(Nd.Kind), Nd.Name.c_str()));
      break;
    }
    if (Nd.OutFraction <= Rational(0) || Nd.OutFraction > Rational(1))
      return Status::error(
          format("node '%s' output fraction %s outside (0, 1]",
                 Nd.Name.c_str(), Nd.OutFraction.str().c_str()));
    if (Nd.Kind == NodeKind::Excess) {
      if (Nd.ExcessShare <= Rational(0) || Nd.ExcessShare >= Rational(1))
        return Status::error(
            format("excess node '%s' share %s outside (0, 1)",
                   Nd.Name.c_str(), Nd.ExcessShare.str().c_str()));
      if (!outEdges(N).empty())
        return Status::error(
            format("excess node '%s' must be a leaf", Nd.Name.c_str()));
    }
  }
  return Status::success();
}

std::string AssayGraph::str() const {
  std::string Out;
  for (NodeId N : liveNodes()) {
    const Node &Nd = Nodes[N];
    Out += format("n%-3d %-9s %s", N, nodeKindName(Nd.Kind), Nd.Name.c_str());
    if (Nd.UnknownVolume)
      Out += " [unknown-volume]";
    if (Nd.OutFraction != Rational(1))
      Out += format(" [yield %s]", Nd.OutFraction.str().c_str());
    const std::vector<EdgeId> &In = inEdges(N);
    if (!In.empty()) {
      Out += "  <- ";
      for (size_t I = 0; I < In.size(); ++I) {
        const Edge &E = Edges[In[I]];
        if (I != 0)
          Out += ", ";
        Out += format("n%d(%s)", E.Src, E.Fraction.str().c_str());
      }
    }
    Out += "\n";
  }
  return Out;
}

std::string AssayGraph::dot() const {
  std::string Out = "digraph assay {\n  rankdir=TB;\n";
  for (NodeId N : liveNodes()) {
    const Node &Nd = Nodes[N];
    const char *Shape = Nd.Kind == NodeKind::Input      ? "invhouse"
                        : Nd.Kind == NodeKind::Excess   ? "octagon"
                        : Nd.Kind == NodeKind::Separate ? "trapezium"
                                                        : "box";
    Out += format("  n%d [label=\"%s\\n%s\", shape=%s];\n", N,
                  Nd.Name.c_str(), nodeKindName(Nd.Kind), Shape);
  }
  for (EdgeId E : liveEdges()) {
    const Edge &Ed = Edges[E];
    Out += format("  n%d -> n%d [label=\"%s\"];\n", Ed.Src, Ed.Dst,
                  Ed.Fraction.str().c_str());
  }
  Out += "}\n";
  return Out;
}
