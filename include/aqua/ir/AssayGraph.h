//===- aqua/ir/AssayGraph.h - Assay DAG intermediate form --------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Assay DAG representation of Section 3.1 of the paper.
///
/// Nodes represent operations (typically volume-aggregating operations such
/// as mixes) and edges represent true dependences among operations. Each
/// edge is annotated with the exact fraction of the consumer's total input
/// contributed by the producer: `MIX A AND B IN RATIOS 1:4` yields edges
/// with fractions 1/5 and 4/5. Input nodes have no in-edges; leaf nodes
/// (no out-edges) are the assay's outputs for volume-management purposes.
///
/// The graph is mutable because the cascading and static-replication
/// extensions (Section 3.4) are DAG-to-DAG transformations; removal is by
/// marking so that node and edge ids stay stable across transforms.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_IR_ASSAYGRAPH_H
#define AQUA_IR_ASSAYGRAPH_H

#include "aqua/support/Error.h"
#include "aqua/support/Rational.h"

#include <string>
#include <vector>

namespace aqua::ir {

/// Index of a node within an AssayGraph.
using NodeId = int;
/// Index of an edge within an AssayGraph.
using EdgeId = int;

/// Sentinel for "no node".
inline constexpr NodeId InvalidNode = -1;

/// The operation a node performs.
enum class NodeKind {
  Input,    ///< Fluid drawn from an input port; no in-edges.
  Mix,      ///< Volume-aggregating mix of 2+ source fluids.
  Incubate, ///< Heat one fluid for a duration; volume-preserving.
  Sense,    ///< Optical/fluorescence read; terminal use of its input.
  Separate, ///< Separation; output is a fraction of the input, possibly
            ///< unknown until run time; the complement is waste.
  Output,   ///< Fluid delivered to an output port.
  Excess,   ///< Deliberately discarded fluid (created by cascading).
};

/// Returns a short lower-case name for \p K.
const char *nodeKindName(NodeKind K);

/// Operation parameters carried through to code generation and simulation.
struct OpParams {
  /// Duration in seconds (mix/incubate/separate time).
  double Seconds = 0.0;
  /// Temperature in Celsius (incubate).
  double TempC = 0.0;
  /// Flavor tag, e.g. "AF"/"LC"/"CE" for separations, "OD"/"FL" for senses.
  std::string Flavor;
  /// Separations: pre-loaded affinity/chromatography matrix fluid name.
  std::string Matrix;
  /// Separations: pusher/carrier buffer fluid name.
  std::string Pusher;
};

/// One operation in the assay DAG.
struct Node {
  NodeKind Kind = NodeKind::Mix;
  /// Name of the fluid this node produces (or consumes, for Sense/Output).
  std::string Name;
  /// Output volume relative to total input volume (constraint class 5 in
  /// Figure 3). 1 for ordinary operations; < 1 for separations with a
  /// statically-known yield.
  Rational OutFraction = Rational(1);
  /// True for operations whose output volume is unknown until run time and
  /// must be measured (Section 3.5), e.g. separate-by-size.
  bool UnknownVolume = false;
  /// True for fluids that must not be produced in excess (disables
  /// cascading through this node; Section 3.4.1).
  bool NoExcess = false;
  /// For Excess nodes only: the fraction of the *source* node's output that
  /// is deliberately discarded (e.g. 9/10 for a 1:9 cascade stage). Known a
  /// priori, which is what lets DAGSolve handle cascades (Section 3.4.1).
  Rational ExcessShare = Rational(0);
  OpParams Params;
  bool Dead = false;
  /// The adjacency invariant, kept by every AssayGraph mutator and checked
  /// by AssayGraph::verify() and the artifact decoder: In holds exactly
  /// the live edges ending here and Out exactly the live edges starting
  /// here, each once, in the order they were attached (addEdge, or
  /// setEdgeSource for a rewired source). A dead node holds neither.
  std::vector<EdgeId> In;
  std::vector<EdgeId> Out;
};

/// A true-dependence edge annotated with the consumer-input fraction.
struct Edge {
  NodeId Src = InvalidNode;
  NodeId Dst = InvalidNode;
  /// Fraction of Dst's total input contributed by Src; in (0, 1].
  Rational Fraction = Rational(1);
  bool Dead = false;
};

/// A source fluid and its relative part in a mix, e.g. {A, 1} and {B, 4}
/// for `MIX A AND B IN RATIOS 1:4`.
struct MixPart {
  NodeId Source;
  std::int64_t Parts;
};

/// The assay DAG.
class AssayGraph {
public:
  /// Adds a node of \p Kind named \p Name and returns its id.
  NodeId addNode(NodeKind Kind, std::string Name);

  /// Adds an edge Src -> Dst carrying \p Fraction of Dst's input.
  EdgeId addEdge(NodeId Src, NodeId Dst, Rational Fraction);

  /// Convenience: adds an Input node.
  NodeId addInput(std::string Name) {
    return addNode(NodeKind::Input, std::move(Name));
  }

  /// Convenience: adds a Mix node over \p Parts (relative integer parts,
  /// converted to exact fractions) mixing for \p Seconds.
  NodeId addMix(std::string Name, const std::vector<MixPart> &Parts,
                double Seconds = 0.0);

  /// Convenience: adds a single-input node of \p Kind fed by \p Src.
  NodeId addUnary(NodeKind Kind, std::string Name, NodeId Src);

  /// Marks \p E dead and unlinks it from its endpoints' adjacency lists.
  void removeEdge(EdgeId E);

  /// Marks \p N and all its incident edges dead.
  void removeNode(NodeId N);

  /// Redirects the source of \p E to \p NewSrc.
  void setEdgeSource(EdgeId E, NodeId NewSrc);

  /// Replaces every slot with \p NewNodes and \p NewEdges as given: dead
  /// flags and adjacency order included, nothing rebuilt. Fails, leaving
  /// the graph as it was, unless every edge endpoint names a node slot and
  /// the slots hold the adjacency invariant (see Node::In).
  Status adoptSlots(std::vector<Node> NewNodes, std::vector<Edge> NewEdges);

  int numNodeSlots() const { return static_cast<int>(Nodes.size()); }
  int numEdgeSlots() const { return static_cast<int>(Edges.size()); }

  /// Counts live nodes.
  int numNodes() const;
  /// Counts live edges.
  int numEdges() const;

  const Node &node(NodeId N) const { return Nodes[N]; }
  Node &node(NodeId N) { return Nodes[N]; }
  const Edge &edge(EdgeId E) const { return Edges[E]; }
  Edge &edge(EdgeId E) { return Edges[E]; }

  /// Live node ids in creation order.
  std::vector<NodeId> liveNodes() const;
  /// Live edge ids in creation order.
  std::vector<EdgeId> liveEdges() const;

  /// Live in-edges of \p N in attachment order. A view of Node::In, not a
  /// copy: any mutator invalidates it (addNode reallocates the node table;
  /// addEdge, removeEdge, setEdgeSource and removeNode rewrite the lists),
  /// so copy it before rewiring the graph while walking it.
  const std::vector<EdgeId> &inEdges(NodeId N) const { return Nodes[N].In; }
  /// Live out-edges of \p N in attachment order; a view of Node::Out with
  /// the same caveat as inEdges().
  const std::vector<EdgeId> &outEdges(NodeId N) const { return Nodes[N].Out; }

  /// True if \p N has no live out-edges (an output/leaf for DAGSolve).
  bool isLeaf(NodeId N) const { return outEdges(N).empty(); }

  /// Live nodes in a topological order (sources first). The graph must be
  /// acyclic (verify() checks this).
  std::vector<NodeId> topologicalOrder() const;

  /// All live nodes from which \p N is reachable, including \p N itself --
  /// the backward slice used by regeneration and static replication.
  std::vector<NodeId> backwardSlice(NodeId N) const;

  /// Structural invariants: the adjacency invariant (see Node::In),
  /// acyclicity, fraction ranges, in-edge fractions of every non-input node
  /// summing to 1, inputs having no in-edges.
  Status verify() const;

  /// Renders a readable listing of nodes and edges.
  std::string str() const;

  /// Renders Graphviz DOT.
  std::string dot() const;

private:
  std::vector<Node> Nodes;
  std::vector<Edge> Edges;
};

} // namespace aqua::ir

#endif // AQUA_IR_ASSAYGRAPH_H
