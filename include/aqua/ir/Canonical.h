//===- aqua/ir/Canonical.h - Canonical form & fingerprinting -----*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonicalization and structural fingerprinting of assay DAGs.
///
/// Two `AssayGraph`s that describe the same assay can differ in incidental
/// ways: the order nodes and edges were inserted, and dead slots left
/// behind by DAG-to-DAG transforms. The compilation service keys its solve
/// cache on *structure*, so it needs a hash that is invariant under those
/// accidents while remaining sensitive to everything volume management can
/// observe -- node kinds and names, mix fractions, yield fractions,
/// unknown-volume and no-excess flags, and operation parameters.
///
/// `canonicalize()` computes a canonical rank for every live node and edge
/// by Weisfeiler--Lehman-style neighborhood refinement: each node starts
/// from a hash of its local signature and repeatedly absorbs the sorted
/// hashes of its fraction-annotated in- and out-neighborhoods. After
/// O(log N) rounds the hashes separate every structurally distinguishable
/// node; nodes that still collide are (in practice) automorphic, so any
/// order among them yields an isomorphic canonical graph and the same
/// fingerprint.
///
/// The 128-bit `Fingerprint` is a hash of the sorted multiset of final
/// node hashes and edge hashes -- by construction independent of insertion
/// order and of dead-slot layout.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_IR_CANONICAL_H
#define AQUA_IR_CANONICAL_H

#include "aqua/ir/AssayGraph.h"
#include "aqua/support/Rational.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace aqua::ir {

/// A 128-bit structural hash.
struct Fingerprint {
  std::uint64_t Hi = 0;
  std::uint64_t Lo = 0;

  friend bool operator==(const Fingerprint &A, const Fingerprint &B) {
    return A.Hi == B.Hi && A.Lo == B.Lo;
  }
  friend bool operator!=(const Fingerprint &A, const Fingerprint &B) {
    return !(A == B);
  }
  friend bool operator<(const Fingerprint &A, const Fingerprint &B) {
    return A.Hi != B.Hi ? A.Hi < B.Hi : A.Lo < B.Lo;
  }

  /// 32 lower-case hex digits.
  std::string str() const;
};

/// Hash functor for unordered containers keyed on Fingerprint. The key is
/// already uniformly mixed; this folds its two halves into one word.
struct FingerprintHash {
  std::size_t operator()(const Fingerprint &F) const {
    return static_cast<std::size_t>(F.Hi ^ (F.Lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Streaming 128-bit hasher (two independently-seeded 64-bit lanes with a
/// splitmix-style avalanche per absorbed word). Not cryptographic; meant
/// for memoization keys where accidental collisions must be negligible.
class FingerprintHasher {
public:
  FingerprintHasher();

  FingerprintHasher &add(std::uint64_t V);
  FingerprintHasher &add(std::int64_t V) {
    return add(static_cast<std::uint64_t>(V));
  }
  FingerprintHasher &add(int V) { return add(static_cast<std::int64_t>(V)); }
  FingerprintHasher &add(bool V) { return add(std::uint64_t(V ? 1 : 2)); }
  /// Hashes the exact bit pattern (with -0.0 normalized to 0.0).
  FingerprintHasher &add(double V);
  FingerprintHasher &add(const Rational &V);
  FingerprintHasher &add(std::string_view S);

  Fingerprint finish() const;

private:
  std::uint64_t A, B;
};

/// The canonical form of a graph: a rank for every live slot plus the
/// structural fingerprint.
struct CanonicalForm {
  /// Node slot id -> canonical rank in [0, numNodes); -1 for dead slots.
  std::vector<int> NodeRank;
  /// Edge slot id -> canonical rank in [0, numEdges); -1 for dead slots.
  std::vector<int> EdgeRank;
  /// Final per-slot refinement hashes (0 for dead slots); exposed so
  /// callers can hash auxiliary per-node data (e.g. solver output weights)
  /// insertion-order-independently.
  std::vector<std::uint64_t> NodeHash;
  /// The structural fingerprint of the live graph.
  Fingerprint Hash;
};

/// Computes canonical ranks and the structural fingerprint of \p G's live
/// subgraph. Deterministic; does not modify \p G.
CanonicalForm canonicalize(const AssayGraph &G);

/// Rebuilds \p G's live subgraph with nodes and edges renumbered into
/// canonical rank order and dead slots dropped. Two structurally equal
/// graphs rebuild into byte-identical listings (`str()`).
AssayGraph buildCanonicalGraph(const AssayGraph &G, const CanonicalForm &C);

/// Convenience: `canonicalize(G).Hash`.
Fingerprint fingerprintGraph(const AssayGraph &G);

} // namespace aqua::ir

#endif // AQUA_IR_CANONICAL_H
