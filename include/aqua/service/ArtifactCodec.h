//===- aqua/service/ArtifactCodec.h - Binary artifact codec ------*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned binary codec between `CompileArtifact` and the payload
/// bytes the persistent solve store (aqua/store) holds: everything the
/// compile pipeline produced for one fingerprint -- the (possibly
/// transformed) managed graph with its exact slot layout, the RVol and IVol
/// assignments, and the generated AIS program -- flattened to a
/// self-delimiting little-endian byte string.
///
/// The encoding is *bit-faithful*: doubles are stored as their IEEE-754 bit
/// patterns, rationals as exact numerator/denominator pairs, and the assay
/// graph slot for slot (dead slots, adjacency-list order, and all) so
/// `encode(decode(encode(A))) == encode(A)` and a reloaded artifact
/// simulates identically to the in-memory one. The `store` oracle in
/// aqua/check holds the codec to exactly that property on every generated
/// program.
///
/// Decoding is one pass that writes the final objects: words and numeric
/// arrays are loaded with a copy each, and the graph's node and edge slots
/// are filled in place and adopted whole (ir::AssayGraph::adoptSlots), not
/// rebuilt through the graph's mutators. It is defensive: it never trusts
/// the input (the store's checksums catch disk rot, but a version skew or a
/// truncated payload must fail cleanly, not crash), so every length and
/// every graph/program index is bounds-checked before use, a graph whose
/// adjacency lists disagree with its edge table is rejected, and every
/// stored rational comes back reduced.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_SERVICE_ARTIFACTCODEC_H
#define AQUA_SERVICE_ARTIFACTCODEC_H

#include "aqua/service/SolveCache.h"
#include "aqua/support/Error.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace aqua::service {

/// Current payload format version. Bump on any layout change; decode
/// rejects versions it does not know.
///
/// v1: base layout.
/// v2: appends the RVol LP warm-start block (shape hash + optimal basis)
///     after the AIS program. v1 payloads still decode -- they simply
///     carry no basis, so a donor lookup against them degrades to a cold
///     solve, never an error.
inline constexpr std::uint32_t ArtifactCodecVersion = 2;

/// Serializes \p Artifact to the versioned binary payload.
std::string encodeArtifact(const CompileArtifact &Artifact);

/// Parses a payload produced by (any supported version of) encodeArtifact.
/// Fails cleanly on truncation, version skew, or out-of-range indices.
Expected<CompileArtifact> decodeArtifact(std::string_view Payload);

} // namespace aqua::service

#endif // AQUA_SERVICE_ARTIFACTCODEC_H
