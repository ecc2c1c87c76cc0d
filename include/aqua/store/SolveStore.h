//===- aqua/store/SolveStore.h - Persistent content-addressed store -*- C++-*-===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent, content-addressed store of solve results: canonical
/// `ir::Fingerprint` -> opaque payload bytes (the versioned binary
/// `CompileArtifact` encoding of service/ArtifactCodec.h), shared by any
/// number of processes on one directory. The compile service layers its
/// sharded LRU over this as a write-through L2, which is what makes a
/// restarted `aquad` serve yesterday's solves from disk instead of the LP.
///
/// ## On-disk format
///
/// A store directory holds append-only *segment* files (`seg-<token>.aqs`)
/// plus a `LOCK` file. A segment is an 8-byte magic header followed by
/// records:
///
///   u32 magic | u32 payload_len | u64 key_hi | u64 key_lo
///   | payload bytes | u32 crc32c(header-after-magic + payload)
///
/// Records are immutable once written; a key written twice (two processes
/// racing on the same miss) is resolved last-writer-wins at index time --
/// the pipeline is deterministic, so duplicate payloads are identical.
///
/// ## Side-car indexes and the zero-copy read path
///
/// A segment with no live writer is *sealed*: by the locking protocol
/// below, a segment whose writer lock can be taken by anyone else will
/// never grow again (writers only ever append to segments they created).
/// Sealing a segment persists a side-car hash index (`seg-<token>.idx`):
/// a versioned, CRC-protected open-addressing table of
/// fingerprint -> (record offset, payload length) built at seal or
/// compaction time and renamed into place atomically. On open, a sealed
/// segment and its index are memory-mapped read-only, so a cross-process
/// hit costs one open-addressing probe plus a checksum pass over the
/// mapped record -- no directory scan, no per-read open/pread, and no
/// heap copy of the payload (`getView` hands out an `ArtifactView` that
/// aliases the mapping).
///
/// The index is an *accelerator, never an authority*: a missing, torn,
/// truncated, bit-flipped, or version-skewed `.idx` fails validation
/// (size/magic/version/CRC) and the store falls back to today's full
/// segment scan, serving bit-identical payloads, then rebuilds the index
/// if the segment is quiescent. Mappings of deleted files stay valid on
/// POSIX, so a compactor removing a sealed segment never invalidates a
/// view a reader still holds.
///
/// ## Recovery invariants
///
/// * Appends are crash-safe by construction: a record is visible iff its
///   checksum verifies. On open, each segment is scanned and indexed up to
///   its *longest valid prefix*; a torn tail (record extends past
///   end-of-file) is truncated away logically and retried on the next
///   refresh (a live writer's in-flight append looks the same), while a
///   checksum/magic mismatch on a complete record freezes the segment at
///   the last good record.
/// * `get` re-verifies the record checksum on every read; a corrupt
///   artifact is *never* returned -- it demotes to a miss.
/// * Compaction writes the surviving records to a temp file and renames it
///   into place before deleting inputs, so a crash at any point leaves
///   either the old segments, both (duplicate keys -- benign), or the new
///   one. Stale temp files are removed on open.
///
/// ## Locking protocol (advisory)
///
/// Every writer holds an exclusive `flock` on its own segment for the life
/// of its handle. Compaction takes the exclusive lock on `LOCK` (two
/// compactors never run at once) and only rewrites segments whose lock it
/// can take -- i.e. segments with no live writer. Readers take no locks:
/// checksums, append-only segments, and atomic renames make reads safe
/// against concurrent writers and compactors.
///
//===----------------------------------------------------------------------===//

#ifndef AQUA_STORE_SOLVESTORE_H
#define AQUA_STORE_SOLVESTORE_H

#include "aqua/ir/Canonical.h"
#include "aqua/store/Env.h"
#include "aqua/support/Error.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace aqua::store {

/// Store tuning.
struct StoreOptions {
  /// fsync after every append. Off by default: the cache-warming use case
  /// tolerates losing the last records on power failure, never corruption.
  bool SyncEveryAppend = false;
  /// On an index miss, rescan the directory for segments (and segment
  /// tails) other processes appended since the last look before reporting
  /// the miss. One listDir + one stat per segment; misses are rare once
  /// warm.
  bool RefreshOnMiss = true;
  /// Records larger than this are rejected on put and treated as corrupt
  /// on scan (a sanity bound, not a tuning knob).
  std::uint32_t MaxPayloadBytes = 256u << 20;
  /// Consult side-car `.idx` files and serve sealed segments through their
  /// memory-mapped index. Off forces the scan path everywhere (the
  /// fallback the fault tests compare against).
  bool UseIndexes = true;
  /// Build (and persist) side-car indexes when sealing or compacting
  /// segments. Off leaves existing indexes untouched but writes none.
  bool BuildIndexes = true;
};

/// Monotone counters plus a snapshot of index size.
struct StoreStats {
  std::uint64_t Appends = 0;
  std::uint64_t AppendedBytes = 0;
  std::uint64_t Gets = 0;
  std::uint64_t Hits = 0;
  /// Complete records whose checksum or magic failed verification (at scan
  /// or at read); such records are never served.
  std::uint64_t CorruptRecords = 0;
  /// Scans that stopped at an incomplete tail record.
  std::uint64_t TornTails = 0;
  std::uint64_t Refreshes = 0;
  /// RefreshOnMiss passes short-circuited by an unchanged directory
  /// generation (no listDir, no per-segment stat).
  std::uint64_t RefreshSkips = 0;
  std::uint64_t Compactions = 0;
  std::uint64_t SegmentsCompacted = 0;
  /// Reads served through a sealed segment's mmap'd side-car index.
  std::uint64_t IndexProbes = 0;
  /// Invalid side-car indexes (truncated/corrupt/version-skewed) that
  /// demoted the segment to the full-scan path.
  std::uint64_t IndexFallbackScans = 0;
  /// Side-car indexes written (at seal or compaction).
  std::uint64_t IndexBuilds = 0;
  /// Valid side-car indexes adopted (mapped) from disk.
  std::uint64_t IndexLoads = 0;
  /// Distinct keys currently indexed.
  std::size_t Keys = 0;
  /// Segment files currently known.
  std::size_t Segments = 0;
  /// Segments currently served through a mapped side-car index.
  std::size_t SealedSegments = 0;
};

/// A zero-copy handle to one record's payload: a string_view aliasing
/// either a memory-mapped sealed segment or a heap buffer, kept alive by
/// \c Keep. Valid for as long as the view object (or a copy of its
/// keepalive) lives, even across compaction deleting the segment file.
struct ArtifactView {
  std::string_view Payload;
  std::shared_ptr<const void> Keep;

  explicit operator bool() const { return Keep != nullptr; }
};

/// The persistent fingerprint -> payload store. Thread-safe; every public
/// method may be called from any thread.
class SolveStore {
public:
  /// Opens (creating if needed) the store in directory \p Dir. Scans and
  /// indexes existing segments, removing stale compaction temp files.
  static Expected<std::unique_ptr<SolveStore>>
  open(const std::string &Dir, const StoreOptions &Opts = {},
       Env &E = Env::real());

  ~SolveStore();

  SolveStore(const SolveStore &) = delete;
  SolveStore &operator=(const SolveStore &) = delete;

  /// Appends \p Payload under \p Key. An existing entry is superseded
  /// (last-writer-wins); the old record becomes garbage for compaction.
  Status put(const ir::Fingerprint &Key, std::string_view Payload);

  /// Reads the payload for \p Key into \p Payload, re-verifying the record
  /// checksum. Returns false on miss *and* on verification failure (a
  /// corrupt record is never served).
  bool get(const ir::Fingerprint &Key, std::string &Payload);

  /// Zero-copy variant of get(): on a hit \p View aliases the payload
  /// bytes (a sealed segment's mapping when possible, a heap buffer
  /// otherwise) without copying them out. Same verification contract as
  /// get().
  bool getView(const ir::Fingerprint &Key, ArtifactView &View);

  bool contains(const ir::Fingerprint &Key);

  /// Incrementally rescans the directory: new segments, and new bytes at
  /// the tail of known segments. Returns the number of records indexed.
  std::uint64_t refresh();

  /// Rewrites all quiescent segments (no live writer) into one compacted
  /// segment, dropping superseded records, then deletes the inputs.
  /// Returns success with nothing to do when another process holds the
  /// compaction lock, or when the quiescent segments are already one
  /// segment with no superseded record. After such a no-op pass, further
  /// calls return without taking the store lock until a put or a change
  /// to the directory, so a caller may compact in a loop without locking
  /// readers and writers out.
  Status compact();

  /// Every currently indexed key (unordered).
  std::vector<ir::Fingerprint> keys() const;

  StoreStats stats() const;

  const std::string &dir() const { return Dir; }

private:
  struct RecordLoc {
    int Segment = -1;
    std::uint64_t Offset = 0; ///< Of the record header, within the segment.
    std::uint32_t PayloadLen = 0;
  };
  struct Segment {
    std::string Name;
    /// Bytes scanned and indexed so far (header included).
    std::uint64_t ValidBytes = 0;
    /// Scan hit a complete-but-corrupt record; never scan past it again.
    bool Frozen = false;
    /// Our own active segment's append handle (holds its writer lock).
    std::unique_ptr<WritableFile> Handle;
    /// Sealed: served through the mapped side-car index below instead of
    /// the in-memory Index. A sealed segment never grows (its writer lock
    /// was taken, and writers only append to segments they created).
    bool Sealed = false;
    /// Mapped segment bytes (sealed segments only).
    std::shared_ptr<const MappedRegion> Data;
    /// Mapped side-car index file (sealed segments only).
    std::shared_ptr<const MappedRegion> IdxMap;
    /// Parsed from the index header: slot table geometry.
    std::uint64_t IdxSlotCount = 0;
    const char *IdxSlots = nullptr;
  };
  /// One side-car index entry (also the build-time carrier).
  struct IdxEntry {
    std::uint64_t Hi = 0, Lo = 0, Offset = 0;
    std::uint32_t PayloadLen = 0;
  };

  SolveStore(std::string Dir, const StoreOptions &Opts, Env &E);

  std::string path(const std::string &Name) const { return Dir + "/" + Name; }
  Status openDirLocked();
  /// Scans \p Seg from its ValidBytes watermark, indexing every record
  /// whose checksum verifies. Returns records indexed.
  std::uint64_t scanSegmentLocked(int SegIndex);
  std::uint64_t refreshLocked();
  /// The RefreshOnMiss entry: short-circuits to re-scanning only unsealed
  /// foreign segments when the directory generation is unchanged.
  std::uint64_t refreshOnMissLocked();
  Status ensureWriterLocked();

  /// Tries to adopt an on-disk side-car index for \p SegIndex (validate,
  /// mmap, mark sealed). Returns false when there is none or it fails
  /// validation (the caller falls back to scanning).
  bool loadIndexLocked(int SegIndex);
  /// Writes + maps the side-car index for fully scanned, quiescent
  /// segment \p SegIndex, then drops its entries from the in-memory
  /// Index (the mapped table supersedes them).
  void buildIndexLocked(int SegIndex);
  /// Whether compacting \p SegIndex alone would rewrite it byte for byte:
  /// it is sealed and holds no superseded or duplicate record.
  bool isCompactLocked(int SegIndex) const;
  /// Seals \p SegIndex with a prebuilt entry list (compaction output).
  void sealWithEntriesLocked(int SegIndex, const std::vector<IdxEntry> &Entries);
  /// Probes sealed segments' mapped indexes for \p Key; fills \p View on
  /// a verified hit.
  bool probeSealedLocked(const ir::Fingerprint &Key, ArtifactView &View);
  /// Enumerates every valid record of a sealed segment (for keys() and
  /// compaction).
  void sealedEntriesLocked(int SegIndex, std::vector<IdxEntry> &Out) const;
  /// Shared get/getView body; Mutex must be held.
  bool getLocked(const ir::Fingerprint &Key, ArtifactView &View);
  /// Writes the side-car file for \p SegIndex from \p Entries (temp +
  /// rename) and adopts it (maps, marks sealed, drops superseded
  /// in-memory entries).
  void writeAndAdoptIndexLocked(int SegIndex,
                                const std::vector<IdxEntry> &Entries);
  /// Serializes the side-car bytes for \p Entries covering \p Covered
  /// segment bytes.
  static std::string encodeIndexBytes(const std::vector<IdxEntry> &Entries,
                                      std::uint64_t Covered);
  /// Walks a complete segment image, verifying every record; false when
  /// any byte fails validation (such a segment is never sealed).
  static bool parseSegmentRecords(std::string_view Bytes,
                                  std::uint32_t MaxPayloadBytes,
                                  std::vector<IdxEntry> &Out);

  const std::string Dir;
  const StoreOptions Opts;
  Env &E;

  mutable std::mutex Mutex;
  std::vector<Segment> Segments;
  std::unordered_map<ir::Fingerprint, RecordLoc, ir::FingerprintHash> Index;
  /// Index into Segments of our active writer segment; -1 until first put.
  int WriterSegment = -1;
  /// Directory generation observed before the last full refresh; nullopt
  /// until a refresh ran (or when the Env cannot track generations).
  bool HaveDirGeneration = false;
  std::uint64_t LastDirGeneration = 0;

  /// Calls to put, counted under Mutex and read without it.
  std::atomic<std::uint64_t> Puts{0};
  /// Left by the last compaction pass that had nothing to do and saw no
  /// live writer: Puts + 1 at that pass (0: none since the last real
  /// pass) and the directory generation read before it.
  std::atomic<std::uint64_t> QuietPuts{0}, QuietDirGeneration{0};

  std::uint64_t Appends = 0, AppendedBytes = 0, Gets = 0, Hits = 0;
  std::uint64_t CorruptRecords = 0, TornTails = 0, Refreshes = 0;
  std::uint64_t RefreshSkips = 0;
  std::uint64_t Compactions = 0, SegmentsCompacted = 0;
  std::uint64_t IndexProbes = 0, IndexFallbackScans = 0;
  std::uint64_t IndexBuilds = 0, IndexLoads = 0;
};

} // namespace aqua::store

#endif // AQUA_STORE_SOLVESTORE_H
