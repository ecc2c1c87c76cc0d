//===- SolveStore.cpp - Persistent content-addressed solve store ----------------===//
//
// Part of AquaVol. MIT license.
//
//===----------------------------------------------------------------------===//

#include "aqua/store/SolveStore.h"

#include "aqua/obs/Log.h"
#include "aqua/obs/Metrics.h"
#include "aqua/obs/Trace.h"
#include "aqua/support/StringUtils.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <unordered_set>

using namespace aqua;
using namespace aqua::store;

namespace {

/// 8-byte segment-file magic (format version in the last two characters).
constexpr char SegmentMagic[8] = {'A', 'Q', 'S', 'T', 'S', 'G', '0', '1'};
/// Per-record magic ("ARC1", little-endian).
constexpr std::uint32_t RecordMagic = 0x31435241u;
constexpr std::uint64_t SegmentHeaderBytes = 8;
constexpr std::uint64_t RecordHeaderBytes = 24;
constexpr std::uint64_t RecordTrailerBytes = 4;

/// Side-car index format: an 8-byte magic, a fixed header, a power-of-two
/// open-addressing slot table, and a trailing CRC-32C over everything
/// after the magic. All integers little-endian.
///
///   u8[8] magic "AQIXD001" | u32 version | u32 reserved
///   | u64 slot_count | u64 entry_count | u64 covered_bytes
///   | slot_count x { u64 key_hi | u64 key_lo | u64 offset | u32 len
///                    | u32 pad }
///   | u32 crc32c
///
/// An empty slot holds offset == ~0. `covered_bytes` must equal the
/// sealed segment's exact file size; any mismatch marks the index stale.
constexpr char IdxMagic[8] = {'A', 'Q', 'I', 'X', 'D', '0', '0', '1'};
constexpr std::uint32_t IdxVersion = 1;
constexpr std::uint64_t IdxHeaderBytes = 40;
constexpr std::uint64_t IdxSlotBytes = 32;
constexpr std::uint64_t IdxTrailerBytes = 4;
constexpr std::uint64_t IdxEmptySlot = ~std::uint64_t{0};

std::uint64_t slotHash(std::uint64_t Hi, std::uint64_t Lo) {
  return Hi ^ (Lo * 0x9e3779b97f4a7c15ULL);
}

/// CRC-32C (Castagnoli), reflected polynomial 0x82F63B78; table-driven.
std::uint32_t crc32c(const void *Data, std::size_t Len,
                     std::uint32_t Seed = 0) {
  static const auto Table = [] {
    std::array<std::uint32_t, 256> T{};
    for (std::uint32_t I = 0; I < 256; ++I) {
      std::uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0x82F63B78u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  std::uint32_t Crc = ~Seed;
  const auto *P = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I < Len; ++I)
    Crc = Table[(Crc ^ P[I]) & 0xFF] ^ (Crc >> 8);
  return ~Crc;
}

void putU32(std::string &Out, std::uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

void putU64(std::string &Out, std::uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

std::uint32_t getU32(const char *P) {
  std::uint32_t V = 0;
  for (int I = 3; I >= 0; --I)
    V = (V << 8) | static_cast<unsigned char>(P[I]);
  return V;
}

std::uint64_t getU64(const char *P) {
  std::uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = (V << 8) | static_cast<unsigned char>(P[I]);
  return V;
}

/// Serializes one record (header + payload + crc trailer).
std::string encodeRecord(const ir::Fingerprint &Key, std::string_view Payload) {
  std::string Rec;
  Rec.reserve(RecordHeaderBytes + Payload.size() + RecordTrailerBytes);
  putU32(Rec, RecordMagic);
  putU32(Rec, static_cast<std::uint32_t>(Payload.size()));
  putU64(Rec, Key.Hi);
  putU64(Rec, Key.Lo);
  Rec.append(Payload.data(), Payload.size());
  putU32(Rec, crc32c(Rec.data(), Rec.size()));
  return Rec;
}

bool isSegmentName(const std::string &Name) {
  return Name.size() > 8 && Name.compare(0, 4, "seg-") == 0 &&
         Name.compare(Name.size() - 4, 4, ".aqs") == 0;
}

bool isIdxName(const std::string &Name) {
  return Name.size() > 8 && Name.compare(0, 4, "seg-") == 0 &&
         Name.compare(Name.size() - 4, 4, ".idx") == 0;
}

/// "seg-<token>.aqs" -> "seg-<token>.idx".
std::string idxNameFor(const std::string &SegName) {
  return SegName.substr(0, SegName.size() - 4) + ".idx";
}

bool isTempName(const std::string &Name) {
  return Name.compare(0, 4, "tmp-") == 0;
}

/// Global-registry instruments, resolved once.
struct StoreMetrics {
  obs::Counter &Appends = obs::metrics().counter("store.appends");
  obs::Counter &AppendedBytes = obs::metrics().counter("store.appended_bytes");
  obs::Counter &Gets = obs::metrics().counter("store.gets");
  obs::Counter &Hits = obs::metrics().counter("store.hits");
  obs::Counter &Corrupt = obs::metrics().counter("store.corrupt_records");
  obs::Counter &TornTails = obs::metrics().counter("store.torn_tails");
  obs::Counter &Refreshes = obs::metrics().counter("store.refreshes");
  obs::Counter &RefreshSkips = obs::metrics().counter("store.refresh_skips");
  obs::Counter &Compactions = obs::metrics().counter("store.compactions");
  obs::Counter &IndexProbes = obs::metrics().counter("store.index_probes");
  obs::Counter &IndexFallbacks =
      obs::metrics().counter("store.index_fallback_scans");
  obs::Counter &IndexBuilds = obs::metrics().counter("store.index_builds");
  obs::Counter &IndexLoads = obs::metrics().counter("store.index_loads");
};

StoreMetrics &met() {
  static StoreMetrics M;
  return M;
}

} // namespace

SolveStore::SolveStore(std::string Dir, const StoreOptions &Opts, Env &E)
    : Dir(std::move(Dir)), Opts(Opts), E(E) {}

SolveStore::~SolveStore() = default;

Expected<std::unique_ptr<SolveStore>>
SolveStore::open(const std::string &Dir, const StoreOptions &Opts, Env &E) {
  if (Status S = E.createDir(Dir); !S.ok())
    return S;
  std::unique_ptr<SolveStore> Store(new SolveStore(Dir, Opts, E));
  if (Status S = Store->openDirLocked(); !S.ok())
    return S;
  return Store;
}

Status SolveStore::openDirLocked() {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto Names = E.listDir(Dir);
  if (!Names.ok())
    return Names.takeStatus();
  // Sweep compaction temps left behind by a crashed compactor: a live
  // compactor holds the exclusive lock on its temp, so any temp we can
  // lock is stale.
  for (const std::string &Name : *Names) {
    if (!isTempName(Name))
      continue;
    auto Handle = E.openAppend(path(Name));
    if (!Handle.ok())
      continue;
    bool Acquired = false;
    if ((*Handle)->tryLockExclusive(Acquired).ok() && Acquired) {
      AQUA_LOG_INFO("store", "removing stale compaction temp '%s'",
                    Name.c_str());
      (void)E.removeFile(path(Name));
    }
  }
  refreshLocked();
  // Seal what can be sealed: any fully scanned segment with no live
  // writer gets its side-car index built now, so this and every later
  // process serves it through the mapping instead of re-scanning.
  for (std::size_t I = 0; I < Segments.size(); ++I)
    buildIndexLocked(static_cast<int>(I));
  return Status::success();
}

std::uint64_t SolveStore::scanSegmentLocked(int SegIndex) {
  Segment &Seg = Segments[SegIndex];
  if (Seg.Frozen || Seg.Name.empty())
    return 0;
  const std::string Path = path(Seg.Name);
  auto Size = E.fileSize(Path);
  if (!Size.ok())
    return 0; // Deleted under us (compaction elsewhere); tombstoned later.
  std::uint64_t End = *Size;

  // Consume the segment header first.
  if (Seg.ValidBytes == 0) {
    if (End < SegmentHeaderBytes)
      return 0; // Still being created; retry on a later refresh.
    std::string Head;
    if (!E.read(Path, 0, SegmentHeaderBytes, Head).ok() ||
        Head.size() != SegmentHeaderBytes ||
        std::memcmp(Head.data(), SegmentMagic, sizeof(SegmentMagic)) != 0) {
      AQUA_LOG_WARN("store", "segment '%s' has a bad header; ignoring it",
                    Seg.Name.c_str());
      Seg.Frozen = true;
      ++CorruptRecords;
      met().Corrupt.add();
      return 0;
    }
    Seg.ValidBytes = SegmentHeaderBytes;
  }

  std::uint64_t Indexed = 0;
  while (Seg.ValidBytes < End) {
    std::string Head;
    if (!E.read(Path, Seg.ValidBytes, RecordHeaderBytes, Head).ok())
      break;
    if (Head.size() < RecordHeaderBytes) {
      // Incomplete header at the tail: either a torn append from a crash
      // or a live writer mid-record. Stop here; the watermark stays so a
      // later refresh retries.
      ++TornTails;
      met().TornTails.add();
      break;
    }
    std::uint32_t Magic = getU32(Head.data());
    std::uint32_t PayloadLen = getU32(Head.data() + 4);
    if (Magic != RecordMagic || PayloadLen > Opts.MaxPayloadBytes) {
      // Bytes exist but are not a record: real corruption. Freeze the
      // segment at the longest valid prefix -- nothing past this point can
      // be trusted to be record-aligned.
      Seg.Frozen = true;
      ++CorruptRecords;
      met().Corrupt.add();
      AQUA_LOG_WARN("store",
                    "segment '%s' corrupt at offset %llu; serving the "
                    "%llu-byte valid prefix",
                    Seg.Name.c_str(),
                    static_cast<unsigned long long>(Seg.ValidBytes),
                    static_cast<unsigned long long>(Seg.ValidBytes));
      break;
    }
    std::uint64_t RecordBytes =
        RecordHeaderBytes + PayloadLen + RecordTrailerBytes;
    if (Seg.ValidBytes + RecordBytes > End) {
      ++TornTails;
      met().TornTails.add();
      break;
    }
    std::string Rest;
    if (!E.read(Path, Seg.ValidBytes + RecordHeaderBytes,
                PayloadLen + RecordTrailerBytes, Rest)
             .ok() ||
        Rest.size() < PayloadLen + RecordTrailerBytes) {
      ++TornTails;
      met().TornTails.add();
      break;
    }
    std::uint32_t Stored = getU32(Rest.data() + PayloadLen);
    std::uint32_t Fresh = crc32c(Rest.data(), PayloadLen,
                                 crc32c(Head.data(), RecordHeaderBytes));
    if (Stored != Fresh) {
      Seg.Frozen = true;
      ++CorruptRecords;
      met().Corrupt.add();
      AQUA_LOG_WARN("store",
                    "segment '%s': checksum mismatch at offset %llu; "
                    "recovering to the longest valid prefix",
                    Seg.Name.c_str(),
                    static_cast<unsigned long long>(Seg.ValidBytes));
      break;
    }
    ir::Fingerprint Key;
    Key.Hi = getU64(Head.data() + 8);
    Key.Lo = getU64(Head.data() + 16);
    Index.insert_or_assign(Key,
                           RecordLoc{SegIndex, Seg.ValidBytes, PayloadLen});
    Seg.ValidBytes += RecordBytes;
    ++Indexed;
  }
  return Indexed;
}

std::uint64_t SolveStore::refreshLocked() {
  ++Refreshes;
  met().Refreshes.add();
  // Capture the generation *before* listing: a mutation racing with this
  // refresh leaves the stored generation stale, so the next miss refreshes
  // again (conservative, never misses a change).
  auto Gen = E.dirGeneration(Dir);
  auto Names = E.listDir(Dir);
  if (!Names.ok())
    return 0;
  std::uint64_t Indexed = 0;
  for (const std::string &Name : *Names) {
    if (!isSegmentName(Name))
      continue;
    int SegIndex = -1;
    for (std::size_t I = 0; I < Segments.size(); ++I)
      if (Segments[I].Name == Name)
        SegIndex = static_cast<int>(I);
    if (SegIndex < 0) {
      Segment Fresh;
      Fresh.Name = Name;
      Segments.push_back(std::move(Fresh));
      SegIndex = static_cast<int>(Segments.size()) - 1;
    } else if (SegIndex == WriterSegment ||
               Segments[SegIndex].Sealed) {
      continue; // Our own appends are indexed as they happen; sealed
                // segments never grow.
    }
    // Prefer adopting a side-car index over scanning: one validation pass
    // instead of a record-by-record read of the whole segment.
    if (loadIndexLocked(SegIndex))
      continue;
    Indexed += scanSegmentLocked(SegIndex);
  }
  // Tombstone segments whose file vanished (compacted by another process);
  // their index entries were superseded when the compacted segment was
  // scanned above, or will demote to misses on read. Views handed out of
  // a sealed mapping stay valid -- they hold their own keepalive.
  for (Segment &Seg : Segments)
    if (!Seg.Name.empty() && !Seg.Handle && !E.exists(path(Seg.Name))) {
      Seg.Name.clear();
      Seg.Sealed = false;
      Seg.Data.reset();
      Seg.IdxMap.reset();
      Seg.IdxSlots = nullptr;
      Seg.IdxSlotCount = 0;
    }
  // Sweep orphan side-cars (their segment was compacted away and the
  // compactor died before removing the index).
  for (const std::string &Name : *Names) {
    if (!isIdxName(Name))
      continue;
    std::string SegName = Name.substr(0, Name.size() - 4) + ".aqs";
    if (std::find(Names->begin(), Names->end(), SegName) == Names->end())
      (void)E.removeFile(path(Name));
  }
  if (Gen.ok()) {
    HaveDirGeneration = true;
    LastDirGeneration = *Gen;
  } else {
    HaveDirGeneration = false;
  }
  return Indexed;
}

std::uint64_t SolveStore::refreshOnMissLocked() {
  auto Gen = E.dirGeneration(Dir);
  if (Gen.ok() && HaveDirGeneration && *Gen == LastDirGeneration) {
    // No file was created, removed, renamed, or (for exact Envs) mutated
    // since the last full refresh. The only thing that can still have
    // changed under POSIX semantics is the tail of a segment a live
    // foreign writer is appending to -- exactly the unsealed, non-writer
    // segments -- so re-stat only those instead of the whole directory.
    ++RefreshSkips;
    met().RefreshSkips.add();
    std::uint64_t Indexed = 0;
    for (std::size_t I = 0; I < Segments.size(); ++I) {
      if (static_cast<int>(I) == WriterSegment)
        continue;
      Segment &Seg = Segments[I];
      if (Seg.Sealed || Seg.Frozen || Seg.Name.empty())
        continue;
      Indexed += scanSegmentLocked(static_cast<int>(I));
    }
    return Indexed;
  }
  return refreshLocked();
}

std::string
SolveStore::encodeIndexBytes(const std::vector<IdxEntry> &Entries,
                             std::uint64_t Covered) {
  std::uint64_t SlotCount = 4;
  while (SlotCount < Entries.size() * 2)
    SlotCount <<= 1;
  std::vector<IdxEntry> Slots(SlotCount);
  for (IdxEntry &S : Slots)
    S.Offset = IdxEmptySlot;
  std::uint64_t Filled = 0;
  for (const IdxEntry &En : Entries) {
    std::uint64_t H = slotHash(En.Hi, En.Lo);
    for (std::uint64_t P = 0;; ++P) {
      IdxEntry &S = Slots[(H + P) & (SlotCount - 1)];
      if (S.Offset == IdxEmptySlot) {
        S = En;
        ++Filled;
        break;
      }
      if (S.Hi == En.Hi && S.Lo == En.Lo) {
        S = En; // Within one segment the later record wins.
        break;
      }
    }
  }
  std::string Out;
  Out.reserve(IdxHeaderBytes + SlotCount * IdxSlotBytes + IdxTrailerBytes);
  Out.append(IdxMagic, sizeof(IdxMagic));
  putU32(Out, IdxVersion);
  putU32(Out, 0);
  putU64(Out, SlotCount);
  putU64(Out, Filled);
  putU64(Out, Covered);
  for (const IdxEntry &S : Slots) {
    putU64(Out, S.Hi);
    putU64(Out, S.Lo);
    putU64(Out, S.Offset);
    putU32(Out, S.PayloadLen);
    putU32(Out, 0);
  }
  putU32(Out, crc32c(Out.data() + sizeof(IdxMagic),
                     Out.size() - sizeof(IdxMagic)));
  return Out;
}

bool SolveStore::parseSegmentRecords(std::string_view Bytes,
                                     std::uint32_t MaxPayloadBytes,
                                     std::vector<IdxEntry> &Out) {
  if (Bytes.size() < SegmentHeaderBytes ||
      std::memcmp(Bytes.data(), SegmentMagic, sizeof(SegmentMagic)) != 0)
    return false;
  std::uint64_t Off = SegmentHeaderBytes;
  while (Off < Bytes.size()) {
    if (Off + RecordHeaderBytes > Bytes.size())
      return false;
    const char *Head = Bytes.data() + Off;
    std::uint32_t Magic = getU32(Head);
    std::uint32_t PayloadLen = getU32(Head + 4);
    if (Magic != RecordMagic || PayloadLen > MaxPayloadBytes)
      return false;
    std::uint64_t RecordBytes =
        RecordHeaderBytes + PayloadLen + RecordTrailerBytes;
    if (Off + RecordBytes > Bytes.size())
      return false;
    std::uint32_t Stored = getU32(Head + RecordBytes - RecordTrailerBytes);
    std::uint32_t Fresh = crc32c(
        Head, static_cast<std::size_t>(RecordBytes - RecordTrailerBytes));
    if (Stored != Fresh)
      return false;
    Out.push_back(IdxEntry{getU64(Head + 8), getU64(Head + 16), Off,
                           PayloadLen});
    Off += RecordBytes;
  }
  return true;
}

bool SolveStore::loadIndexLocked(int SegIndex) {
  Segment &Seg = Segments[SegIndex];
  if (!Opts.UseIndexes || Seg.Sealed || Seg.Name.empty())
    return false;
  const std::string IdxPath = path(idxNameFor(Seg.Name));
  if (!E.exists(IdxPath))
    return false;
  auto Invalid = [&](const char *Why) {
    ++IndexFallbackScans;
    met().IndexFallbacks.add();
    AQUA_LOG_WARN("store", "side-car index for '%s' %s; falling back to "
                           "the segment scan",
                  Seg.Name.c_str(), Why);
    (void)E.removeFile(IdxPath);
    return false;
  };
  auto SegSize = E.fileSize(path(Seg.Name));
  if (!SegSize.ok())
    return false; // Segment vanished; the tombstone sweep handles it.
  auto Map = E.mapRead(IdxPath);
  if (!Map.ok())
    return Invalid("is unreadable");
  std::string_view B = (*Map)->bytes();
  if (B.size() < IdxHeaderBytes + IdxTrailerBytes ||
      std::memcmp(B.data(), IdxMagic, sizeof(IdxMagic)) != 0)
    return Invalid("is truncated or has a bad magic");
  if (getU32(B.data() + 8) != IdxVersion)
    return Invalid("has an unsupported version");
  std::uint64_t SlotCount = getU64(B.data() + 16);
  std::uint64_t EntryCount = getU64(B.data() + 24);
  std::uint64_t Covered = getU64(B.data() + 32);
  if (SlotCount == 0 || SlotCount > (std::uint64_t{1} << 32) ||
      (SlotCount & (SlotCount - 1)) != 0 || EntryCount > SlotCount)
    return Invalid("has an implausible slot table");
  if (B.size() != IdxHeaderBytes + SlotCount * IdxSlotBytes + IdxTrailerBytes)
    return Invalid("is truncated");
  std::uint32_t Stored = getU32(B.data() + B.size() - IdxTrailerBytes);
  std::uint32_t Fresh =
      crc32c(B.data() + sizeof(IdxMagic),
             B.size() - sizeof(IdxMagic) - IdxTrailerBytes);
  if (Stored != Fresh)
    return Invalid("failed its checksum");
  // Sealed segments never grow, so the index must describe the file
  // exactly; any size drift means it belongs to different bytes.
  if (Covered != *SegSize || Covered < SegmentHeaderBytes)
    return Invalid("is stale (covered bytes != segment size)");
  auto Data = E.mapRead(path(Seg.Name));
  if (!Data.ok() || (*Data)->bytes().size() != Covered)
    return false; // Transient (segment being deleted); not the index's fault.
  if (std::memcmp((*Data)->bytes().data(), SegmentMagic,
                  sizeof(SegmentMagic)) != 0)
    return Invalid("indexes a segment with a bad header");
  Seg.Sealed = true;
  Seg.Data = *Data;
  Seg.IdxMap = *Map;
  Seg.IdxSlotCount = SlotCount;
  Seg.IdxSlots = (*Map)->bytes().data() + IdxHeaderBytes;
  Seg.ValidBytes = Covered;
  ++IndexLoads;
  met().IndexLoads.add();
  // The mapped table supersedes any in-memory entries pointing here.
  for (auto It = Index.begin(); It != Index.end();)
    It = It->second.Segment == SegIndex ? Index.erase(It) : std::next(It);
  return true;
}

void SolveStore::writeAndAdoptIndexLocked(int SegIndex,
                                          const std::vector<IdxEntry> &Entries) {
  Segment &Seg = Segments[SegIndex];
  std::string Bytes = encodeIndexBytes(Entries, Seg.ValidBytes);
  std::string TempName = "tmp-" + E.uniqueToken();
  auto Temp = E.openAppend(path(TempName));
  if (!Temp.ok())
    return;
  bool TempLocked = false;
  (void)(*Temp)->tryLockExclusive(TempLocked); // Guards the stale-temp sweep.
  if (!(*Temp)->append(Bytes).ok() || !(*Temp)->sync().ok() ||
      !E.rename(path(TempName), path(idxNameFor(Seg.Name))).ok()) {
    (void)E.removeFile(path(TempName));
    return;
  }
  Temp->reset();
  ++IndexBuilds;
  met().IndexBuilds.add();
  if (!Opts.UseIndexes)
    return; // Built for other processes; we keep scanning.
  auto Map = E.mapRead(path(idxNameFor(Seg.Name)));
  auto Data = E.mapRead(path(Seg.Name));
  if (!Map.ok() || !Data.ok() ||
      (*Data)->bytes().size() != Seg.ValidBytes)
    return;
  Seg.Sealed = true;
  Seg.Data = *Data;
  Seg.IdxMap = *Map;
  Seg.IdxSlotCount = getU64((*Map)->bytes().data() + 16);
  Seg.IdxSlots = (*Map)->bytes().data() + IdxHeaderBytes;
  for (auto It = Index.begin(); It != Index.end();)
    It = It->second.Segment == SegIndex ? Index.erase(It) : std::next(It);
}

void SolveStore::buildIndexLocked(int SegIndex) {
  Segment &Seg = Segments[SegIndex];
  if (!Opts.BuildIndexes || Seg.Sealed || Seg.Frozen || Seg.Name.empty() ||
      SegIndex == WriterSegment || Seg.Handle)
    return;
  if (E.exists(path(idxNameFor(Seg.Name))))
    return; // Someone already built it; the next refresh adopts it.
  // Only a segment we fully scanned is eligible: a torn tail or a live
  // writer's in-flight growth means ValidBytes != file size.
  auto Size = E.fileSize(path(Seg.Name));
  if (!Size.ok() || *Size != Seg.ValidBytes ||
      Seg.ValidBytes < SegmentHeaderBytes)
    return;
  // Quiescence proof: taking the writer lock means the owning writer is
  // gone, and writers never reopen a segment -- it can never grow again.
  auto Handle = E.openAppend(path(Seg.Name));
  if (!Handle.ok())
    return;
  bool Acquired = false;
  if (!(*Handle)->tryLockExclusive(Acquired).ok() || !Acquired)
    return; // A live writer still owns it.
  auto Data = E.mapRead(path(Seg.Name));
  if (!Data.ok() || (*Data)->bytes().size() != Seg.ValidBytes)
    return;
  std::vector<IdxEntry> Entries;
  if (!parseSegmentRecords((*Data)->bytes(), Opts.MaxPayloadBytes, Entries))
    return; // Contents disagree with the scan; leave it to the scan path.
  writeAndAdoptIndexLocked(SegIndex, Entries);
}

void SolveStore::sealWithEntriesLocked(int SegIndex,
                                       const std::vector<IdxEntry> &Entries) {
  Segment &Seg = Segments[SegIndex];
  if (!Opts.BuildIndexes || Seg.Sealed || Seg.Name.empty())
    return;
  writeAndAdoptIndexLocked(SegIndex, Entries);
}

void SolveStore::sealedEntriesLocked(int SegIndex,
                                     std::vector<IdxEntry> &Out) const {
  const Segment &Seg = Segments[SegIndex];
  if (!Seg.Sealed || Seg.IdxSlotCount == 0)
    return;
  for (std::uint64_t I = 0; I < Seg.IdxSlotCount; ++I) {
    const char *Slot = Seg.IdxSlots + I * IdxSlotBytes;
    if (getU64(Slot + 16) == IdxEmptySlot)
      continue;
    Out.push_back(IdxEntry{getU64(Slot), getU64(Slot + 8), getU64(Slot + 16),
                           getU32(Slot + 24)});
  }
}

Status SolveStore::ensureWriterLocked() {
  if (WriterSegment >= 0)
    return Status::success();
  std::string Name = "seg-" + E.uniqueToken() + ".aqs";
  auto Handle = E.openAppend(path(Name));
  if (!Handle.ok())
    return Handle.takeStatus();
  bool Acquired = false;
  if (Status S = (*Handle)->tryLockExclusive(Acquired); !S.ok())
    return S;
  if (!Acquired)
    return Status::error(
        format("segment '%s' is unexpectedly locked", Name.c_str()));
  if (Status S = (*Handle)->append(
          std::string_view(SegmentMagic, sizeof(SegmentMagic)));
      !S.ok())
    return S;
  Segment Writer;
  Writer.Name = std::move(Name);
  Writer.ValidBytes = SegmentHeaderBytes;
  Writer.Handle = std::move(*Handle);
  Segments.push_back(std::move(Writer));
  WriterSegment = static_cast<int>(Segments.size()) - 1;
  return Status::success();
}

Status SolveStore::put(const ir::Fingerprint &Key, std::string_view Payload) {
  obs::SpanGuard Span("store.put", "store");
  Span.arg("bytes", static_cast<std::uint64_t>(Payload.size()));
  if (Payload.size() > Opts.MaxPayloadBytes)
    return Status::error(format("payload of %zu bytes exceeds the %u-byte "
                                "record bound",
                                Payload.size(), Opts.MaxPayloadBytes));
  std::lock_guard<std::mutex> Lock(Mutex);
  Puts.fetch_add(1, std::memory_order_release);
  if (Status S = ensureWriterLocked(); !S.ok())
    return S;
  Segment &Seg = Segments[WriterSegment];
  std::string Rec = encodeRecord(Key, Payload);
  if (Status S = Seg.Handle->append(Rec); !S.ok()) {
    // The segment may now end in a torn record (ENOSPC mid-write); records
    // appended after it would hide behind the scan stop, so retire this
    // segment -- the next put opens a fresh one, and recovery serves this
    // one's longest valid prefix.
    Seg.Handle.reset();
    WriterSegment = -1;
    return S;
  }
  if (Opts.SyncEveryAppend)
    if (Status S = Seg.Handle->sync(); !S.ok())
      return S;
  Index.insert_or_assign(Key, RecordLoc{WriterSegment, Seg.ValidBytes,
                                        static_cast<std::uint32_t>(
                                            Payload.size())});
  Seg.ValidBytes += Rec.size();
  ++Appends;
  AppendedBytes += Rec.size();
  met().Appends.add();
  met().AppendedBytes.add(Rec.size());
  return Status::success();
}

bool SolveStore::probeSealedLocked(const ir::Fingerprint &Key,
                                   ArtifactView &View) {
  for (std::size_t I = Segments.size(); I-- > 0;) {
    Segment &Seg = Segments[I];
    if (!Seg.Sealed || Seg.Name.empty() || Seg.IdxSlotCount == 0)
      continue;
    std::string_view Data = Seg.Data->bytes();
    std::uint64_t H = slotHash(Key.Hi, Key.Lo);
    std::uint64_t Mask = Seg.IdxSlotCount - 1;
    for (std::uint64_t P = 0; P < Seg.IdxSlotCount; ++P) {
      const char *Slot = Seg.IdxSlots + ((H + P) & Mask) * IdxSlotBytes;
      std::uint64_t Offset = getU64(Slot + 16);
      if (Offset == IdxEmptySlot)
        break; // Not in this segment.
      if (getU64(Slot) != Key.Hi || getU64(Slot + 8) != Key.Lo)
        continue;
      std::uint32_t PayloadLen = getU32(Slot + 24);
      std::uint64_t RecordBytes =
          RecordHeaderBytes + PayloadLen + RecordTrailerBytes;
      if (Offset < SegmentHeaderBytes || Offset + RecordBytes > Data.size()) {
        ++CorruptRecords;
        met().Corrupt.add();
        break; // Index lied about geometry; other segments may still hit.
      }
      // Re-verify on every read, exactly like the scan path: a mapped
      // record that rotted since seal time must never be served.
      const char *Rec = Data.data() + Offset;
      std::uint32_t Stored = getU32(Rec + RecordBytes - RecordTrailerBytes);
      std::uint32_t Fresh =
          crc32c(Rec, static_cast<std::size_t>(RecordBytes -
                                               RecordTrailerBytes));
      if (getU32(Rec) != RecordMagic || getU32(Rec + 4) != PayloadLen ||
          getU64(Rec + 8) != Key.Hi || getU64(Rec + 16) != Key.Lo ||
          Stored != Fresh) {
        ++CorruptRecords;
        met().Corrupt.add();
        AQUA_LOG_WARN("store", "sealed record for %s failed verification; "
                               "treating as a miss",
                      Key.str().c_str());
        break;
      }
      View.Payload = std::string_view(Rec + RecordHeaderBytes, PayloadLen);
      View.Keep = Seg.Data;
      ++IndexProbes;
      met().IndexProbes.add();
      return true;
    }
  }
  return false;
}

bool SolveStore::getLocked(const ir::Fingerprint &Key, ArtifactView &View) {
  auto It = Index.find(Key);
  if (It != Index.end()) {
    const RecordLoc &Loc = It->second;
    const Segment &Seg = Segments[Loc.Segment];
    std::uint64_t RecordBytes =
        RecordHeaderBytes + Loc.PayloadLen + RecordTrailerBytes;
    auto Rec = std::make_shared<std::string>();
    if (!E.read(path(Seg.Name), Loc.Offset, RecordBytes, *Rec).ok() ||
        Rec->size() != RecordBytes) {
      // Segment compacted away by another process, or shrunk out from
      // under us: demote to a miss (a refresh will re-find the key in the
      // compacted segment).
      Index.erase(It);
    } else {
      // Re-verify on every read: a record that rotted since the scan must
      // never be served.
      std::uint32_t Stored =
          getU32(Rec->data() + RecordBytes - RecordTrailerBytes);
      std::uint32_t Fresh =
          crc32c(Rec->data(), RecordBytes - RecordTrailerBytes);
      ir::Fingerprint Found;
      Found.Hi = getU64(Rec->data() + 8);
      Found.Lo = getU64(Rec->data() + 16);
      if (getU32(Rec->data()) != RecordMagic || Stored != Fresh ||
          Found != Key) {
        ++CorruptRecords;
        met().Corrupt.add();
        Index.erase(It);
        AQUA_LOG_WARN("store", "record for %s failed verification on read; "
                               "treating as a miss",
                      Key.str().c_str());
      } else {
        View.Payload =
            std::string_view(Rec->data() + RecordHeaderBytes, Loc.PayloadLen);
        View.Keep = std::move(Rec);
        return true;
      }
    }
  }
  return probeSealedLocked(Key, View);
}

bool SolveStore::getView(const ir::Fingerprint &Key, ArtifactView &View) {
  obs::SpanGuard Span("store.get", "store");
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Gets;
  met().Gets.add();
  if (!getLocked(Key, View)) {
    if (!Opts.RefreshOnMiss)
      return false;
    refreshOnMissLocked();
    if (!getLocked(Key, View))
      return false;
  }
  ++Hits;
  met().Hits.add();
  return true;
}

bool SolveStore::get(const ir::Fingerprint &Key, std::string &Payload) {
  ArtifactView View;
  if (!getView(Key, View))
    return false;
  Payload.assign(View.Payload.data(), View.Payload.size());
  return true;
}

bool SolveStore::contains(const ir::Fingerprint &Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ArtifactView Scratch;
  if (Index.count(Key) || probeSealedLocked(Key, Scratch))
    return true;
  if (!Opts.RefreshOnMiss)
    return false;
  refreshOnMissLocked();
  return Index.count(Key) != 0 || probeSealedLocked(Key, Scratch);
}

std::uint64_t SolveStore::refresh() {
  obs::SpanGuard Span("store.refresh", "store");
  std::lock_guard<std::mutex> Lock(Mutex);
  return refreshLocked();
}

bool SolveStore::isCompactLocked(int SegIndex) const {
  const Segment &Seg = Segments[SegIndex];
  if (!Seg.Sealed || !Seg.Data)
    return false;
  for (const auto &[Key, Loc] : Index)
    if (Loc.Segment == SegIndex)
      return false;
  std::vector<IdxEntry> Entries;
  sealedEntriesLocked(SegIndex, Entries);
  std::uint64_t Bytes = SegmentHeaderBytes;
  for (const IdxEntry &En : Entries)
    Bytes += RecordHeaderBytes + En.PayloadLen + RecordTrailerBytes;
  return Bytes == Seg.Data->bytes().size();
}

Status SolveStore::compact() {
  // Nothing to do since the last no-op pass: no put of ours, and no file
  // created, removed or renamed by anyone. Checked without Mutex, so a
  // compactor polling in a loop does not starve readers and writers of
  // it (std::mutex is not fair).
  if (std::uint64_t Quiet = QuietPuts.load(std::memory_order_acquire);
      Quiet != 0 && Quiet == Puts.load(std::memory_order_acquire) + 1) {
    auto Gen = E.dirGeneration(Dir);
    if (Gen.ok() && *Gen == QuietDirGeneration.load(std::memory_order_relaxed))
      return Status::success();
  }
  std::lock_guard<std::mutex> Lock(Mutex);
  QuietPuts.store(0, std::memory_order_relaxed);
  // Read before the listing, like refreshLocked: a change racing with
  // this pass leaves the recorded generation stale, never too new.
  auto GenBefore = E.dirGeneration(Dir);
  // One compactor per store directory, across processes.
  auto LockFile = E.openAppend(path("LOCK"));
  if (!LockFile.ok())
    return LockFile.takeStatus();
  bool HaveLock = false;
  if (Status S = (*LockFile)->tryLockExclusive(HaveLock); !S.ok())
    return S;
  if (!HaveLock)
    return Status::success(); // Another process is compacting; fine.

  refreshLocked();
  // Rotate our own writer so its segment becomes quiescent and eligible.
  if (WriterSegment >= 0) {
    Segments[WriterSegment].Handle.reset();
    WriterSegment = -1;
  }

  // A segment is compactable iff no live writer holds its lock.
  std::vector<int> Victims;
  std::vector<std::unique_ptr<WritableFile>> VictimLocks;
  bool LiveWriters = false;
  for (std::size_t I = 0; I < Segments.size(); ++I) {
    Segment &Seg = Segments[I];
    if (Seg.Name.empty() || !E.exists(path(Seg.Name)))
      continue;
    auto Handle = E.openAppend(path(Seg.Name));
    if (!Handle.ok())
      continue;
    bool Acquired = false;
    if (!(*Handle)->tryLockExclusive(Acquired).ok() || !Acquired) {
      LiveWriters = true;
      continue; // A live writer owns it; leave it alone.
    }
    Victims.push_back(static_cast<int>(I));
    VictimLocks.push_back(std::move(*Handle));
  }
  if (Victims.empty() || (Victims.size() == 1 && isCompactLocked(Victims[0]))) {
    // A rewrite would copy the store as it is. With no live writer, a
    // later pass can only have work after a put or a directory change.
    if (!LiveWriters && GenBefore.ok()) {
      QuietDirGeneration.store(*GenBefore, std::memory_order_relaxed);
      QuietPuts.store(Puts.load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
    }
    return Status::success();
  }

  // Write every surviving record of the victim segments into a temp file,
  // then atomically rename it into place. A crash before the rename leaves
  // only a stale temp (swept on open); a crash after it leaves duplicate
  // keys across old and new segments (benign: identical payloads).
  std::string Token = E.uniqueToken();
  std::string TempName = "tmp-" + Token;
  auto Temp = E.openAppend(path(TempName));
  if (!Temp.ok())
    return Temp.takeStatus();
  bool TempLocked = false;
  (void)(*Temp)->tryLockExclusive(TempLocked);
  auto Abort = [&](Status S) {
    (void)E.removeFile(path(TempName));
    return S;
  };
  if (Status S = (*Temp)->append(
          std::string_view(SegmentMagic, sizeof(SegmentMagic)));
      !S.ok())
    return Abort(S);

  // Collect the surviving records of every victim: from the mapped slot
  // table for sealed ones, then from the in-memory Index for scan-served
  // ones, which override them, as they do on get (a re-put after the last
  // seal lives in the Index). Other duplicates collapse as on get too:
  // the higher segment wins.
  std::unordered_map<ir::Fingerprint, RecordLoc, KeyHash> Surviving;
  std::vector<IdxEntry> VictimEntries;
  for (int V : Victims) {
    VictimEntries.clear();
    sealedEntriesLocked(V, VictimEntries);
    for (const IdxEntry &En : VictimEntries) {
      ir::Fingerprint Key;
      Key.Hi = En.Hi;
      Key.Lo = En.Lo;
      Surviving.insert_or_assign(Key, RecordLoc{V, En.Offset, En.PayloadLen});
    }
  }
  for (const auto &[Key, Loc] : Index) {
    for (int V : Victims)
      if (Loc.Segment == V) {
        Surviving.insert_or_assign(Key, Loc);
        break;
      }
  }

  std::vector<std::pair<ir::Fingerprint, RecordLoc>> Moved;
  std::vector<IdxEntry> NewEntries;
  std::uint64_t NewOffset = SegmentHeaderBytes;
  for (const auto &[Key, Loc] : Surviving) {
    std::uint64_t RecordBytes =
        RecordHeaderBytes + Loc.PayloadLen + RecordTrailerBytes;
    const Segment &From = Segments[Loc.Segment];
    std::string Rec;
    std::string_view RecBytes;
    if (From.Sealed && From.Data &&
        Loc.Offset + RecordBytes <= From.Data->bytes().size()) {
      RecBytes = From.Data->bytes().substr(Loc.Offset, RecordBytes);
    } else {
      if (!E.read(path(From.Name), Loc.Offset, RecordBytes, Rec).ok() ||
          Rec.size() != RecordBytes)
        return Abort(Status::error("compaction read failed"));
      RecBytes = Rec;
    }
    if (Status S = (*Temp)->append(RecBytes); !S.ok())
      return Abort(S);
    Moved.emplace_back(Key, RecordLoc{-1, NewOffset, Loc.PayloadLen});
    NewEntries.push_back(IdxEntry{Key.Hi, Key.Lo, NewOffset, Loc.PayloadLen});
    NewOffset += RecordBytes;
  }
  if (Status S = (*Temp)->sync(); !S.ok())
    return Abort(S);
  std::string NewName = "seg-" + Token + ".aqs";
  if (Status S = E.rename(path(TempName), path(NewName)); !S.ok())
    return Abort(S);
  Temp->reset(); // Release the temp lock before anyone scans the segment.

  Segment Compacted;
  Compacted.Name = NewName;
  Compacted.ValidBytes = NewOffset;
  Segments.push_back(std::move(Compacted));
  int NewSeg = static_cast<int>(Segments.size()) - 1;
  for (auto &[Key, Loc] : Moved) {
    Loc.Segment = NewSeg;
    Index.insert_or_assign(Key, Loc);
  }
  // The compaction output is quiescent by construction (no writer ever
  // owned it), so seal it immediately -- we already know its records.
  sealWithEntriesLocked(NewSeg, NewEntries);
  for (std::size_t I = 0; I < Victims.size(); ++I) {
    Segment &Victim = Segments[Victims[I]];
    (void)E.removeFile(path(Victim.Name));
    (void)E.removeFile(path(idxNameFor(Victim.Name)));
    Victim.Name.clear();
    Victim.Sealed = false;
    Victim.Data.reset();
    Victim.IdxMap.reset();
    Victim.IdxSlots = nullptr;
    Victim.IdxSlotCount = 0;
    ++SegmentsCompacted;
  }
  ++Compactions;
  met().Compactions.add();
  return Status::success();
}

std::vector<ir::Fingerprint> SolveStore::keys() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::unordered_set<ir::Fingerprint, KeyHash> Seen;
  Seen.reserve(Index.size());
  for (const auto &[Key, Loc] : Index)
    Seen.insert(Key);
  std::vector<IdxEntry> Entries;
  for (std::size_t I = 0; I < Segments.size(); ++I) {
    if (!Segments[I].Sealed || Segments[I].Name.empty())
      continue;
    Entries.clear();
    sealedEntriesLocked(static_cast<int>(I), Entries);
    for (const IdxEntry &En : Entries) {
      ir::Fingerprint Key;
      Key.Hi = En.Hi;
      Key.Lo = En.Lo;
      Seen.insert(Key);
    }
  }
  return std::vector<ir::Fingerprint>(Seen.begin(), Seen.end());
}

StoreStats SolveStore::stats() const {
  StoreStats S;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    S.Appends = Appends;
    S.AppendedBytes = AppendedBytes;
    S.Gets = Gets;
    S.Hits = Hits;
    S.CorruptRecords = CorruptRecords;
    S.TornTails = TornTails;
    S.Refreshes = Refreshes;
    S.RefreshSkips = RefreshSkips;
    S.Compactions = Compactions;
    S.SegmentsCompacted = SegmentsCompacted;
    S.IndexProbes = IndexProbes;
    S.IndexFallbackScans = IndexFallbackScans;
    S.IndexBuilds = IndexBuilds;
    S.IndexLoads = IndexLoads;
    for (const Segment &Seg : Segments) {
      if (Seg.Name.empty())
        continue;
      ++S.Segments;
      if (Seg.Sealed)
        ++S.SealedSegments;
    }
  }
  S.Keys = keys().size();
  return S;
}
