//===-- core/TranslationService.cpp - Tiered translation service ----------==//

#include "core/TranslationService.h"

#include <algorithm>
#include <chrono>
#include <cstring>

using namespace vg;

TranslationHost::~TranslationHost() = default;

TranslationService::TranslationService(TranslationHost &Host,
                                       GuestMemory &Memory,
                                       size_t TTCapacityPow2)
    : Host(Host), Memory(Memory), TT(TTCapacityPow2) {}

double TranslationService::now() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

void TranslationService::fillTranslation(Translation &T, uint32_t PC,
                                         TranslatedBlock TB) {
  T.Addr = PC;
  // A trace pipeline marks its result through the disassembly metadata;
  // the extents then span every constituent, so invalidateRange poisoning
  // any one of them evicts the whole trace.
  if (!TB.Meta.TraceEntries.empty()) {
    T.Tier = 2;
    T.TraceEntries = TB.Meta.TraceEntries;
  }
  T.Blob = std::move(TB.Blob);
  T.Extents = TB.Meta.Extents;
  if (T.Extents.empty())
    T.Extents.push_back({PC, PC + 1}); // NoDecode-at-entry blocks
  T.NumInsns = TB.Meta.NumInsns;
  // vector<atomic<..>> has no assign(); size-construction value-initialises
  // every element (null slots, zero edge counts).
  T.Chain = std::vector<std::atomic<Translation *>>(T.Blob.NumChainSlots);
  T.EdgeExecs = std::vector<std::atomic<uint64_t>>(T.Blob.NumChainSlots);
}

uint64_t TranslationService::hashLive(
    const std::vector<std::pair<uint32_t, uint32_t>> &Extents) const {
  // One read per page-run of an extent. Reads ignore permissions, so a
  // run faults only when its page is unmapped, and then hashes as zeros.
  constexpr uint32_t Page = GuestMemory::PageSize;
  uint64_t H = 0xcbf29ce484222325ULL;
  uint8_t Buf[Page];
  for (auto [Lo, Hi] : Extents) {
    for (uint32_t A = Lo; A != Hi;) {
      uint32_t Len = std::min(Hi - A, Page - (A & (Page - 1)));
      if (Memory.read(A, Buf, Len, /*IgnorePerms=*/true).Faulted)
        std::memset(Buf, 0, Len);
      for (uint32_t I = 0; I != Len; ++I) {
        H ^= Buf[I];
        H *= 0x100000001b3ULL;
      }
      A += Len;
    }
  }
  return H;
}

uint64_t TranslationService::cachePrefixHash(uint32_t PC) const {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (uint32_t I = 0; I != 64; ++I) {
    uint8_t B = 0;
    if (Memory.read(PC + I, &B, 1, /*IgnorePerms=*/true).Faulted)
      break;
    H ^= B;
    H *= 0x100000001b3ULL;
  }
  return H;
}

unsigned TranslationService::invalidate(uint32_t Addr, uint32_t Len) {
  if (Cache)
    Cache->poison(Addr, Len);
  return TT.invalidateRange(Addr, Len);
}

unsigned TranslationService::invalidateAll() {
  if (Cache)
    Cache->poisonAll();
  unsigned N = static_cast<unsigned>(TT.size());
  TT.invalidateAll();
  return N;
}

Translation *
TranslationService::installFromCache(std::unique_ptr<Translation> &TPtr,
                                     uint64_t Key, uint32_t PC) {
  double T0 = now();
  TransCacheEntry E;
  TransCache::LoadResult R = Cache->load(Key, E);
  if (R == TransCache::LoadResult::NotFound) {
    ++JS.CacheMisses;
    JS.CacheLoadSeconds += now() - T0;
    return nullptr;
  }
  // Found entries still run the gauntlet: the live guest bytes must hash
  // to what the entry was translated from, and no same-run invalidation
  // (redirect/unmap/flush) may have poisoned the range. Anything else is a
  // reject — fall through to the pipeline.
  if (R == TransCache::LoadResult::Malformed || E.Addr != PC ||
      E.Extents.empty() || hashLive(E.Extents) != E.CodeHash ||
      Cache->poisoned(E.Extents)) {
    ++JS.CacheRejects;
    JS.CacheLoadSeconds += now() - T0;
    return nullptr;
  }

  Translation *Raw = TPtr.get();
  Raw->Addr = PC;
  Raw->Extents = std::move(E.Extents);
  Raw->CodeHash = E.CodeHash;
  Raw->NumInsns = E.NumInsns;
  Raw->Blob.Bytes = std::move(E.Bytes);
  Raw->Blob.NumSpillSlots = E.NumSpillSlots;
  Raw->Blob.NumChainSlots = E.NumChainSlots;
  Raw->Blob.ChainTargets = std::move(E.ChainTargets);
  Raw->Chain = std::vector<std::atomic<Translation *>>(Raw->Blob.NumChainSlots);
  Raw->EdgeExecs = std::vector<std::atomic<uint64_t>>(Raw->Blob.NumChainSlots);

  ++JS.CacheHits;
  double Seconds = now() - T0;
  JS.CacheLoadSeconds += Seconds;
  Host.noteTranslation(PC, *Raw, Seconds);
  return TT.insert(std::move(TPtr));
}

void TranslationService::writeBackToCache(uint64_t Key, const Translation &T) {
  double T0 = now();
  TransCacheEntry E;
  E.Addr = T.Addr;
  E.NumInsns = T.NumInsns;
  E.CodeHash = T.CodeHash;
  E.Extents = T.Extents;
  E.NumSpillSlots = T.Blob.NumSpillSlots;
  E.NumChainSlots = T.Blob.NumChainSlots;
  E.ChainTargets = T.Blob.ChainTargets;
  E.Bytes = T.Blob.Bytes;
  if (Cache->store(Key, E))
    ++JS.CacheWrites;
  JS.CacheStoreSeconds += now() - T0;
}

TranslatedBlock TranslationService::runPipeline(uint32_t PC,
                                                const TranslationOptions &TO) {
  // One fetch for the whole window. Near a non-executable or unmapped
  // page it faults at the first bad byte; the bytes before it are
  // fetchable, so a second fetch returns exactly that prefix.
  FetchFn Fetch = [this](uint32_t Addr, uint8_t *Buf,
                         uint32_t MaxLen) -> uint32_t {
    MemFault F = Memory.fetch(Addr, Buf, MaxLen);
    if (!F.Faulted)
      return MaxLen;
    uint32_t N = F.Addr - Addr;
    Memory.fetch(Addr, Buf, N);
    return N;
  };
  return translateBlock(PC, Fetch, TO);
}

Translation *TranslationService::translateSync(uint32_t PC) {
  auto TPtr = std::make_unique<Translation>();
  Translation *Raw = TPtr.get();

  TranslationOptions TO;
  Host.setupTranslation(TO, PC, Raw);

  // The persistent cache sits in front of the pipeline. Eligibility
  // (Raw->Cacheable) was just decided by setupTranslation, so
  // position-dependent blobs (SMC prelude) never consult the disk.
  uint64_t Key = 0;
  bool UseCache = Cache && Raw->Cacheable;
  if (UseCache) {
    Key = TransCache::entryKey(PC, cachePrefixHash(PC));
    if (Translation *T = installFromCache(TPtr, Key, PC))
      return T;
  }

  // Timed unconditionally (not just under --profile): CoreStats carries
  // the total so the warm-start bench can compare pipeline time against
  // cache-load time. Two clock reads per translation is noise next to the
  // eight-phase pipeline they bracket.
  double T0 = now();
  TranslatedBlock TB = runPipeline(PC, TO);
  fillTranslation(*Raw, PC, std::move(TB));
  Raw->CodeHash = hashLive(Raw->Extents);
  Host.noteTranslation(PC, *Raw, now() - T0);
  Translation *Res = TT.insert(std::move(TPtr));
  if (UseCache && !Cache->poisoned(Res->Extents))
    writeBackToCache(Key, *Res);
  return Res;
}

Translation *TranslationService::translateTrace(const TraceSpec &Spec) {
  auto TPtr = std::make_unique<Translation>();
  Translation *Raw = TPtr.get();
  uint32_t PC = Spec.Entries.at(0);

  TranslationOptions TO;
  // The spec must be pinned before setupTranslation: the host scales the
  // frontend limits off it, forces Cacheable off, and binds the seam list
  // into the instrument hook (per-seam SMC checks).
  TO.Trace = Spec;
  ir::TraceOptStats TS;
  TO.TraceStats = &TS;
  Host.setupTranslation(TO, PC, Raw);
  ++JS.TraceRequests;

  double T0 = now();
  TranslatedBlock TB = runPipeline(PC, TO);
  if (TB.SpillOverflow) {
    ++JS.TraceAborts;
    return nullptr; // keep running the constituent baseline blocks
  }
  fillTranslation(*Raw, PC, std::move(TB));
  Raw->CodeHash = hashLive(Raw->Extents);
  Host.noteTranslation(PC, *Raw, now() - T0);
  JS.TraceDeadFlagPuts += TS.DeadFlagPuts;
  JS.TraceProbesCSEd += TS.ProbesCSEd;
  Translation *Res = TT.insert(std::move(TPtr));
  ++JS.TraceInstalled;
  return Res;
}
