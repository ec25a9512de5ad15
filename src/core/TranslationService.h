//===-- core/TranslationService.h - Tiered translation service -*- C++ -*-==//
///
/// \file
/// The translation layer extracted from the Core monolith: owns the
/// translation table, the eight-phase pipeline entry points, and the
/// optional persistent translation cache (--tt-cache). Translation is
/// synchronous and on demand, as in Sections 3.9 and 3.14: a block is
/// translated on the thread that holds the big lock (the guest thread, or
/// the shard holding the world lock), at a dispatch boundary where nothing
/// is executing inside the code cache. The TransTab and every
/// guest-visible structure are touched from that context only.
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_TRANSLATIONSERVICE_H
#define VG_CORE_TRANSLATIONSERVICE_H

#include "core/TransCache.h"
#include "core/TransTab.h"
#include "core/Translate.h"
#include "guest/GuestMemory.h"
#include "ir/IROpt.h"

#include <memory>
#include <vector>

namespace vg {

/// Translation-service counters, updated under the big lock.
struct JitStats {
  // Persistent translation cache (--tt-cache). Every lookup settles into
  // exactly one bucket: CacheHits + CacheMisses + CacheRejects equals the
  // number of lookups, and a hit was *installed* — there is no "hit but
  // not used" state.
  uint64_t CacheHits = 0;    ///< validated entries installed from disk
  uint64_t CacheMisses = 0;  ///< no entry on disk; pipeline ran
  uint64_t CacheRejects = 0; ///< entry malformed/stale/poisoned; pipeline ran
  uint64_t CacheWrites = 0;  ///< translations persisted after install
  double CacheLoadSeconds = 0;  ///< guest time in lookup+validate+install
  double CacheStoreSeconds = 0; ///< guest time serializing write-backs
  // Trace tier (--trace-tier). Traces are never cached, so the cache
  // counters above never move for them.
  uint64_t TraceRequests = 0;  ///< trace formations attempted
  uint64_t TraceInstalled = 0; ///< traces published into the TT
  uint64_t TraceAborts = 0;    ///< spill overflow
  uint64_t TraceDeadFlagPuts = 0; ///< dead CC-thunk writes deleted
  uint64_t TraceProbesCSEd = 0;   ///< shadow probes CSE'd across seams
};

/// The hooks the service needs from its host (the Core). Small enough that
/// tests can drive the service with a stub host and no full Core.
class TranslationHost {
public:
  virtual ~TranslationHost();

  /// Fills the pipeline options for translating the block (or TO.Trace) at
  /// \p PC, binding the instrument hook against \p Raw (the Translation
  /// under construction — the SMC prelude embeds its address).
  virtual void setupTranslation(TranslationOptions &TO, uint32_t PC,
                                Translation *Raw) = 0;

  /// Accounting for one installed translation (fresh or cache-served).
  virtual void noteTranslation(uint32_t PC, const Translation &T,
                               double Seconds) = 0;
};

/// The tiered translation service. One instance per Core; owns the
/// TransTab for its whole lifetime.
class TranslationService {
public:
  TranslationService(TranslationHost &Host, GuestMemory &Memory,
                     size_t TTCapacityPow2 = 1u << 14);

  TranslationService(const TranslationService &) = delete;
  TranslationService &operator=(const TranslationService &) = delete;

  TransTab &transTab() { return TT; }
  const JitStats &jitStats() const { return JS; }

  /// Attaches the persistent translation cache (--tt-cache). Call before
  /// execution starts. Lookups happen in translateSync, write-backs right
  /// after an install.
  void attachCache(std::unique_ptr<TransCache> C) { Cache = std::move(C); }
  TransCache *cache() { return Cache.get(); }
  const TransCache *cache() const { return Cache.get(); }

  /// Invalidation entry point hosts use instead of raw TT.invalidateRange:
  /// also poisons the cache so a redirected/unmapped address can't be
  /// re-served this run.
  unsigned invalidate(uint32_t Addr, uint32_t Len);

  /// Full-address-space invalidation. A Len parameter cannot express the
  /// whole 4GB guest space in 32 bits, and invalidate(0, 0xFFFFFFFF)
  /// silently missed translations covering the final guest byte — the
  /// fault-injected TT flush used exactly that spelling. Every translation
  /// is discarded and the whole cache poisoned.
  unsigned invalidateAll();

  /// The synchronous pipeline: translate the baseline block at \p PC, hash
  /// its bytes, account it through the host, and insert it into the table.
  /// With a cache attached, an eligible PC is first looked up on disk (a
  /// validated hit skips the pipeline entirely) and a fresh translation is
  /// written back after install.
  Translation *translateSync(uint32_t PC);

  /// The trace tier (tier 2). Stitches the hot path described by \p Spec
  /// into one trace translation and installs it over the head's baseline
  /// block. Returns null (leaving the baseline block resident) when register
  /// allocation overflows the executor frame — the only way a stitch can
  /// fail once the frontend has a path. Dispatch-boundary only. Never
  /// consults or feeds the persistent cache: a trace encodes this run's
  /// branch bias and chain graph, which no cache key captures.
  Translation *translateTrace(const TraceSpec &Spec);

  /// FNV-1a over the live guest bytes of \p Extents, read regardless of
  /// permissions; bytes of unmapped pages hash as 0. A translation's
  /// CodeHash, and what a cache entry's hash is checked against.
  uint64_t hashLive(
      const std::vector<std::pair<uint32_t, uint32_t>> &Extents) const;

private:
  static double now();
  /// FNV-1a over the first (up to) 64 live guest bytes at \p PC — the
  /// content component of the cache key. Short reads (unmapped tail) just
  /// shorten the window; see TransCache::entryKey for why any window is
  /// correct.
  uint64_t cachePrefixHash(uint32_t PC) const;
  /// On a validated hit: fills \p TPtr (an already-set-up shell), accounts
  /// the hit, installs, and returns the resident translation. Null on
  /// miss/reject (the shell stays reusable by the pipeline).
  Translation *installFromCache(std::unique_ptr<Translation> &TPtr,
                                uint64_t Key, uint32_t PC);
  /// Serializes an installed translation under \p Key (counts
  /// CacheWrites).
  void writeBackToCache(uint64_t Key, const Translation &T);
  /// Runs the pipeline over live guest memory.
  TranslatedBlock runPipeline(uint32_t PC, const TranslationOptions &TO);
  static void fillTranslation(Translation &T, uint32_t PC,
                              TranslatedBlock TB);

  TranslationHost &Host;
  GuestMemory &Memory;
  TransTab TT;

  /// Persistent translation cache, or null.
  std::unique_ptr<TransCache> Cache;

  JitStats JS;
};

} // namespace vg

#endif // VG_CORE_TRANSLATIONSERVICE_H
