//===-- core/TransTab.h - Translation storage (Section 3.8) -----*- C++ -*-==//
///
/// \file
/// Stores translations in a fixed-size, linear-probe hash table. When the
/// table passes 80% occupancy, translations are evicted in chunks of 1/8th
/// of the table using a FIFO policy — "chosen over the more obvious LRU
/// policy because it is simpler and still does a fairly good job".
/// Translations are also evicted when client code is unloaded (munmap) or
/// made obsolete by self-modifying code (Section 3.16), via
/// invalidateRange().
///
/// The table also owns the translation chain graph (Section 3.9): every
/// filled chain slot (a constant Boring exit patched to jump straight into
/// its successor) is recorded as a back-edge on the successor, so evicting
/// a translation unlinks its predecessors in O(degree) rather than by
/// scanning the whole table. Slots whose successor does not exist yet are
/// parked in a pending-waiter map and filled eagerly the moment the
/// successor is inserted — including re-insertion after SMC invalidation or
/// a trace installing over its head — so the dispatcher almost never has
/// to fill a chain slot lazily.
///
/// Concurrency (DESIGN section 14): the table structure (slots, waiter map,
/// back-edge vectors) is only ever mutated by a thread holding the core's
/// world lock; the per-translation execution profile (ExecCount, EdgeExecs),
/// the chain slots themselves, and the generation counter are atomics so
/// that the dispatch loop and the chain thunk may read them —
/// and bump the profile — without any lock. Chain installs are release
/// stores; unchaining happens under the world lock and the freed
/// translation is handed to the retire hook (when set) instead of being
/// destroyed, so a shard that loaded the slot just before the unchain can
/// finish its run through the old blob during the epoch grace period.
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_TRANSTAB_H
#define VG_CORE_TRANSTAB_H

#include "hvm/Exec.h"

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <vector>

namespace vg {

/// One stored translation.
struct Translation {
  uint32_t Addr = 0;     ///< guest entry address
  hvm::CodeBlob Blob;    ///< encoded host code (Blob.Cookie == this)
  /// Guest ranges the translation was made from (for invalidation and SMC
  /// hashing; more than one when branches were chased).
  std::vector<std::pair<uint32_t, uint32_t>> Extents;
  uint64_t CodeHash = 0; ///< FNV-1a over the original guest bytes
  uint32_t NumInsns = 0;
  uint64_t Seq = 0; ///< insertion order (FIFO eviction key)
  /// Times the block was entered (dispatcher entries plus chained
  /// transfers); drives trace formation. Relaxed-atomic: bumped by
  /// whichever shard executes the block, read by the trace gate and the
  /// trace selector (an approximate profile is all either needs).
  std::atomic<uint64_t> ExecCount{0};
  /// 0 = baseline block, 2 = trace (stitched hot path over several
  /// baseline blocks; Extents then cover every constituent, so SMC or
  /// invalidateRange poisoning any one of them evicts the whole trace).
  /// 1 is unused (DESIGN section 11).
  uint8_t Tier = 0;
  /// Tier 2 only: constituent entry PCs in path order (TraceEntries[0] ==
  /// Addr). Empty below tier 2.
  std::vector<uint32_t> TraceEntries;
  /// Tier 0 only: do not re-attempt trace formation until ExecCount
  /// reaches this (backoff after an unbiased chain graph or a failed
  /// stitch). 0 = eligible immediately once over the trace threshold.
  /// Relaxed-atomic: written under the world lock (backoff), read by the
  /// lock-free trace gate in the chain thunk.
  std::atomic<uint64_t> TraceRetryAt{0};
  /// The blob is position-independent (no SMC-check prelude, which embeds
  /// this Translation's own address as an immediate), so it may be served
  /// from or written to the persistent translation cache. Decided by the
  /// host in setupTranslation; false is always the safe default.
  bool Cacheable = false;
  /// Chain slots: successor translations for constant Boring exits. Filled
  /// eagerly by TransTab when the successor exists; otherwise parked as a
  /// pending waiter and filled on the successor's insertion. Atomic:
  /// installs are release stores under the world lock; the chain thunk
  /// acquire-loads the slot with no lock at all.
  std::vector<std::atomic<Translation *>> Chain;
  /// Per-slot transfer counts (parallel to Chain), bumped by the chain
  /// thunk on every chained transfer out of this translation. True edge
  /// profiles: trace formation follows the dominant *edge*, which a
  /// successor's ExecCount cannot substitute for when the successor has
  /// other predecessors. Relaxed-atomic: every shard's chain thunk bumps
  /// them lock-free while the world-lock holder reads them for trace-path
  /// selection (pinned by MtSchedTests under TSan).
  std::vector<std::atomic<uint64_t>> EdgeExecs;
  /// Back-edges: one entry per filled chain slot pointing at this
  /// translation (duplicates allowed when a predecessor has several slots
  /// targeting us). Maintained by TransTab; makes unchaining O(degree).
  std::vector<Translation *> ChainedFrom;
};

/// The fixed-size, linear-probe translation table.
class TransTab {
public:
  explicit TransTab(size_t CapacityPow2 = 1u << 14);

  Translation *lookup(uint32_t Addr);

  /// Stats-free lookup (internal plumbing and eager chain resolution; does
  /// not perturb the Lookups/Hits counters the benches report).
  Translation *find(uint32_t Addr) const;

  /// Takes ownership; may trigger a FIFO eviction run first. Returns the
  /// stored translation. Re-inserting an address replaces (and properly
  /// unchains) the previous translation. Outgoing chain slots are linked
  /// eagerly against resident translations, and any waiters parked on this
  /// address are linked to the new translation.
  Translation *insert(std::unique_ptr<Translation> T);

  /// Discards translations whose extents intersect [Addr, Addr+Len).
  /// Returns how many were discarded.
  unsigned invalidateRange(uint32_t Addr, uint32_t Len);

  void invalidateAll();

  /// Fills one chain slot (dispatcher's lazy fallback path). Records the
  /// back-edge and removes any pending waiter for the slot. No-op if the
  /// slot is out of range or already chained to \p To.
  void chainTo(Translation *From, uint32_t Slot, Translation *To);

  /// The dispatcher's fast cache resolved a block without consulting the
  /// table; fold the hit into the same statistics view so reported hit
  /// rates are honest.
  void countFastHit() {
    ++S.Lookups;
    ++S.Hits;
    ++S.FastHits;
  }

  size_t size() const { return Count; }
  size_t capacity() const { return Slots.size(); }

  /// Visits every resident translation, insertion-order agnostic. The
  /// visitor must not mutate the table. Callers must hold the world lock
  /// (or run after the schedulers have joined — e.g. tool fini reports
  /// walking the chain graph).
  void forEach(const std::function<void(const Translation &)> &Fn) const {
    for (const Slot &S : Slots)
      if (S.St == Slot::State::Full)
        Fn(*S.T);
  }

  // Statistics for bench/sec39_dispatch.
  struct Stats {
    uint64_t Inserts = 0;
    uint64_t Lookups = 0;  ///< includes fast-cache hits (see countFastHit)
    uint64_t Hits = 0;     ///< includes fast-cache hits
    uint64_t FastHits = 0; ///< the fast-cache share of Hits
    uint64_t EvictionRuns = 0;
    uint64_t Evicted = 0;
    uint64_t Invalidated = 0;
    uint64_t ChainsFilled = 0; ///< chain slots linked (eager + lazy)
    uint64_t Unchains = 0;     ///< chain slots nulled by eviction
  };
  const Stats &stats() const { return S; }

  /// Generation counter bumped on any eviction/invalidation so the
  /// dispatcher's fast cache can drop stale pointers. Relaxed-atomic so
  /// shard fast caches may validate without taking the world lock.
  uint64_t generation() const { return Gen.load(std::memory_order_relaxed); }

  /// Deferred reclamation (sharded scheduler): when set, eraseSlot hands
  /// the evicted translation to this hook instead of destroying it, so the
  /// core can park it in an epoch-stamped limbo list until every shard has
  /// passed a quiescent point (a shard may still be executing the blob it
  /// loaded from a chain slot just before the unchain). Unset (the
  /// default, and always at --sched-threads=1) destruction is immediate —
  /// byte-identical to the single-threaded scheduler.
  void setRetireHook(std::function<void(std::unique_ptr<Translation>)> Fn) {
    RetireFn = std::move(Fn);
  }

private:
  struct Slot {
    enum class State : uint8_t { Empty, Full, Tomb };
    State St = State::Empty;
    std::unique_ptr<Translation> T;
  };

  /// No usable slot: the probe wrapped a table with no empty and no tomb.
  /// (The seed returned slot 0 here, letting insert() silently destroy an
  /// unrelated address's translation.)
  static constexpr size_t NoSlot = SIZE_MAX;

  size_t probeFor(uint32_t Addr) const;
  void evictChunk();
  void eraseSlot(size_t Idx);
  /// Rebuilds the table in place after an eviction run, turning tombs back
  /// into empties (tombs otherwise accumulate forever and drive every
  /// missed probe to a full-table scan). Translation pointers are stable.
  void rehash();
  /// Links \p T's outgoing slots against resident successors (or parks
  /// waiters) and resolves waiters parked on T->Addr.
  void linkChains(Translation *T);
  /// Severs every chain edge touching \p T: predecessors' slots are nulled
  /// and re-parked as waiters on T->Addr; successors drop their back-edges;
  /// T's own unfilled waiters are cancelled. O(degree of T).
  void unlinkChains(Translation *T);
  void removeWaiter(uint32_t Target, const Translation *From, uint32_t Slot);

  std::vector<Slot> Slots;
  size_t Count = 0;
  uint64_t NextSeq = 0;
  std::atomic<uint64_t> Gen{0};
  std::function<void(std::unique_ptr<Translation>)> RetireFn;
  /// target guest address -> (translation, slot) pairs waiting for a
  /// translation of that address to appear.
  std::map<uint32_t, std::vector<std::pair<Translation *, uint32_t>>> Pending;
  Stats S;
};

} // namespace vg

#endif // VG_CORE_TRANSTAB_H
