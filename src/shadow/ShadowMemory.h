//===-- shadow/ShadowMemory.h - Shadow memory (R2) --------------*- C++ -*-==//
///
/// \file
/// Shadow memory for shadow-value tools (requirement R2). Two layouts are
/// provided, reproducing the Section 5.4 trade-off discussion:
///
///  - ShadowMap: Memcheck's two-level table ("How to shadow every byte of
///    memory used by a program", VEE 2007). A primary array of 64K entries
///    maps each 64KB chunk of guest space to a secondary holding one V-bit
///    byte per guest byte and one A-bit per guest byte. Unmaterialised
///    chunks share two distinguished secondaries (all-NoAccess,
///    all-Defined), so memory cost tracks the client's footprint. Works
///    for the whole 4GB guest space.
///
///  - DirectShadow: the TaintTrace-style layout — one flat allocation at a
///    fixed offset, making shadow access a single add. Fast, but only
///    covers a fixed window of the address space and wastes host memory
///    for sparse clients (the paper: "reserving large areas of address
///    space works most of the time on Linux, but is untenable on many
///    other OSes").
///
/// Encoding (Memcheck's): V-bit 1 = undefined, 0 = defined; A-bit 1 =
/// addressable. Unaddressable bytes read as fully undefined.
///
/// Fast paths (Section 5.4: shadow access dominates shadow-value tool
/// cost): aligned power-of-two accesses take a whole-word path — one
/// secondary lookup, one A-byte mask test, one memcpy of V-bytes — and a
/// per-thread last-secondary cache short-circuits the primary table for
/// consecutive accesses to the same 64KB chunk. probeLoadW32/probeStoreW32
/// are the non-faulting entry points for the JIT-inlined Memcheck fast
/// path (hvm SHPROBE); they never report errors, only succeed or punt.
///
/// Concurrency (DESIGN section 14): the primary is an array of atomic
/// Secondary pointers, so probes and loads are lock-free — one acquire
/// load plus plain byte reads. The chunk state transitions (CoW
/// materialise, whole-chunk DSM swap/reclaim) take a per-chunk striped
/// mutex; the last-secondary cache is thread-local and validated against a
/// per-map cache epoch bumped on every transition, which closes the
/// stale-pointer window where a cached secondary outlives its chunk's
/// reclamation. Under the sharded scheduler reclaimed secondaries are
/// parked in a graveyard until destruction (never freed or reused
/// mid-run), so even a racy guest's stale probe reads allocated memory.
/// Concurrent accesses to the same A-byte (guest bytes within the same
/// 8-byte group) are the guest's own data race; the MT heap allocator
/// rounds allocations to 8-byte granularity so race-free guests never
/// share an A-byte across threads.
///
//===----------------------------------------------------------------------===//
#ifndef VG_SHADOW_SHADOWMEMORY_H
#define VG_SHADOW_SHADOWMEMORY_H

#include "support/Sanitizers.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

namespace vg {

/// Result of an addressability probe.
struct AddrCheck {
  bool Ok = true;
  uint32_t FirstBad = 0;
};

/// Counters for the shadow fast/slow split (surfaced by --profile).
/// Relaxed atomics: bumped lock-free from every shard; the totals are
/// exact, the interleaving is not observable.
struct ShadowStats {
  std::atomic<uint64_t> FastLoads{0};  ///< JIT probe loads resolved inline
  std::atomic<uint64_t> SlowLoads{0};  ///< probe loads punted to mc_LOADV
  std::atomic<uint64_t> FastStores{0}; ///< JIT probe stores resolved inline
  std::atomic<uint64_t> SlowStores{0}; ///< probe stores punted to mc_STOREV
  std::atomic<uint64_t> SecCacheHits{0};   ///< last-secondary cache hits
  std::atomic<uint64_t> SecCacheMisses{0}; ///< went to the primary table
  std::atomic<uint64_t> Materialised{0};   ///< CoW events (monotonic)
  std::atomic<uint64_t> Reclaimed{0}; ///< owned secondaries released
  std::atomic<uint64_t> LiveChunks{0}; ///< currently owned secondaries
  std::atomic<uint64_t> HighWater{0};  ///< maximum LiveChunks ever reached

  void reset() {
    FastLoads = 0;
    SlowLoads = 0;
    FastStores = 0;
    SlowStores = 0;
    SecCacheHits = 0;
    SecCacheMisses = 0;
    Materialised = 0;
    Reclaimed = 0;
    LiveChunks = 0;
    HighWater = 0;
  }
};

/// The two-level Memcheck-style shadow map.
class ShadowMap {
public:
  static constexpr uint32_t ChunkBits = 16;
  static constexpr uint32_t ChunkSize = 1u << ChunkBits; // 64KB
  static constexpr uint32_t NumChunks = 1u << (32 - ChunkBits);

  /// probeLoadW32 result when the inline path must punt (bit 32 set so the
  /// JIT can test the high word; low word is then meaningless).
  static constexpr uint64_t ProbeSlow = 1ull << 32;

  ShadowMap();
  ~ShadowMap();
  ShadowMap(const ShadowMap &) = delete;
  ShadowMap &operator=(const ShadowMap &) = delete;

  /// Sharded-scheduler mode: reclaimed secondaries go to a graveyard freed
  /// at destruction instead of being deleted, so a concurrent lock-free
  /// probe that resolved the secondary just before the reclaim never
  /// touches freed memory. Off by default (single-threaded reclamation
  /// frees immediately, as before).
  void setDeferredReclaim(bool On) { DeferReclaim = On; }

  // --- range operations (the make_mem_* of Table 1) -----------------------
  void makeNoAccess(uint32_t Addr, uint32_t Len);
  void makeUndefined(uint32_t Addr, uint32_t Len);
  void makeDefined(uint32_t Addr, uint32_t Len);
  /// Copies both A and V bits (mremap/realloc support). Overlap-safe.
  void copyRange(uint32_t Src, uint32_t Dst, uint32_t Len);

  // --- per-access operations ----------------------------------------------
  /// Loads V-bits for \p Size (1/2/4/8) bytes at \p Addr, low byte first.
  /// Unaddressable bytes contribute 0xFF. \p Check reports the first
  /// unaddressable byte.
  // VG_NO_TSAN on the V/A byte paths: shadow bytes describing guest
  // data a guest race touches are racy by construction; any candidate
  // value is a correct shadow of the racy guest bytes (Sanitizers.h).
  VG_NO_TSAN uint64_t loadV(uint32_t Addr, uint32_t Size, AddrCheck &Check) const {
    // Whole-word path: an aligned power-of-two access never crosses a
    // chunk and its A-bits sit in one A-byte. (V-byte order assumes a
    // little-endian host, as does the rest of hvm.)
    if (Size >= 2 && Size <= 8 && (Size & (Size - 1)) == 0 &&
        (Addr & (Size - 1)) == 0) {
      const Secondary *S = readable(Addr >> ChunkBits);
      uint32_t Off = Addr & (ChunkSize - 1);
      uint8_t Mask = wordMask(Off, Size);
      if ((S->A[Off >> 3] & Mask) == Mask) {
        uint64_t V = 0;
        std::memcpy(&V, S->V.data() + Off, Size);
        return V;
      }
    }
    return loadVSlow(Addr, Size, Check);
  }
  /// Stores V-bits for \p Size bytes; \p Check as for loadV. Stores to
  /// unaddressable bytes leave their shadow untouched.
  VG_NO_TSAN void storeV(uint32_t Addr, uint32_t Size, uint64_t Vbits, AddrCheck &Check) {
    if (Size >= 2 && Size <= 8 && (Size & (Size - 1)) == 0 &&
        (Addr & (Size - 1)) == 0) {
      uint32_t Chunk = Addr >> ChunkBits;
      uint32_t Off = Addr & (ChunkSize - 1);
      uint8_t Mask = wordMask(Off, Size);
      const Secondary *S = readable(Chunk);
      if ((S->A[Off >> 3] & Mask) == Mask) {
        // readable() just validated/refilled the thread-local cache for
        // this chunk, so its owned pointer is current.
        Secondary *W = TLC.Owned;
        if (!W) {
          // A-bits full but not owned => the Defined DSM. Storing
          // all-defined V-bits there is a no-op; anything else must CoW.
          uint64_t Masked =
              Size == 8 ? Vbits : Vbits & ((1ull << (8 * Size)) - 1);
          if (Masked == 0)
            return;
          W = writable(Chunk);
        }
        std::memcpy(W->V.data() + Off, &Vbits, Size);
        return;
      }
    }
    storeVSlow(Addr, Size, Vbits, Check);
  }

  // --- JIT probe entry points (SHPROBE) -----------------------------------
  /// Non-faulting aligned-4 load probe. Returns the (all-defined) V-word —
  /// i.e. 0 — when the access is aligned, fully addressable, and fully
  /// defined; returns ProbeSlow otherwise so the JIT falls back to the
  /// mc_LOADV helper (which handles errors and partial definedness).
  VG_NO_TSAN uint64_t probeLoadW32(uint32_t Addr) const {
    if ((Addr & 3) == 0) {
      const Secondary *S = readable(Addr >> ChunkBits);
      uint32_t Off = Addr & (ChunkSize - 1);
      uint8_t Mask = static_cast<uint8_t>(0x0Fu << (Off & 7));
      if ((S->A[Off >> 3] & Mask) == Mask) {
        uint32_t W;
        std::memcpy(&W, S->V.data() + Off, 4);
        if (W == 0) {
          St.FastLoads.fetch_add(1, std::memory_order_relaxed);
          return 0;
        }
      }
    }
    St.SlowLoads.fetch_add(1, std::memory_order_relaxed);
    return ProbeSlow;
  }
  /// Non-faulting aligned-4 store probe. Returns 0 when the V-word was
  /// stored inline (chunk fully addressable and either owned, or the
  /// Defined DSM receiving an all-defined word); returns 1 to punt.
  VG_NO_TSAN uint64_t probeStoreW32(uint32_t Addr, uint32_t VWord) {
    if ((Addr & 3) == 0) {
      const Secondary *S = readable(Addr >> ChunkBits);
      uint32_t Off = Addr & (ChunkSize - 1);
      uint8_t Mask = static_cast<uint8_t>(0x0Fu << (Off & 7));
      if ((S->A[Off >> 3] & Mask) == Mask) {
        if (Secondary *W = TLC.Owned) {
          std::memcpy(W->V.data() + Off, &VWord, 4);
          St.FastStores.fetch_add(1, std::memory_order_relaxed);
          return 0;
        }
        if (VWord == 0) { // defined word into the Defined DSM: no-op
          St.FastStores.fetch_add(1, std::memory_order_relaxed);
          return 0;
        }
      }
    }
    St.SlowStores.fetch_add(1, std::memory_order_relaxed);
    return 1;
  }

  /// Calls \p F(Addr) for each 4-aligned word in [Start, End), in
  /// ascending order, whose four A-bits are all set: the same words a
  /// per-word isAddressable(Addr, 4) loop accepts, at a cost proportional
  /// to the materialised chunks in the range. The primary is read once per
  /// 64KB chunk and a DsmNoAccess chunk is skipped whole. It bypasses the
  /// last-secondary cache, so it leaves the cache statistics alone. The
  /// bounds are 64-bit so a range ending at the top of the space cannot
  /// wrap. Callers must exclude concurrent range operations (Memcheck's
  /// leak scan runs with the world stopped).
  template <typename Fn>
  void forEachAddressableWord(uint64_t Start, uint64_t End, Fn F) const {
    End = End < (1ull << 32) ? End : (1ull << 32);
    for (uint64_t A = (Start + 3) & ~3ull; A + 4 <= End;) {
      uint64_t ChunkEnd = ((A >> ChunkBits) + 1) << ChunkBits;
      uint64_t Stop = ChunkEnd < End ? ChunkEnd : End;
      const Secondary *S =
          Primary[A >> ChunkBits].load(std::memory_order_acquire);
      if (S != &DsmNoAccess) {
        for (; A + 4 <= Stop; A += 4) {
          uint32_t Off = static_cast<uint32_t>(A) & (ChunkSize - 1);
          uint8_t Mask = static_cast<uint8_t>(0x0Fu << (Off & 7));
          if ((S->A[Off >> 3] & Mask) == Mask)
            F(static_cast<uint32_t>(A));
        }
      }
      A = ChunkEnd;
    }
  }

  bool isAddressable(uint32_t Addr, uint32_t Len, uint32_t &FirstBad) const;
  /// True if [Addr,Addr+Len) is fully addressable and defined; else sets
  /// \p FirstBad to the first offending byte and \p BadIsUnaddressable.
  bool isDefined(uint32_t Addr, uint32_t Len, uint32_t &FirstBad,
                 bool &BadIsUnaddressable) const;

  uint8_t vbyte(uint32_t Addr) const;
  bool abit(uint32_t Addr) const;
  void setByte(uint32_t Addr, bool Addressable, uint8_t V);

  /// Materialised secondaries (memory-footprint statistics). Monotonic
  /// count of CoW materialise events; see chunksLive() for the current
  /// footprint.
  uint64_t chunksMaterialised() const { return St.Materialised; }
  uint64_t chunksLive() const { return St.LiveChunks; }
  uint64_t chunksHighWater() const { return St.HighWater; }
  uint64_t chunksReclaimed() const { return St.Reclaimed; }

  const ShadowStats &stats() const { return St; }
  void resetStats() { St.reset(); }

private:
  struct Secondary {
    std::array<uint8_t, ChunkSize> V;
    std::array<uint8_t, ChunkSize / 8> A;
  };

  static constexpr uint32_t NoChunk = ~0u;
  static constexpr uint32_t NumStripes = 64;

  /// A-byte mask for an aligned \p Size-byte access at chunk offset
  /// \p Off (the bits all land in A[Off >> 3]).
  static uint8_t wordMask(uint32_t Off, uint32_t Size) {
    return static_cast<uint8_t>(((1u << Size) - 1u) << (Off & 7));
  }

  static bool ownedSec(const Secondary *S) {
    return S != &DsmNoAccess && S != &DsmDefined;
  }

  /// Per-thread last-secondary cache line. Keyed by (map instance, cache
  /// epoch, chunk): any chunk state transition anywhere in the map bumps
  /// the epoch and invalidates every thread's cached entry, so a cached
  /// secondary can never outlive its chunk's reclamation — the PR 2
  /// shared one-entry cache could, once a second thread existed.
  struct TLCache {
    uint64_t Map = 0; ///< ShadowMap::Id of the owning map (0 = empty)
    uint64_t Epoch = 0;
    uint32_t Chunk = NoChunk;
    const Secondary *Sec = nullptr;
    Secondary *Owned = nullptr;
  };
  static thread_local TLCache TLC;

  /// Cached secondary lookup: lock-free (one epoch load + one primary
  /// acquire load on miss). Also records, in TLC.Owned, whether the
  /// resolved secondary is owned (writable without CoW).
  const Secondary *readable(uint32_t ChunkIdx) const {
    uint64_t E = CacheEpoch.load(std::memory_order_acquire);
    if (TLC.Map == Id && TLC.Epoch == E && TLC.Chunk == ChunkIdx) {
      St.SecCacheHits.fetch_add(1, std::memory_order_relaxed);
      return TLC.Sec;
    }
    St.SecCacheMisses.fetch_add(1, std::memory_order_relaxed);
    Secondary *S = Primary[ChunkIdx].load(std::memory_order_acquire);
    TLC = {Id, E, ChunkIdx, S, ownedSec(S) ? S : nullptr};
    return S;
  }
  Secondary *writable(uint32_t ChunkIdx) {
    uint64_t E = CacheEpoch.load(std::memory_order_acquire);
    if (TLC.Map == Id && TLC.Epoch == E && TLC.Chunk == ChunkIdx &&
        TLC.Owned) {
      St.SecCacheHits.fetch_add(1, std::memory_order_relaxed);
      return TLC.Owned;
    }
    Secondary *S = Primary[ChunkIdx].load(std::memory_order_acquire);
    if (ownedSec(S)) {
      TLC = {Id, E, ChunkIdx, S, S};
      return S;
    }
    return materialise(ChunkIdx);
  }

  Secondary *materialise(uint32_t ChunkIdx);
  /// Swaps the whole chunk to a distinguished secondary, reclaiming any
  /// owned secondary (deleted, or parked in the graveyard under the
  /// sharded scheduler).
  void setWholeChunk(uint32_t ChunkIdx, Secondary *Dsm);

  uint64_t loadVSlow(uint32_t Addr, uint32_t Size, AddrCheck &Check) const;
  void storeVSlow(uint32_t Addr, uint32_t Size, uint64_t Vbits,
                  AddrCheck &Check);

  /// The primary: one atomic pointer per 64KB chunk — an owned secondary
  /// or one of the two distinguished ones. Readers acquire-load it with
  /// no lock; transitions happen under the chunk's stripe.
  std::vector<std::atomic<Secondary *>> Primary;
  std::array<std::mutex, NumStripes> Stripes;
  /// Bumped (release) on every materialise and whole-chunk swap;
  /// invalidates every thread's TLC entry for this map.
  std::atomic<uint64_t> CacheEpoch{0};
  std::mutex ReclaimMu; ///< guards Graveyard
  std::vector<std::unique_ptr<Secondary>> Graveyard;
  bool DeferReclaim = false;
  uint64_t Id; ///< process-unique map instance id (TLC key)

  mutable ShadowStats St;

  static Secondary DsmNoAccess, DsmDefined;
  static bool DsmInit;
};

/// Defined inline in the header so every translation unit sees a
/// constant-initialised variable and reads it directly. With an
/// out-of-line definition, other files reach it through a TLS init
/// wrapper whose result UBSan reports as a null pointer.
inline thread_local ShadowMap::TLCache ShadowMap::TLC;

/// The flat, fixed-window shadow layout (ablation comparator).
class DirectShadow {
public:
  /// Covers [WindowBase, WindowBase + WindowSize).
  DirectShadow(uint32_t WindowBase, uint32_t WindowSize);

  bool covers(uint32_t Addr, uint32_t Len) const {
    return Addr >= Base && Addr + Len <= Base + Size && Addr + Len >= Addr;
  }

  void makeNoAccess(uint32_t Addr, uint32_t Len);
  void makeUndefined(uint32_t Addr, uint32_t Len);
  void makeDefined(uint32_t Addr, uint32_t Len);

  uint64_t loadV(uint32_t Addr, uint32_t Sz, AddrCheck &Check) const;
  void storeV(uint32_t Addr, uint32_t Sz, uint64_t Vbits, AddrCheck &Check);

private:
  uint32_t Base, Size;
  std::vector<uint8_t> V; ///< one byte per guest byte
  std::vector<uint8_t> A; ///< one byte per guest byte (keeps it branchless)
};

} // namespace vg

#endif // VG_SHADOW_SHADOWMEMORY_H
