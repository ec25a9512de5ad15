//===-- guest/GuestMemory.h - Sparse paged guest address space --*- C++ -*-==//
///
/// \file
/// The client's user-mode address space (the "S" of Section 2): a sparse,
/// demand-allocated, 4KB-paged 32-bit memory with per-page permissions.
/// All guest loads/stores — from the reference interpreter, the HVM-executed
/// translations, and the simulated kernel — go through this object, so a
/// single permission model yields guest SIGSEGVs uniformly.
///
/// Concurrency (DESIGN section 14): the page table is a two-level radix
/// tree of atomic pointers (1024 x 1024 covering the 2^20 pages). Lookups
/// are lock-free — two acquire loads — so any number of shard dispatch
/// loops may read/write/fetch concurrently. Mutation (map/unmap/protect)
/// must be externally serialised (the core's world lock; trivially true
/// single-threaded): writers never race each other, only with lock-free
/// readers, which the release publication ordering covers. Unmapping under
/// the sharded scheduler defers page destruction to a graveyard (another
/// shard may be mid-memcpy through the page it just looked up); pages are
/// freed at tear-down. Concurrent guest accesses to the same byte are the
/// guest's own data race — the MT scheduler requires race-free guests, it
/// does not invent ordering for racy ones.
///
//===----------------------------------------------------------------------===//
#ifndef VG_GUEST_GUESTMEMORY_H
#define VG_GUEST_GUESTMEMORY_H

#include "support/Sanitizers.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace vg {

/// Page permission bits.
enum MemPerm : uint8_t {
  PermNone = 0,
  PermRead = 1,
  PermWrite = 2,
  PermExec = 4,
  PermRW = PermRead | PermWrite,
  PermRX = PermRead | PermExec,
  PermRWX = PermRead | PermWrite | PermExec,
};

/// Result of a guest memory access attempt.
struct MemFault {
  bool Faulted = false;
  uint32_t Addr = 0;     ///< first faulting byte
  bool WasWrite = false; ///< access direction
};

/// Sparse paged 32-bit guest memory.
class GuestMemory {
public:
  static constexpr uint32_t PageSize = 4096;
  static constexpr uint32_t PageShift = 12;

  GuestMemory() = default;
  ~GuestMemory();
  GuestMemory(const GuestMemory &) = delete;
  GuestMemory &operator=(const GuestMemory &) = delete;

  /// Maps [Addr, Addr+Len) with \p Perms, zero-filling fresh pages.
  /// Page-granular; Addr/Len are rounded outward. Re-mapping an existing
  /// page just updates its permissions (contents preserved).
  void map(uint32_t Addr, uint32_t Len, uint8_t Perms);

  /// Unmaps (discards) all pages intersecting [Addr, Addr+Len).
  void unmap(uint32_t Addr, uint32_t Len);

  /// Changes permissions on already-mapped pages in the range. Pages not
  /// mapped are skipped.
  void protect(uint32_t Addr, uint32_t Len, uint8_t Perms);

  /// Sharded-scheduler mode: unmapped pages go to a graveyard freed at
  /// destruction instead of being deleted immediately, so a concurrent
  /// lock-free reader that looked a page up just before the unmap never
  /// touches freed memory. Off by default (single-threaded destruction is
  /// immediate, byte-identical to the seed behaviour).
  void setDeferredReclaim(bool On) { DeferReclaim = On; }

  bool isMapped(uint32_t Addr) const { return lookup(Addr >> PageShift); }

  /// Permissions of the page containing \p Addr (PermNone if unmapped).
  uint8_t permsAt(uint32_t Addr) const {
    const Page *P = lookup(Addr >> PageShift);
    return P ? P->Perms.load(std::memory_order_relaxed)
             : static_cast<uint8_t>(PermNone);
  }

  /// Reads \p Len bytes. Requires PermRead on every page unless
  /// \p IgnorePerms (used by kernel/tool accesses which are not subject to
  /// guest protections). Returns fault info.
  MemFault read(uint32_t Addr, void *Out, uint32_t Len,
                bool IgnorePerms = false) const;

  /// Writes \p Len bytes, requiring PermWrite unless \p IgnorePerms.
  MemFault write(uint32_t Addr, const void *Data, uint32_t Len,
                 bool IgnorePerms = false);

  /// Instruction fetch: requires PermExec.
  MemFault fetch(uint32_t Addr, void *Out, uint32_t Len) const;

  // Typed convenience accessors (checked; return fault). Within-page
  // accesses take a fixed-size fast path; page-straddling ones fall back
  // to the generic byte-exact walker.
  // VG_NO_TSAN: guest data — two guest threads racing here is the
  // guest's own race, mirrored faithfully (see Sanitizers.h).
  template <typename T> VG_NO_TSAN MemFault readT(uint32_t A, T &V) const {
    Page *P = lookup(A >> PageShift);
    uint32_t Off = A & (PageSize - 1);
    if (P && (P->Perms.load(std::memory_order_relaxed) & PermRead) &&
        Off <= PageSize - sizeof(T)) {
      std::memcpy(&V, P->Data.data() + Off, sizeof(T));
      return MemFault{};
    }
    return read(A, &V, sizeof(T));
  }
  template <typename T> VG_NO_TSAN MemFault writeT(uint32_t A, T V) {
    Page *P = lookup(A >> PageShift);
    uint32_t Off = A & (PageSize - 1);
    if (P && (P->Perms.load(std::memory_order_relaxed) & PermWrite) &&
        Off <= PageSize - sizeof(T)) {
      std::memcpy(P->Data.data() + Off, &V, sizeof(T));
      return MemFault{};
    }
    return write(A, &V, sizeof(T));
  }
  MemFault readU8(uint32_t A, uint8_t &V) const { return readT(A, V); }
  MemFault readU16(uint32_t A, uint16_t &V) const { return readT(A, V); }
  MemFault readU32(uint32_t A, uint32_t &V) const { return readT(A, V); }
  MemFault readU64(uint32_t A, uint64_t &V) const { return readT(A, V); }
  MemFault writeU8(uint32_t A, uint8_t V) { return writeT(A, V); }
  MemFault writeU16(uint32_t A, uint16_t V) { return writeT(A, V); }
  MemFault writeU32(uint32_t A, uint32_t V) { return writeT(A, V); }
  MemFault writeU64(uint32_t A, uint64_t V) { return writeT(A, V); }

  uint64_t pagesAllocated() const {
    return PageCount.load(std::memory_order_relaxed);
  }

private:
  struct Page {
    std::array<uint8_t, PageSize> Data;
    /// Atomic only so protect() under the world lock does not race the
    /// lock-free permission checks in concurrent shards; plain
    /// relaxed loads/stores, no ordering implied.
    std::atomic<uint8_t> Perms{0};
  };

  // Two-level radix split of the 20-bit page index.
  static constexpr uint32_t TopBits = 10;
  static constexpr uint32_t LeafBits = 10;
  static constexpr uint32_t TopSize = 1u << TopBits;
  static constexpr uint32_t LeafSize = 1u << LeafBits;

  struct Leaf {
    std::array<std::atomic<Page *>, LeafSize> Slots{};
  };

  /// Lock-free: two acquire loads. The acquire pairs with the release
  /// stores in map(), so a non-null page is fully zero-filled and its
  /// permissions are set before any reader can see it.
  Page *lookup(uint32_t PageIdx) const {
    const Leaf *L = Top[PageIdx >> LeafBits].load(std::memory_order_acquire);
    if (!L)
      return nullptr;
    return L->Slots[PageIdx & (LeafSize - 1)].load(std::memory_order_acquire);
  }

  /// Writer-side: returns the leaf for \p PageIdx, publishing a fresh one
  /// if absent. Callers must hold the world lock (or be single-threaded).
  Leaf *ensureLeaf(uint32_t PageIdx);

  /// Detaches the page at \p PageIdx (if any): null the slot, then delete
  /// or defer according to DeferReclaim.
  void dropPage(uint32_t PageIdx);

  template <bool IsWrite>
  MemFault access(uint32_t Addr, void *Buf, uint32_t Len,
                  uint8_t NeedPerm) const;

  std::array<std::atomic<Leaf *>, TopSize> Top{};
  std::atomic<uint64_t> PageCount{0};
  bool DeferReclaim = false;
  /// Pages unmapped while DeferReclaim was on; freed at destruction.
  std::vector<std::unique_ptr<Page>> Graveyard;
};

} // namespace vg

#endif // VG_GUEST_GUESTMEMORY_H
