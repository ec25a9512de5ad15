//===-- guest/GuestMemory.cpp - Sparse paged guest address space ----------==//

#include "guest/GuestMemory.h"

#include <algorithm>

using namespace vg;

GuestMemory::~GuestMemory() {
  for (std::atomic<Leaf *> &TS : Top) {
    Leaf *L = TS.load(std::memory_order_relaxed);
    if (!L)
      continue;
    for (std::atomic<Page *> &PS : L->Slots)
      delete PS.load(std::memory_order_relaxed);
    delete L;
  }
  // Graveyard pages free themselves (unique_ptr).
}

GuestMemory::Leaf *GuestMemory::ensureLeaf(uint32_t PageIdx) {
  std::atomic<Leaf *> &Slot = Top[PageIdx >> LeafBits];
  Leaf *L = Slot.load(std::memory_order_relaxed);
  if (!L) {
    // Mutators are serialised by the world lock, so a plain
    // check-then-publish cannot double-install.
    L = new Leaf();
    Slot.store(L, std::memory_order_release);
  }
  return L;
}

void GuestMemory::dropPage(uint32_t PageIdx) {
  Leaf *L = Top[PageIdx >> LeafBits].load(std::memory_order_relaxed);
  if (!L)
    return;
  std::atomic<Page *> &Slot = L->Slots[PageIdx & (LeafSize - 1)];
  Page *P = Slot.load(std::memory_order_relaxed);
  if (!P)
    return;
  Slot.store(nullptr, std::memory_order_release);
  PageCount.fetch_sub(1, std::memory_order_relaxed);
  if (DeferReclaim)
    Graveyard.emplace_back(P); // a concurrent reader may still hold P
  else
    delete P;
}

void GuestMemory::map(uint32_t Addr, uint32_t Len, uint8_t Perms) {
  if (Len == 0)
    return;
  uint32_t First = Addr >> PageShift;
  uint32_t Last = (Addr + Len - 1) >> PageShift;
  for (uint32_t PI = First;; ++PI) {
    Leaf *L = ensureLeaf(PI);
    std::atomic<Page *> &Slot = L->Slots[PI & (LeafSize - 1)];
    Page *P = Slot.load(std::memory_order_relaxed);
    if (!P) {
      P = new Page();
      P->Data.fill(0);
      P->Perms.store(Perms, std::memory_order_relaxed);
      // Release: a lock-free reader that sees the pointer sees the
      // zero-fill and the permissions.
      Slot.store(P, std::memory_order_release);
      PageCount.fetch_add(1, std::memory_order_relaxed);
    } else {
      P->Perms.store(Perms, std::memory_order_relaxed);
    }
    if (PI == Last)
      break;
  }
}

void GuestMemory::unmap(uint32_t Addr, uint32_t Len) {
  if (Len == 0)
    return;
  uint32_t First = Addr >> PageShift;
  uint32_t Last = (Addr + Len - 1) >> PageShift;
  for (uint32_t PI = First;; ++PI) {
    dropPage(PI);
    if (PI == Last)
      break;
  }
}

void GuestMemory::protect(uint32_t Addr, uint32_t Len, uint8_t Perms) {
  if (Len == 0)
    return;
  uint32_t First = Addr >> PageShift;
  uint32_t Last = (Addr + Len - 1) >> PageShift;
  for (uint32_t PI = First;; ++PI) {
    if (Page *Pg = lookup(PI))
      Pg->Perms.store(Perms, std::memory_order_relaxed);
    if (PI == Last)
      break;
  }
}

// VG_NO_TSAN: the byte copy lands in guest data (see Sanitizers.h);
// the page-table walk alongside it is already atomic.
template <bool IsWrite>
VG_NO_TSAN MemFault GuestMemory::access(uint32_t Addr, void *Buf, uint32_t Len,
                             uint8_t NeedPerm) const {
  uint8_t *Bytes = static_cast<uint8_t *>(Buf);
  uint32_t Done = 0;
  while (Done != Len) {
    uint32_t A = Addr + Done;
    Page *P = lookup(A >> PageShift);
    if (!P ||
        (NeedPerm && !(P->Perms.load(std::memory_order_relaxed) & NeedPerm)))
      return MemFault{true, A, IsWrite};
    uint32_t Off = A & (PageSize - 1);
    uint32_t Chunk = std::min(Len - Done, PageSize - Off);
    if constexpr (IsWrite)
      std::memcpy(P->Data.data() + Off, Bytes + Done, Chunk);
    else
      std::memcpy(Bytes + Done, P->Data.data() + Off, Chunk);
    Done += Chunk;
  }
  return MemFault{};
}

MemFault GuestMemory::read(uint32_t Addr, void *Out, uint32_t Len,
                           bool IgnorePerms) const {
  return access<false>(Addr, Out, Len,
                       IgnorePerms ? 0 : static_cast<uint8_t>(PermRead));
}

MemFault GuestMemory::write(uint32_t Addr, const void *Data, uint32_t Len,
                            bool IgnorePerms) {
  return access<true>(Addr, const_cast<void *>(Data), Len,
                      IgnorePerms ? 0 : static_cast<uint8_t>(PermWrite));
}

MemFault GuestMemory::fetch(uint32_t Addr, void *Out, uint32_t Len) const {
  return access<false>(Addr, Out, Len, PermExec);
}
