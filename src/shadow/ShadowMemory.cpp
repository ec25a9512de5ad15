//===-- shadow/ShadowMemory.cpp - Shadow memory ---------------------------==//

#include "shadow/ShadowMemory.h"

#include <algorithm>

using namespace vg;

ShadowMap::Secondary ShadowMap::DsmNoAccess;
ShadowMap::Secondary ShadowMap::DsmDefined;
bool ShadowMap::DsmInit = false;

namespace {
std::atomic<uint64_t> NextMapId{1};
} // namespace

ShadowMap::ShadowMap()
    : Primary(NumChunks), Id(NextMapId.fetch_add(1,
                                                 std::memory_order_relaxed)) {
  if (!DsmInit) {
    DsmNoAccess.V.fill(0xFF);
    DsmNoAccess.A.fill(0x00);
    DsmDefined.V.fill(0x00);
    DsmDefined.A.fill(0xFF);
    DsmInit = true;
  }
  for (std::atomic<Secondary *> &P : Primary)
    P.store(&DsmNoAccess, std::memory_order_relaxed);
}

ShadowMap::~ShadowMap() {
  for (std::atomic<Secondary *> &P : Primary) {
    Secondary *S = P.load(std::memory_order_relaxed);
    if (ownedSec(S))
      delete S;
  }
  // Graveyard secondaries free themselves (unique_ptr).
}

ShadowMap::Secondary *ShadowMap::materialise(uint32_t ChunkIdx) {
  std::lock_guard<std::mutex> Lock(Stripes[ChunkIdx % NumStripes]);
  Secondary *Cur = Primary[ChunkIdx].load(std::memory_order_relaxed);
  if (ownedSec(Cur)) {
    // Another thread materialised this chunk while we waited on the
    // stripe; adopt its secondary.
    TLC = {Id, CacheEpoch.load(std::memory_order_acquire), ChunkIdx, Cur,
           Cur};
    return Cur;
  }
  // Materialise a copy of the distinguished secondary (copy-on-write).
  Secondary *Raw = new Secondary(*Cur);
  // Release: a lock-free reader that sees the pointer sees the copy.
  Primary[ChunkIdx].store(Raw, std::memory_order_release);
  St.Materialised.fetch_add(1, std::memory_order_relaxed);
  uint64_t Live = St.LiveChunks.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t HW = St.HighWater.load(std::memory_order_relaxed);
  while (Live > HW &&
         !St.HighWater.compare_exchange_weak(HW, Live,
                                             std::memory_order_relaxed)) {
  }
  // Invalidate every thread's cached line for this chunk, then update
  // (don't just drop) our own: the caller is about to write here.
  uint64_t E = CacheEpoch.fetch_add(1, std::memory_order_release) + 1;
  TLC = {Id, E, ChunkIdx, Raw, Raw};
  return Raw;
}

void ShadowMap::setWholeChunk(uint32_t ChunkIdx, Secondary *Dsm) {
  std::lock_guard<std::mutex> Lock(Stripes[ChunkIdx % NumStripes]);
  Secondary *Old = Primary[ChunkIdx].load(std::memory_order_relaxed);
  Primary[ChunkIdx].store(Dsm, std::memory_order_release);
  if (ownedSec(Old)) {
    St.Reclaimed.fetch_add(1, std::memory_order_relaxed);
    St.LiveChunks.fetch_sub(1, std::memory_order_relaxed);
    if (DeferReclaim) {
      // A concurrent probe may still hold Old: park it until destruction.
      std::lock_guard<std::mutex> RLock(ReclaimMu);
      Graveyard.emplace_back(Old);
    } else {
      delete Old;
    }
  }
  // The epoch bump drops every thread's cached pointer for this map —
  // including our own entry for this chunk, which just died.
  CacheEpoch.fetch_add(1, std::memory_order_release);
}

namespace {
/// Applies Fn(chunk-relative offset, length) over [Addr, Addr+Len) chunk by
/// chunk.
template <typename Fn>
void forChunks(uint32_t Addr, uint32_t Len, Fn F) {
  while (Len) {
    uint32_t Chunk = Addr >> ShadowMap::ChunkBits;
    uint32_t Off = Addr & (ShadowMap::ChunkSize - 1);
    uint32_t N = std::min(Len, ShadowMap::ChunkSize - Off);
    F(Chunk, Off, N);
    Addr += N;
    Len -= N;
  }
}

/// Mask with bits [Lo, Hi) set, 0 <= Lo < Hi <= 8.
inline uint8_t bitMask(uint32_t Lo, uint32_t Hi) {
  return static_cast<uint8_t>(((1u << (Hi - Lo)) - 1u) << Lo);
}

/// Sets or clears A-bits [Off, Off+N) in \p A: memset over the whole
/// bytes, masked read-modify-write on the (at most two) edge bytes.
void setARange(uint8_t *A, uint32_t Off, uint32_t N, bool Set) {
  if (!N)
    return;
  uint32_t End = Off + N;
  auto Apply = [&](uint32_t Byte, uint8_t M) {
    if (Set)
      A[Byte] |= M;
    else
      A[Byte] &= static_cast<uint8_t>(~M);
  };
  uint32_t FullStart = (Off + 7) & ~7u;
  uint32_t FullEnd = End & ~7u;
  if (FullStart >= FullEnd) {
    // No whole byte: one or two partial bytes.
    if ((Off >> 3) == ((End - 1) >> 3)) {
      Apply(Off >> 3, bitMask(Off & 7, ((End - 1) & 7) + 1));
    } else {
      Apply(Off >> 3, bitMask(Off & 7, 8));
      Apply((End - 1) >> 3, bitMask(0, End & 7));
    }
    return;
  }
  if (Off & 7)
    Apply(Off >> 3, bitMask(Off & 7, 8));
  std::memset(A + (FullStart >> 3), Set ? 0xFF : 0x00,
              (FullEnd - FullStart) >> 3);
  if (End & 7)
    Apply(End >> 3, bitMask(0, End & 7));
}

/// Copies N bits from SrcA (starting at bit SrcOff) to DstA (bit DstOff).
/// When the bit phases match this is whole-byte copies with masked edges;
/// otherwise it falls back to a per-bit loop.
void copyABits(uint8_t *DstA, uint32_t DstOff, const uint8_t *SrcA,
               uint32_t SrcOff, uint32_t N) {
  if (!N)
    return;
  if (((DstOff ^ SrcOff) & 7) != 0) {
    for (uint32_t J = 0; J != N; ++J) {
      uint32_t S = SrcOff + J, D = DstOff + J;
      if (SrcA[S >> 3] & (1u << (S & 7)))
        DstA[D >> 3] |= static_cast<uint8_t>(1u << (D & 7));
      else
        DstA[D >> 3] &= static_cast<uint8_t>(~(1u << (D & 7)));
    }
    return;
  }
  uint32_t D = DstOff, S = SrcOff, Rem = N;
  auto CopyPart = [&](uint32_t Count) { // within a single byte
    uint8_t M = bitMask(D & 7, (D & 7) + Count);
    DstA[D >> 3] =
        static_cast<uint8_t>((DstA[D >> 3] & ~M) | (SrcA[S >> 3] & M));
    D += Count;
    S += Count;
    Rem -= Count;
  };
  if (D & 7)
    CopyPart(std::min(Rem, 8 - (D & 7)));
  if (Rem >= 8) {
    std::memcpy(DstA + (D >> 3), SrcA + (S >> 3), Rem >> 3);
    D += Rem & ~7u;
    S += Rem & ~7u;
    Rem &= 7;
  }
  if (Rem)
    CopyPart(Rem);
}
} // namespace

void ShadowMap::makeNoAccess(uint32_t Addr, uint32_t Len) {
  forChunks(Addr, Len, [&](uint32_t C, uint32_t Off, uint32_t N) {
    if (Off == 0 && N == ChunkSize) {
      setWholeChunk(C, &DsmNoAccess); // reclaims any owned secondary
      return;
    }
    Secondary *S = writable(C);
    std::memset(S->V.data() + Off, 0xFF, N);
    setARange(S->A.data(), Off, N, false);
  });
}

void ShadowMap::makeDefined(uint32_t Addr, uint32_t Len) {
  forChunks(Addr, Len, [&](uint32_t C, uint32_t Off, uint32_t N) {
    if (Off == 0 && N == ChunkSize) {
      setWholeChunk(C, &DsmDefined);
      return;
    }
    Secondary *S = writable(C);
    std::memset(S->V.data() + Off, 0x00, N);
    setARange(S->A.data(), Off, N, true);
  });
}

void ShadowMap::makeUndefined(uint32_t Addr, uint32_t Len) {
  // No distinguished secondary for addressable-but-undefined: always owned.
  forChunks(Addr, Len, [&](uint32_t C, uint32_t Off, uint32_t N) {
    Secondary *S = writable(C);
    std::memset(S->V.data() + Off, 0xFF, N);
    setARange(S->A.data(), Off, N, true);
  });
}

void ShadowMap::copyRange(uint32_t Src, uint32_t Dst, uint32_t Len) {
  if (!Len || Src == Dst)
    return;
  // Stage through temporaries: makes overlap behave like memmove and keeps
  // the scatter at one writable() (i.e. at most one CoW) per chunk instead
  // of per byte. A-bits are staged at Src's bit phase so the gather side is
  // always whole-byte copies.
  std::vector<uint8_t> VStage(Len);
  uint32_t Phase = Src & 7;
  std::vector<uint8_t> AStage((Phase + Len + 7) / 8, 0);
  uint32_t I = 0;
  forChunks(Src, Len, [&](uint32_t C, uint32_t Off, uint32_t N) {
    const Secondary *S = readable(C);
    std::memcpy(VStage.data() + I, S->V.data() + Off, N);
    copyABits(AStage.data(), Phase + I, S->A.data(), Off, N);
    I += N;
  });
  I = 0;
  forChunks(Dst, Len, [&](uint32_t C, uint32_t Off, uint32_t N) {
    Secondary *S = writable(C);
    std::memcpy(S->V.data() + Off, VStage.data() + I, N);
    copyABits(S->A.data(), Off, AStage.data(), Phase + I, N);
    I += N;
  });
}

uint8_t ShadowMap::vbyte(uint32_t Addr) const {
  const Secondary *S = readable(Addr >> ChunkBits);
  return S->V[Addr & (ChunkSize - 1)];
}

bool ShadowMap::abit(uint32_t Addr) const {
  const Secondary *S = readable(Addr >> ChunkBits);
  uint32_t Off = Addr & (ChunkSize - 1);
  return S->A[Off >> 3] & (1u << (Off & 7));
}

void ShadowMap::setByte(uint32_t Addr, bool Addressable, uint8_t V) {
  Secondary *S = writable(Addr >> ChunkBits);
  uint32_t Off = Addr & (ChunkSize - 1);
  S->V[Off] = V;
  if (Addressable)
    S->A[Off >> 3] |= static_cast<uint8_t>(1u << (Off & 7));
  else
    S->A[Off >> 3] &= static_cast<uint8_t>(~(1u << (Off & 7)));
}

// VG_NO_TSAN: V/A bytes of racy guest data (see Sanitizers.h).
VG_NO_TSAN uint64_t ShadowMap::loadVSlow(uint32_t Addr, uint32_t Size,
                              AddrCheck &Check) const {
  uint64_t V = 0;
  for (uint32_t I = 0; I != Size; ++I) {
    uint32_t A = Addr + I;
    uint8_t VB;
    if (!abit(A)) {
      if (Check.Ok) {
        Check.Ok = false;
        Check.FirstBad = A;
      }
      VB = 0xFF;
    } else {
      VB = vbyte(A);
    }
    V |= static_cast<uint64_t>(VB) << (8 * I);
  }
  return V;
}

VG_NO_TSAN void ShadowMap::storeVSlow(uint32_t Addr, uint32_t Size, uint64_t Vbits,
                           AddrCheck &Check) {
  for (uint32_t I = 0; I != Size; ++I) {
    uint32_t A = Addr + I;
    if (!abit(A)) {
      if (Check.Ok) {
        Check.Ok = false;
        Check.FirstBad = A;
      }
      continue;
    }
    Secondary *S = writable(A >> ChunkBits);
    S->V[A & (ChunkSize - 1)] = static_cast<uint8_t>(Vbits >> (8 * I));
  }
}

bool ShadowMap::isAddressable(uint32_t Addr, uint32_t Len,
                              uint32_t &FirstBad) const {
  for (uint32_t I = 0; I != Len; ++I) {
    if (!abit(Addr + I)) {
      FirstBad = Addr + I;
      return false;
    }
  }
  return true;
}

bool ShadowMap::isDefined(uint32_t Addr, uint32_t Len, uint32_t &FirstBad,
                          bool &BadIsUnaddressable) const {
  for (uint32_t I = 0; I != Len; ++I) {
    if (!abit(Addr + I)) {
      FirstBad = Addr + I;
      BadIsUnaddressable = true;
      return false;
    }
    if (vbyte(Addr + I)) {
      FirstBad = Addr + I;
      BadIsUnaddressable = false;
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// DirectShadow
//===----------------------------------------------------------------------===//

DirectShadow::DirectShadow(uint32_t WindowBase, uint32_t WindowSize)
    : Base(WindowBase), Size(WindowSize), V(WindowSize, 0xFF),
      A(WindowSize, 0) {}

void DirectShadow::makeNoAccess(uint32_t Addr, uint32_t Len) {
  if (!covers(Addr, Len))
    return;
  std::memset(V.data() + (Addr - Base), 0xFF, Len);
  std::memset(A.data() + (Addr - Base), 0, Len);
}

void DirectShadow::makeUndefined(uint32_t Addr, uint32_t Len) {
  if (!covers(Addr, Len))
    return;
  std::memset(V.data() + (Addr - Base), 0xFF, Len);
  std::memset(A.data() + (Addr - Base), 1, Len);
}

void DirectShadow::makeDefined(uint32_t Addr, uint32_t Len) {
  if (!covers(Addr, Len))
    return;
  std::memset(V.data() + (Addr - Base), 0, Len);
  std::memset(A.data() + (Addr - Base), 1, Len);
}

uint64_t DirectShadow::loadV(uint32_t Addr, uint32_t Sz,
                             AddrCheck &Check) const {
  if (!covers(Addr, Sz)) {
    Check.Ok = false;
    Check.FirstBad = Addr;
    return ~0ull;
  }
  uint32_t Off = Addr - Base;
  uint64_t Out = 0;
  for (uint32_t I = 0; I != Sz; ++I) {
    if (!A[Off + I] && Check.Ok) {
      Check.Ok = false;
      Check.FirstBad = Addr + I;
    }
    Out |= static_cast<uint64_t>(A[Off + I] ? V[Off + I] : 0xFF) << (8 * I);
  }
  return Out;
}

void DirectShadow::storeV(uint32_t Addr, uint32_t Sz, uint64_t Vbits,
                          AddrCheck &Check) {
  if (!covers(Addr, Sz)) {
    Check.Ok = false;
    Check.FirstBad = Addr;
    return;
  }
  uint32_t Off = Addr - Base;
  for (uint32_t I = 0; I != Sz; ++I) {
    if (!A[Off + I]) {
      if (Check.Ok) {
        Check.Ok = false;
        Check.FirstBad = Addr + I;
      }
      continue;
    }
    V[Off + I] = static_cast<uint8_t>(Vbits >> (8 * I));
  }
}
