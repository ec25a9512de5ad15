//===-- tests/ShadowTests.cpp - ShadowMap fast-path tests -----------------==//
///
/// \file
/// Exercises the word-access fast paths of the two-level shadow map: the
/// aligned whole-word loadV/storeV route, the one-entry last-secondary
/// cache (including its invalidation on range operations), copy-on-write
/// materialisation from both distinguished secondaries, reclamation of
/// owned chunks back to the free list, the non-faulting JIT probes, and
/// randomized equivalence checks of the word path against a byte-by-byte
/// reference and of the addressable-word walker against a per-word
/// isAddressable loop.
///
//===----------------------------------------------------------------------===//

#include "shadow/ShadowMemory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

using namespace vg;

namespace {

constexpr uint32_t CS = ShadowMap::ChunkSize;

/// Byte-loop reference for loadV, built on the public byte accessors.
uint64_t refLoadV(const ShadowMap &SM, uint32_t Addr, uint32_t Size,
                  AddrCheck &Check) {
  uint64_t V = 0;
  for (uint32_t I = 0; I != Size; ++I) {
    uint32_t A = Addr + I;
    uint8_t VB;
    if (!SM.abit(A)) {
      if (Check.Ok) {
        Check.Ok = false;
        Check.FirstBad = A;
      }
      VB = 0xFF;
    } else {
      VB = SM.vbyte(A);
    }
    V |= static_cast<uint64_t>(VB) << (8 * I);
  }
  return V;
}

/// Per-word reference for forEachAddressableWord: the 4-aligned words in
/// [Start, End) that isAddressable accepts.
std::vector<uint32_t> refAddressableWords(const ShadowMap &SM, uint64_t Start,
                                          uint64_t End) {
  std::vector<uint32_t> Out;
  for (uint64_t A = (Start + 3) & ~3ull; A + 4 <= End; A += 4) {
    uint32_t Bad;
    if (SM.isAddressable(static_cast<uint32_t>(A), 4, Bad))
      Out.push_back(static_cast<uint32_t>(A));
  }
  return Out;
}

std::vector<uint32_t> walkAddressableWords(const ShadowMap &SM,
                                           uint64_t Start, uint64_t End) {
  std::vector<uint32_t> Out;
  SM.forEachAddressableWord(Start, End,
                            [&](uint32_t A) { Out.push_back(A); });
  return Out;
}

/// Byte-loop reference for storeV (writes V only where addressable).
void refStoreV(ShadowMap &SM, uint32_t Addr, uint32_t Size, uint64_t Vbits) {
  for (uint32_t I = 0; I != Size; ++I) {
    uint32_t A = Addr + I;
    if (SM.abit(A))
      SM.setByte(A, true, static_cast<uint8_t>(Vbits >> (8 * I)));
  }
}

//===----------------------------------------------------------------------===//
// Word path vs chunk boundaries
//===----------------------------------------------------------------------===//

TEST(ShadowFast, AccessStraddlingChunkBoundaryRoundTrips) {
  ShadowMap SM;
  // [CS-16, CS+16): undefined and addressable on both sides of the seam.
  SM.makeUndefined(CS - 16, 32);
  AddrCheck C;
  // 8-byte store at CS-4 is 4-aligned but not 8-aligned: byte path, and it
  // must land half in each chunk.
  SM.storeV(CS - 4, 8, 0x1122334455667788ull, C);
  EXPECT_TRUE(C.Ok);
  EXPECT_EQ(SM.vbyte(CS - 1), 0x55);
  EXPECT_EQ(SM.vbyte(CS), 0x44);
  AddrCheck C2;
  EXPECT_EQ(SM.loadV(CS - 4, 8, C2), 0x1122334455667788ull);
  // Aligned accesses entirely on either side take the word path and see
  // the same bytes.
  AddrCheck C3;
  EXPECT_EQ(SM.loadV(CS - 4, 4, C3), 0x55667788ull);
  AddrCheck C4;
  EXPECT_EQ(SM.loadV(CS, 4, C4), 0x11223344ull);
}

TEST(ShadowFast, WordLoadOnPartiallyAddressableWordPunts) {
  ShadowMap SM;
  SM.makeDefined(0x4000, 64);
  SM.makeNoAccess(0x4006, 1);
  AddrCheck C;
  uint64_t V = SM.loadV(0x4004, 4, C);
  EXPECT_FALSE(C.Ok);
  EXPECT_EQ(C.FirstBad, 0x4006u);
  EXPECT_EQ((V >> 16) & 0xFF, 0xFFull); // the hole reads undefined
}

//===----------------------------------------------------------------------===//
// Copy-on-write materialisation and reclamation
//===----------------------------------------------------------------------===//

TEST(ShadowFast, CoWFromDefinedDsmPreservesSurroundings) {
  ShadowMap SM;
  uint32_t Base = 5 * CS;
  SM.makeDefined(Base, CS); // whole chunk: stays distinguished
  EXPECT_EQ(SM.chunksMaterialised(), 0u);
  SM.setByte(Base + 100, true, 0xAB); // first write materialises
  EXPECT_EQ(SM.chunksMaterialised(), 1u);
  EXPECT_EQ(SM.vbyte(Base + 100), 0xAB);
  // The rest of the chunk still carries the Defined DSM's contents.
  EXPECT_EQ(SM.vbyte(Base + 99), 0x00);
  EXPECT_TRUE(SM.abit(Base + 99));
  uint32_t Bad;
  EXPECT_TRUE(SM.isAddressable(Base, CS, Bad));
}

TEST(ShadowFast, CoWFromNoAccessDsmPreservesSurroundings) {
  ShadowMap SM;
  uint32_t Base = 9 * CS;
  SM.makeUndefined(Base + 8, 8); // partial write into a NoAccess chunk
  EXPECT_EQ(SM.chunksMaterialised(), 1u);
  EXPECT_TRUE(SM.abit(Base + 8));
  EXPECT_EQ(SM.vbyte(Base + 8), 0xFF);
  // Around the carve-out the chunk is still unaddressable.
  EXPECT_FALSE(SM.abit(Base + 7));
  EXPECT_FALSE(SM.abit(Base + 16));
}

TEST(ShadowFast, WholeChunkOpsReclaimOwnedSecondaries) {
  ShadowMap SM;
  uint32_t Base = 3 * CS;
  SM.makeUndefined(Base + 4, 4); // materialise
  EXPECT_EQ(SM.chunksLive(), 1u);
  EXPECT_EQ(SM.chunksHighWater(), 1u);

  // Whole-chunk makeNoAccess releases the secondary back to the DSM.
  SM.makeNoAccess(Base, CS);
  EXPECT_EQ(SM.chunksLive(), 0u);
  EXPECT_EQ(SM.chunksReclaimed(), 1u);
  uint32_t Bad;
  EXPECT_FALSE(SM.isAddressable(Base + 4, 4, Bad));

  // The next materialise anywhere reuses the freed slot.
  SM.makeUndefined(7 * CS + 4, 4);
  EXPECT_EQ(SM.chunksMaterialised(), 2u);
  EXPECT_EQ(SM.chunksLive(), 1u);
  EXPECT_EQ(SM.chunksHighWater(), 1u); // never two live at once

  // Whole-chunk makeDefined reclaims too.
  SM.makeDefined(7 * CS, CS);
  EXPECT_EQ(SM.chunksLive(), 0u);
  EXPECT_EQ(SM.chunksReclaimed(), 2u);
  bool Unaddr;
  EXPECT_TRUE(SM.isDefined(7 * CS, CS, Bad, Unaddr));
}

//===----------------------------------------------------------------------===//
// Last-secondary cache
//===----------------------------------------------------------------------===//

TEST(ShadowFast, SecondaryCacheCountsHitsWithinAChunk) {
  ShadowMap SM;
  SM.makeDefined(0x8000, 256);
  SM.resetStats();
  AddrCheck C;
  for (uint32_t I = 0; I != 64; ++I)
    SM.loadV(0x8000 + 4 * I, 4, C);
  const ShadowStats &St = SM.stats();
  EXPECT_GE(St.SecCacheHits, 63u);
  EXPECT_LE(St.SecCacheMisses, 1u);
}

TEST(ShadowFast, CacheInvalidatedByWholeChunkRangeOps) {
  ShadowMap SM;
  uint32_t Base = 11 * CS;
  SM.makeUndefined(Base, 64);
  AddrCheck C;
  SM.storeV(Base, 4, 0, C);
  EXPECT_EQ(SM.loadV(Base, 4, C), 0ull); // cache now holds this chunk

  // Swap the whole chunk to NoAccess: the cached secondary must not be
  // consulted again.
  SM.makeNoAccess(Base, CS);
  AddrCheck C2;
  SM.loadV(Base, 4, C2);
  EXPECT_FALSE(C2.Ok);
  EXPECT_FALSE(SM.abit(Base));

  // And to Defined: reads must see the Defined DSM, stores must CoW, not
  // scribble on a stale (freed) secondary.
  SM.makeDefined(Base, CS);
  AddrCheck C3;
  EXPECT_EQ(SM.loadV(Base, 4, C3), 0ull);
  EXPECT_TRUE(C3.Ok);
  uint64_t Before = SM.chunksMaterialised();
  AddrCheck C4;
  SM.storeV(Base, 4, 0xFFFFFFFFull, C4);
  EXPECT_EQ(SM.chunksMaterialised(), Before + 1);
  EXPECT_EQ(SM.vbyte(Base), 0xFF);
}

TEST(ShadowFast, ReclaimThenImmediateProbeNeverSeesStaleSecondary) {
  // The stale-cache window: the last-secondary cache resolves an owned
  // secondary, whole-chunk reclamation releases that secondary, and the
  // very next probe of the same chunk address must re-resolve through the
  // primary — a stale pointer would read freed memory (or, with slot
  // reuse, another chunk's shadow). The epoch-validated per-thread cache
  // makes the reload unconditional; probe every cached entry point.
  ShadowMap SM;
  uint32_t Base = 21 * CS;
  SM.makeUndefined(Base, 64);
  AddrCheck C;
  SM.storeV(Base, 4, 0, C);
  ASSERT_EQ(SM.probeLoadW32(Base), 0ull); // cache holds the owned secondary
  ASSERT_EQ(SM.chunksLive(), 1u);

  SM.makeNoAccess(Base, CS); // reclaims the cached secondary
  ASSERT_EQ(SM.chunksLive(), 0u);
  EXPECT_EQ(SM.probeLoadW32(Base), ShadowMap::ProbeSlow);
  EXPECT_EQ(SM.probeStoreW32(Base, 0), 1ull);
  EXPECT_FALSE(SM.abit(Base));
  AddrCheck C2;
  EXPECT_EQ(SM.loadV(Base, 4, C2) & 0xFFFFFFFFull, 0xFFFFFFFFull);
  EXPECT_FALSE(C2.Ok);

  // Same window under deferred reclamation (the sharded scheduler's
  // mode): the reclaimed secondary is parked, not freed, and the probe
  // still re-resolves to the DSM.
  ShadowMap SD;
  SD.setDeferredReclaim(true);
  SD.makeUndefined(Base, 64);
  AddrCheck C3;
  SD.storeV(Base, 4, 0, C3);
  ASSERT_EQ(SD.probeLoadW32(Base), 0ull);
  SD.makeDefined(Base, CS); // whole-chunk swap to the Defined DSM
  EXPECT_EQ(SD.chunksLive(), 0u);
  EXPECT_EQ(SD.chunksReclaimed(), 1u);
  EXPECT_EQ(SD.probeLoadW32(Base), 0ull); // Defined DSM, not the old copy
  AddrCheck C4;
  SD.storeV(Base, 4, 0xFFFFFFFFull, C4); // must CoW afresh
  EXPECT_EQ(SD.chunksMaterialised(), 2u);
  EXPECT_EQ(SD.vbyte(Base), 0xFF);
}

//===----------------------------------------------------------------------===//
// JIT probes
//===----------------------------------------------------------------------===//

TEST(ShadowFast, ProbeLoadSucceedsOnlyOnAlignedDefinedWords) {
  ShadowMap SM;
  SM.makeDefined(0x6000, 64);
  SM.makeUndefined(0x6020, 4);
  SM.resetStats();

  EXPECT_EQ(SM.probeLoadW32(0x6000), 0ull);              // defined word
  EXPECT_EQ(SM.probeLoadW32(0x6002), ShadowMap::ProbeSlow); // unaligned
  EXPECT_EQ(SM.probeLoadW32(0x6020), ShadowMap::ProbeSlow); // undefined
  EXPECT_EQ(SM.probeLoadW32(0x9000), ShadowMap::ProbeSlow); // unaddressable

  const ShadowStats &St = SM.stats();
  EXPECT_EQ(St.FastLoads, 1u);
  EXPECT_EQ(St.SlowLoads, 3u);
}

TEST(ShadowFast, ProbeLoadPuntsOnPartiallyDefinedWord) {
  ShadowMap SM;
  SM.makeDefined(0x6000, 8);
  SM.setByte(0x6001, true, 0xFF); // one undefined byte inside the word
  EXPECT_EQ(SM.probeLoadW32(0x6000), ShadowMap::ProbeSlow);
}

TEST(ShadowFast, ProbeStoreWritesInlineOnOwnedChunks) {
  ShadowMap SM;
  SM.makeUndefined(0x7000, 16); // owned chunk
  EXPECT_EQ(SM.probeStoreW32(0x7000, 0), 0ull);
  EXPECT_EQ(SM.vbyte(0x7000), 0x00); // V-word landed
  EXPECT_EQ(SM.vbyte(0x7003), 0x00);
  EXPECT_EQ(SM.probeStoreW32(0x7004, 0x00FF0000u), 0ull);
  EXPECT_EQ(SM.vbyte(0x7006), 0xFF); // partial definedness stored exactly
  EXPECT_EQ(SM.probeStoreW32(0x7002, 0), 1ull); // unaligned: punt
}

TEST(ShadowFast, ProbeStoreOnDefinedDsmAvoidsMaterialisation) {
  ShadowMap SM;
  uint32_t Base = 13 * CS;
  SM.makeDefined(Base, CS); // distinguished, not owned
  EXPECT_EQ(SM.chunksMaterialised(), 0u);

  // Storing an all-defined word into the Defined DSM is a no-op: no CoW.
  EXPECT_EQ(SM.probeStoreW32(Base + 8, 0), 0ull);
  EXPECT_EQ(SM.chunksMaterialised(), 0u);

  // Storing undefined bits must NOT be absorbed: the probe punts and the
  // map is untouched (the helper handles the store).
  EXPECT_EQ(SM.probeStoreW32(Base + 8, 0xFFFFFFFFu), 1ull);
  EXPECT_EQ(SM.chunksMaterialised(), 0u);
  EXPECT_EQ(SM.vbyte(Base + 8), 0x00);

  // NoAccess chunks always punt.
  EXPECT_EQ(SM.probeStoreW32(17 * CS, 0), 1ull);
}

//===----------------------------------------------------------------------===//
// copyRange
//===----------------------------------------------------------------------===//

TEST(ShadowFast, CopyRangeAcrossChunksWithMismatchedBitPhase) {
  ShadowMap SM;
  uint32_t Src = CS - 32; // spans the chunk seam
  SM.makeUndefined(Src, 64);
  AddrCheck C;
  for (uint32_t I = 0; I != 64; I += 4)
    SM.storeV(Src + I, 4, 0x01010101ull * (I / 4), C);
  SM.makeNoAccess(Src + 10, 3); // an A-hole to carry along
  // Dst offset differs from Src modulo 8: exercises the per-bit A copy.
  uint32_t Dst = 21 * CS + 13;
  SM.makeDefined(Dst - 8, 96);
  SM.copyRange(Src, Dst, 64);
  for (uint32_t I = 0; I != 64; ++I) {
    EXPECT_EQ(SM.abit(Dst + I), SM.abit(Src + I)) << I;
    if (SM.abit(Src + I)) {
      EXPECT_EQ(SM.vbyte(Dst + I), SM.vbyte(Src + I)) << I;
    }
  }
  // Bytes just outside the destination window are untouched.
  EXPECT_EQ(SM.vbyte(Dst - 1), 0x00);
  EXPECT_TRUE(SM.abit(Dst + 64));
}

TEST(ShadowFast, CopyRangeOverlapBehavesLikeMemmove) {
  ShadowMap SM;
  SM.makeUndefined(0x3000, 32);
  AddrCheck C;
  SM.storeV(0x3000, 8, 0x0807060504030201ull, C);
  SM.copyRange(0x3000, 0x3003, 8); // forward overlap
  for (uint32_t I = 0; I != 8; ++I)
    EXPECT_EQ(SM.vbyte(0x3003 + I), I + 1) << I;
  // Backward overlap.
  ShadowMap SM2;
  SM2.makeUndefined(0x3000, 32);
  SM2.storeV(0x3008, 8, 0x0807060504030201ull, C);
  SM2.copyRange(0x3008, 0x3005, 8);
  for (uint32_t I = 0; I != 8; ++I)
    EXPECT_EQ(SM2.vbyte(0x3005 + I), I + 1) << I;
}

//===----------------------------------------------------------------------===//
// Randomized equivalence: word path vs byte loop
//===----------------------------------------------------------------------===//

TEST(ShadowFast, RandomizedLoadsMatchByteLoopReference) {
  ShadowMap SM;
  std::mt19937 Rng(0xC0FFEE);
  uint32_t Base = 15 * CS - 0x100; // window straddles a chunk seam
  uint32_t Window = 0x200;
  for (uint32_t I = 0; I != Window; ++I) {
    bool Addressable = (Rng() % 10) != 0; // ~10% holes
    SM.setByte(Base + I, Addressable, static_cast<uint8_t>(Rng()));
  }
  const uint32_t Sizes[4] = {1, 2, 4, 8};
  for (int T = 0; T != 4000; ++T) {
    uint32_t Size = Sizes[Rng() % 4];
    uint32_t Addr = Base + Rng() % (Window - Size);
    if (T & 1)
      Addr &= ~(Size - 1); // half the trials aligned (fast path)
    AddrCheck CFast, CRef;
    uint64_t VFast = SM.loadV(Addr, Size, CFast);
    uint64_t VRef = refLoadV(SM, Addr, Size, CRef);
    ASSERT_EQ(VFast, VRef) << "addr=" << Addr << " size=" << Size;
    ASSERT_EQ(CFast.Ok, CRef.Ok) << "addr=" << Addr << " size=" << Size;
    if (!CRef.Ok) {
      ASSERT_EQ(CFast.FirstBad, CRef.FirstBad);
    }
  }
}

TEST(ShadowFast, RandomizedStoresMatchByteLoopReference) {
  ShadowMap SM, Ref;
  std::mt19937 Rng(0xBEEF);
  uint32_t Base = 25 * CS - 0x80;
  uint32_t Window = 0x100;
  for (uint32_t I = 0; I != Window; ++I) {
    bool Addressable = (Rng() % 8) != 0;
    uint8_t V = static_cast<uint8_t>(Rng());
    SM.setByte(Base + I, Addressable, V);
    Ref.setByte(Base + I, Addressable, V);
  }
  const uint32_t Sizes[4] = {1, 2, 4, 8};
  for (int T = 0; T != 4000; ++T) {
    uint32_t Size = Sizes[Rng() % 4];
    uint32_t Addr = Base + Rng() % (Window - Size);
    if (T & 1)
      Addr &= ~(Size - 1);
    uint64_t Vbits = (static_cast<uint64_t>(Rng()) << 32) | Rng();
    AddrCheck C;
    SM.storeV(Addr, Size, Vbits, C);
    refStoreV(Ref, Addr, Size, Vbits);
  }
  for (uint32_t I = 0; I != Window; ++I) {
    ASSERT_EQ(SM.abit(Base + I), Ref.abit(Base + I)) << I;
    if (Ref.abit(Base + I)) {
      ASSERT_EQ(SM.vbyte(Base + I), Ref.vbyte(Base + I)) << I;
    }
  }
}

//===----------------------------------------------------------------------===//
// Randomized equivalence: addressable-word walker vs per-word loop
//===----------------------------------------------------------------------===//

TEST(ShadowFast, RandomizedWalkerMatchesPerWordReference) {
  ShadowMap SM;
  std::mt19937 Rng(0xA11CE);
  // Four chunks in the middle of the space, and the last chunks below the
  // highest page-aligned segment end.
  const uint64_t Lo = 40ull * CS, Hi = Lo + 4ull * CS;
  const uint64_t TopEnd = 0xFFFFF000ull, TopLo = TopEnd - 2ull * CS;
  // Picks an address near a chunk edge (to the byte), or anywhere.
  auto PickAddr = [&](uint64_t From, uint64_t To) -> uint64_t {
    if (Rng() % 2) {
      uint64_t Edge = (From & ~static_cast<uint64_t>(CS - 1)) +
                      (Rng() % ((To - From) / CS + 2)) * CS;
      int64_t Jitter = static_cast<int64_t>(Rng() % 9) - 4;
      Edge = static_cast<uint64_t>(static_cast<int64_t>(Edge) + Jitter);
      return std::clamp(Edge, From, To);
    }
    return From + Rng() % (To - From + 1);
  };
  auto Check = [&](uint64_t Start, uint64_t End) {
    ASSERT_EQ(walkAddressableWords(SM, Start, End),
              refAddressableWords(SM, Start, End))
        << "range [" << Start << ", " << End << ")";
  };
  for (int Round = 0; Round != 300; ++Round) {
    bool Top = Rng() % 4 == 0;
    uint64_t From = Top ? TopLo : Lo, To = Top ? TopEnd : Hi;
    uint64_t A = PickAddr(From, To), B = PickAddr(From, To);
    if (Rng() % 5 == 0) { // whole chunks: the distinguished secondaries
      A &= ~static_cast<uint64_t>(CS - 1);
      B = std::min(To, A + CS * (1 + Rng() % 2));
    }
    if (A > B)
      std::swap(A, B);
    if (A == B)
      continue;
    uint32_t Addr = static_cast<uint32_t>(A);
    uint32_t Len = static_cast<uint32_t>(B - A);
    switch (Rng() % 3) {
    case 0:
      SM.makeNoAccess(Addr, Len);
      break;
    case 1:
      SM.makeUndefined(Addr, Len);
      break;
    default:
      SM.makeDefined(Addr, Len);
      break;
    }
    if (Round % 10 == 9) {
      Check(Lo, Hi);
      Check(TopLo, TopEnd);
      uint64_t QA = PickAddr(Lo, Hi), QB = PickAddr(Lo, Hi);
      Check(std::min(QA, QB), std::max(QA, QB));
    }
  }
  // A whole DsmDefined chunk is walked word by word; the top range ends
  // exactly at 0xFFFFF000, and a bound past the top of the space clamps
  // instead of wrapping.
  SM.makeDefined(static_cast<uint32_t>(Lo + CS), CS);
  SM.makeDefined(static_cast<uint32_t>(TopEnd - 16), 16);
  Check(Lo, Hi);
  Check(TopLo, TopEnd);
  std::vector<uint32_t> Tail = walkAddressableWords(SM, TopEnd - 16, TopEnd);
  EXPECT_EQ(Tail, (std::vector<uint32_t>{0xFFFFEFF0u, 0xFFFFEFF4u,
                                         0xFFFFEFF8u, 0xFFFFEFFCu}));
  SM.makeDefined(0xFFFFFFF8u, 8);
  EXPECT_EQ(walkAddressableWords(SM, 0xFFFFFFF0ull, 1ull << 33),
            (std::vector<uint32_t>{0xFFFFFFF8u, 0xFFFFFFFCu}));
  // The walk reads the primary directly: the secondary-cache counters
  // stay put.
  SM.resetStats();
  EXPECT_FALSE(walkAddressableWords(SM, 0, 1ull << 32).empty());
  EXPECT_EQ(SM.stats().SecCacheHits, 0u);
  EXPECT_EQ(SM.stats().SecCacheMisses, 0u);
}

} // namespace
