//===-- tests/TransTabTests.cpp - Translation-table unit tests ------------==//
///
/// \file
/// Unit tests for TransTab: probing, the 80% occupancy invariant (the
/// seed's full-table wrap returned slot 0 and let insert destroy an
/// unrelated translation), exact-N FIFO eviction, multi-extent
/// invalidation, the eager chain graph (back-edges, waiter parking,
/// relink-on-reinsert), generation bumps, and the merged fast-cache
/// statistics view.
///
//===----------------------------------------------------------------------===//

#include "core/TransTab.h"

#include <gtest/gtest.h>

using namespace vg;

namespace {

/// A minimal translation: one 4-byte extent at Addr, chain slots per the
/// given constant targets (hvm::NoChainTarget = not a constant exit).
std::unique_ptr<Translation>
makeT(uint32_t Addr, std::vector<uint32_t> ChainTargets = {},
      std::vector<std::pair<uint32_t, uint32_t>> Extents = {}) {
  auto T = std::make_unique<Translation>();
  T->Addr = Addr;
  T->Extents = Extents.empty()
                   ? std::vector<std::pair<uint32_t, uint32_t>>{{Addr, Addr + 4}}
                   : std::move(Extents);
  T->Chain = std::vector<std::atomic<vg::Translation *>>(ChainTargets.size());
  T->Blob.ChainTargets = std::move(ChainTargets);
  return T;
}

//===----------------------------------------------------------------------===//
// Probing and the occupancy invariant
//===----------------------------------------------------------------------===//

TEST(TransTab, InsertLookupRoundTrip) {
  TransTab TT(1u << 6);
  Translation *A = TT.insert(makeT(0x1000));
  Translation *B = TT.insert(makeT(0x2000));
  EXPECT_EQ(TT.lookup(0x1000), A);
  EXPECT_EQ(TT.lookup(0x2000), B);
  EXPECT_EQ(TT.lookup(0x3000), nullptr);
  EXPECT_EQ(TT.size(), 2u);
}

TEST(TransTab, ReinsertSameAddressReplaces) {
  TransTab TT(1u << 6);
  Translation *Old = TT.insert(makeT(0x1000));
  (void)Old;
  Translation *New = TT.insert(makeT(0x1000));
  EXPECT_EQ(TT.lookup(0x1000), New);
  EXPECT_EQ(TT.size(), 1u);
}

// Regression for the seed's full-table wrap: probeFor returned slot 0 when
// every slot was full, and insert() then destroyed whatever unrelated
// translation lived there. The fix makes the invariant structural — the
// pre-insert eviction check keeps occupancy at or below 80%, so the table
// can never fill, and a freshly inserted address must always be findable
// while previously inserted survivors are only ever removed by FIFO
// eviction (never silently overwritten).
TEST(TransTab, FullTablePressureNeverDestroysUnrelatedTranslations) {
  TransTab TT(1u << 2); // capacity 4: every insert is near the wrap case
  for (uint32_t I = 0; I != 64; ++I) {
    uint32_t Addr = 0x1000 + I * 0x10;
    TT.insert(makeT(Addr));
    // The occupancy invariant: the table never reaches 100%.
    ASSERT_LT(TT.size(), TT.capacity());
    // The address we just inserted is always findable (the seed bug could
    // leave it shadowed behind an unrelated survivor in its probe path).
    ASSERT_NE(TT.find(Addr), nullptr);
    ASSERT_EQ(TT.find(Addr)->Addr, Addr);
  }
  // Everything that disappeared was accounted for as an eviction or a
  // replacement — nothing was silently destroyed.
  const TransTab::Stats &S = TT.stats();
  EXPECT_EQ(S.Inserts, 64u);
  EXPECT_EQ(S.Inserts, TT.size() + S.Evicted + S.Invalidated);
}

TEST(TransTab, InsertKeepsOccupancyAtOrBelow80Percent) {
  TransTab TT(1u << 4); // capacity 16 -> at most 12 residents pre-insert
  for (uint32_t I = 0; I != 200; ++I) {
    TT.insert(makeT(0x4000 + I * 4));
    ASSERT_LE(TT.size() * 10, TT.capacity() * 8);
  }
}

//===----------------------------------------------------------------------===//
// FIFO eviction
//===----------------------------------------------------------------------===//

// Eviction must remove exactly N = max(1, residents/8) translations, and
// exactly the N oldest. The seed erased every slot with Seq <= threshold,
// which over-evicts whenever the Seq partition is uneven.
TEST(TransTab, EvictionRemovesExactlyTheOldest) {
  TransTab TT(1u << 4); // capacity 16; eviction triggers at 12 residents
  std::vector<uint32_t> Addrs;
  for (uint32_t I = 0; I != 12; ++I) {
    Addrs.push_back(0x1000 + I * 0x100);
    TT.insert(makeT(Addrs.back()));
  }
  ASSERT_EQ(TT.size(), 12u);
  ASSERT_EQ(TT.stats().EvictionRuns, 0u);

  // The 13th insert trips the 80% check: 12 residents / 8 -> evict exactly
  // one, the FIFO-oldest (Addrs[0]).
  TT.insert(makeT(0x9000));
  EXPECT_EQ(TT.stats().EvictionRuns, 1u);
  EXPECT_EQ(TT.stats().Evicted, 1u);
  EXPECT_EQ(TT.find(Addrs[0]), nullptr);
  for (size_t I = 1; I != Addrs.size(); ++I)
    EXPECT_NE(TT.find(Addrs[I]), nullptr) << "survivor " << I << " lost";
  EXPECT_NE(TT.find(0x9000), nullptr);
  EXPECT_EQ(TT.size(), 12u);

  // The next run evicts exactly the next-oldest, and nothing else.
  TT.insert(makeT(0x9100));
  EXPECT_EQ(TT.stats().Evicted, 2u);
  EXPECT_EQ(TT.find(Addrs[1]), nullptr);
  for (size_t I = 2; I != Addrs.size(); ++I)
    EXPECT_NE(TT.find(Addrs[I]), nullptr);
}

//===----------------------------------------------------------------------===//
// Invalidation
//===----------------------------------------------------------------------===//

TEST(TransTab, InvalidateRangeHitsEveryExtent) {
  TransTab TT(1u << 6);
  // A superblock built by branch chasing: entered at 0x1000 but covering
  // guest bytes in two disjoint ranges.
  TT.insert(makeT(0x1000, {}, {{0x1000, 0x1010}, {0x2000, 0x2010}}));
  TT.insert(makeT(0x5000));

  // A write into the *second* extent must kill it even though the entry
  // address is far away.
  EXPECT_EQ(TT.invalidateRange(0x2004, 1), 1u);
  EXPECT_EQ(TT.find(0x1000), nullptr);
  EXPECT_NE(TT.find(0x5000), nullptr);
  EXPECT_EQ(TT.stats().Invalidated, 1u);

  // Non-intersecting ranges touch nothing.
  EXPECT_EQ(TT.invalidateRange(0x3000, 0x1000), 0u);
  EXPECT_NE(TT.find(0x5000), nullptr);
}

TEST(TransTab, GenerationBumpsOnEvictionAndInvalidation) {
  TransTab TT(1u << 6);
  uint64_t G0 = TT.generation();
  TT.insert(makeT(0x1000));
  EXPECT_EQ(TT.generation(), G0) << "plain insert must not bump generation";
  TT.invalidateRange(0x1000, 4);
  uint64_t G1 = TT.generation();
  EXPECT_GT(G1, G0);
  TT.insert(makeT(0x2000));
  TT.invalidateAll();
  EXPECT_GT(TT.generation(), G1);
}

//===----------------------------------------------------------------------===//
// The chain graph
//===----------------------------------------------------------------------===//

TEST(TransTab, ChainsLinkEagerlyInBothInsertionOrders) {
  // Successor first: A's slot links via find() at A's insertion.
  {
    TransTab TT(1u << 6);
    Translation *B = TT.insert(makeT(0x2000));
    Translation *A = TT.insert(makeT(0x1000, {0x2000}));
    ASSERT_EQ(A->Chain.size(), 1u);
    EXPECT_EQ(A->Chain[0], B);
    EXPECT_EQ(TT.stats().ChainsFilled, 1u);
  }
  // Predecessor first: A's slot parks as a waiter and fills the moment B
  // is inserted — the dispatcher never has to fill it lazily.
  {
    TransTab TT(1u << 6);
    Translation *A = TT.insert(makeT(0x1000, {0x2000}));
    EXPECT_EQ(A->Chain[0], nullptr);
    Translation *B = TT.insert(makeT(0x2000));
    EXPECT_EQ(A->Chain[0], B);
    EXPECT_EQ(TT.stats().ChainsFilled, 1u);
  }
}

// Evicting a translation must null every predecessor chain slot pointing
// at it (the dangling-pointer bug class) — and with back-edges this is
// O(degree), not a whole-table scan.
TEST(TransTab, EvictionNullsIncomingChainPointers) {
  TransTab TT(1u << 6);
  Translation *B = TT.insert(makeT(0x2000));
  Translation *A1 = TT.insert(makeT(0x1000, {0x2000}));
  Translation *A2 = TT.insert(makeT(0x1100, {0x2000, hvm::NoChainTarget}));
  ASSERT_EQ(A1->Chain[0], B);
  ASSERT_EQ(A2->Chain[0], B);

  TT.invalidateRange(0x2000, 4);
  EXPECT_EQ(A1->Chain[0], nullptr);
  EXPECT_EQ(A2->Chain[0], nullptr);
  EXPECT_EQ(TT.stats().Unchains, 2u);
}

// After the successor is retranslated (SMC, hot-tier promotion), parked
// predecessors relink to the new translation without dispatcher help.
TEST(TransTab, PredecessorsRelinkAfterReinsertion) {
  TransTab TT(1u << 6);
  TT.insert(makeT(0x2000));
  Translation *A = TT.insert(makeT(0x1000, {0x2000}));
  TT.invalidateRange(0x2000, 4);
  ASSERT_EQ(A->Chain[0], nullptr);

  Translation *B2 = TT.insert(makeT(0x2000));
  EXPECT_EQ(A->Chain[0], B2) << "waiter parked on 0x2000 must relink";
}

// Evicting the *predecessor* must drop its parked waiter and its
// back-edge so the successor never points at freed memory.
TEST(TransTab, EvictingPredecessorCancelsWaitersAndBackEdges) {
  TransTab TT(1u << 6);
  // Waiter case: A waits on 0x2000, then A dies, then B arrives.
  Translation *A = TT.insert(makeT(0x1000, {0x2000}));
  (void)A;
  TT.invalidateRange(0x1000, 4);
  Translation *B = TT.insert(makeT(0x2000));
  EXPECT_TRUE(B->ChainedFrom.empty()) << "cancelled waiter must not link";

  // Back-edge case: C links to B, C dies, B's back-edge list empties.
  Translation *C = TT.insert(makeT(0x1200, {0x2000}));
  ASSERT_EQ(C->Chain[0], B);
  ASSERT_EQ(B->ChainedFrom.size(), 1u);
  TT.invalidateRange(0x1200, 4);
  EXPECT_TRUE(B->ChainedFrom.empty());
}

TEST(TransTab, SelfLoopChainsSurviveEviction) {
  TransTab TT(1u << 6);
  // A block whose Boring exit targets its own entry (a tight guest loop).
  Translation *A = TT.insert(makeT(0x1000, {0x1000}));
  EXPECT_EQ(A->Chain[0], A);
  TT.invalidateRange(0x1000, 4); // must not crash or leave waiters behind
  Translation *A2 = TT.insert(makeT(0x1000, {0x1000}));
  EXPECT_EQ(A2->Chain[0], A2);
  TT.invalidateAll(); // asserts Pending is empty
}

TEST(TransTab, ChainPointersSurviveEvictionRehash) {
  TransTab TT(1u << 4);
  Translation *B = TT.insert(makeT(0x2000));
  Translation *A = TT.insert(makeT(0x1000, {0x2000}));
  ASSERT_EQ(A->Chain[0], B);
  // Force eviction runs; A and B are the oldest pair, so walk right up to
  // the edge: after 10 more inserts the next run would evict B.
  for (uint32_t I = 0; I != 10; ++I)
    TT.insert(makeT(0x8000 + I * 4));
  // Rehash ran only if an eviction run happened; either way the link and
  // the resident pointers must be intact and findable.
  ASSERT_NE(TT.find(0x1000), nullptr);
  ASSERT_NE(TT.find(0x2000), nullptr);
  EXPECT_EQ(TT.find(0x1000), A);
  EXPECT_EQ(TT.find(0x2000), B);
  EXPECT_EQ(A->Chain[0], B);
}

//===----------------------------------------------------------------------===//
// Trace (tier 2) entries
//===----------------------------------------------------------------------===//

/// A tier-2 trace over the given constituent entry addresses: installed at
/// Entries[0], extents covering one 4-byte range per constituent.
std::unique_ptr<Translation>
makeTrace(std::vector<uint32_t> Entries,
          std::vector<uint32_t> ChainTargets = {}) {
  std::vector<std::pair<uint32_t, uint32_t>> Extents;
  for (uint32_t E : Entries)
    Extents.push_back({E, E + 4});
  auto T = makeT(Entries[0], std::move(ChainTargets), std::move(Extents));
  T->Tier = 2;
  T->TraceEntries = std::move(Entries);
  return T;
}

// A trace installs over its head address, replacing the head's baseline
// translation; the other constituents keep their own translations (side
// exits land on them).
TEST(TransTab, TraceInstallReplacesHeadOnly) {
  TransTab TT(1u << 6);
  TT.insert(makeT(0x1000, {0x2000}));
  Translation *B = TT.insert(makeT(0x2000, {0x3000}));
  Translation *C = TT.insert(makeT(0x3000));

  Translation *Tr = TT.insert(makeTrace({0x1000, 0x2000, 0x3000}));
  EXPECT_EQ(TT.find(0x1000), Tr);
  EXPECT_EQ(Tr->Tier, 2);
  EXPECT_EQ(TT.find(0x2000), B) << "constituents must stay resident";
  EXPECT_EQ(TT.find(0x3000), C);
}

// SMC/invalidateRange poisoning ANY constituent extent must evict the
// whole trace, even when the write is nowhere near the entry address —
// the trace inlined code from every constituent.
TEST(TransTab, PoisoningAnyConstituentEvictsWholeTrace) {
  for (uint32_t Victim : {0x1000u, 0x2000u, 0x3000u}) {
    TransTab TT(1u << 6);
    TT.insert(makeT(0x2000));
    TT.insert(makeT(0x3000));
    TT.insert(makeTrace({0x1000, 0x2000, 0x3000}));

    TT.invalidateRange(Victim + 2, 1);
    EXPECT_EQ(TT.find(0x1000), nullptr)
        << "write at " << std::hex << Victim << " must kill the trace";
    // The constituent whose bytes changed dies with it; the others stay.
    for (uint32_t A : {0x2000u, 0x3000u})
      EXPECT_EQ(TT.find(A) != nullptr, A != Victim);
  }
}

// Predecessors chained into a trace are unlinked when it dies, and the
// head's replacement translation re-enables them via the waiter map — the
// same relink contract as any other eviction, here across a tier change.
TEST(TransTab, TraceEvictionUnchainsAndReenablesConstituents) {
  TransTab TT(1u << 6);
  Translation *P = TT.insert(makeT(0x0500, {0x1000}));
  TT.insert(makeT(0x1000, {0x2000}));
  TT.insert(makeT(0x2000));
  Translation *Tr = TT.insert(makeTrace({0x1000, 0x2000}, {0x1000}));
  ASSERT_EQ(P->Chain[0], Tr) << "predecessor must relink to the trace";
  ASSERT_EQ(Tr->Chain[0], Tr) << "loop trace chains to itself";

  // Poison the tail constituent: the trace and the tail die.
  TT.invalidateRange(0x2000, 4);
  EXPECT_EQ(P->Chain[0], nullptr);
  EXPECT_EQ(TT.find(0x1000), nullptr);

  // The head retranslates as a baseline block: the parked predecessor
  // relinks and execution through 0x1000 is re-enabled without dispatcher
  // help.
  Translation *A2 = TT.insert(makeT(0x1000, {0x2000}));
  EXPECT_EQ(P->Chain[0], A2);
  // And the tail's own retranslation refills the head's slot.
  Translation *B2 = TT.insert(makeT(0x2000));
  EXPECT_EQ(A2->Chain[0], B2);
}

//===----------------------------------------------------------------------===//
// The merged statistics view
//===----------------------------------------------------------------------===//

// The dispatcher's fast cache bypasses the table; countFastHit folds those
// hits back in so Lookups/Hits describe every logical lookup (the seed
// under-reported both, and the hit rate, once the fast cache warmed up).
TEST(TransTab, FastCacheHitsFoldIntoLookupStats) {
  TransTab TT(1u << 6);
  TT.insert(makeT(0x1000));
  TT.lookup(0x1000);  // table hit
  TT.lookup(0x2000);  // table miss
  TT.countFastHit();  // fast-cache hit, table bypassed
  TT.countFastHit();

  const TransTab::Stats &S = TT.stats();
  EXPECT_EQ(S.Lookups, 4u);
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.FastHits, 2u);
}

} // namespace
