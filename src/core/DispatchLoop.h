//===-- core/DispatchLoop.h - Dispatch and scheduling engine ----*- C++ -*-==//
///
/// \file
/// The dispatcher/scheduler engine (Sections 3.9 and 3.14), extracted from
/// the Core monolith. It owns everything between "a thread is runnable"
/// and "a translation's host code is executing":
///
///   - the serial scheduler (the big lock of Section 3.14: round-robin,
///     100k-block quanta) and its dispatch loop;
///   - the sharded scheduler (--sched-threads=N): shard contexts, the run
///     queue, the world lock, and the QSBR epoch/limbo reclamation of
///     retired translations;
///   - the dispatcher fast caches (one global for the serial path, one per
///     shard) and the lock-free chain-resolve thunks;
///   - hot-tier promotion and trace-formation gating (the policy decisions;
///     translation itself stays in the TranslationService);
///   - call-into-guest (the mechanism replacement and wrapping functions
///     use to run the code they replaced).
///
/// The lock-free paths — Exec.run, the chain thunks, the per-shard fast
/// caches — are exactly the monolith's; the extraction moved them without
/// changing a decision. Slow-path work (signals, client requests, faults,
/// redirects) is delegated to the sibling engines; run-state flags
/// (ProcessExited, FatalSignal) and configuration stay on Core, which this
/// engine reaches through its back-reference.
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_DISPATCHLOOP_H
#define VG_CORE_DISPATCHLOOP_H

#include "core/Core.h"
#include "kernel/RunQueue.h"

#include <mutex>

namespace vg {

class DispatchLoop {
public:
  explicit DispatchLoop(Core &C) : C(C), FastCache(FastCacheSize) {}

  /// Runs the client to completion (or until \p MaxBlocks translations
  /// have been dispatched): the serial scheduler, or the sharded one when
  /// --sched-threads > 1. Ends in Core::finishRun.
  CoreExit run(uint64_t MaxBlocks);

  /// Dispatches blocks for \p TS until the quantum is spent, the process
  /// exits, a fatal signal lands, the thread stops being runnable, or the
  /// PC reaches \p StopPC (callGuest's sentinel).
  void dispatchLoop(ThreadState &TS, uint64_t &Quantum, uint32_t StopPC);

  /// Calls back into guest code from host context (replacement/wrapping).
  /// Returns the callee's r0.
  uint32_t callGuest(ThreadState &TS, uint32_t Addr,
                     const std::vector<uint32_t> &Args);

  /// True while the sharded scheduler is running.
  bool isParallel() const { return RunQ != nullptr; }

  /// Funnels every "the run is over" condition (process exit, fatal
  /// signal, block budget) into the run queue's shutdown. No-op when the
  /// serialised scheduler is running.
  void stopWorld();

  /// A newly spawned thread must enter the run queue while parallel (the
  /// serial scheduler's round-robin scan finds it by polling instead).
  void threadSpawned(int Tid);

  /// Yield request: the serial scheduler's flag plus the thread's own bit.
  void requestYield(int Tid);

  /// Trace install hook: counts the trace and surgically repairs the
  /// serial fast cache's line when only the replaced head died.
  void traceInstalled(Translation *T, uint64_t GenBefore);

  /// The --profile report (reads the dispatch/scheduler counters this
  /// engine owns alongside Core's stats).
  void dumpProfile();

private:
  struct FastCacheEntry {
    uint32_t Addr = ~0u;
    Translation *T = nullptr;
  };
  static constexpr size_t FastCacheSize = 1u << 13; // direct-mapped

  //===--- sharded scheduler (--sched-threads=N, DESIGN section 14) -------===//
  /// One shard: a host thread that pops runnable guest threads from the run
  /// queue and executes them. Everything a shard touches without the world
  /// lock lives here — its own dispatcher fast cache, its own counters for
  /// the lock-free chain path, and its QSBR epoch announcement.
  struct ShardCtx {
    Core *C = nullptr;
    DispatchLoop *D = nullptr;
    unsigned Index = 0;
    /// The shard's snapshot of GlobalEpoch at its last quiescent point
    /// (a moment it provably held no translation pointers); ~0 while
    /// parked in the run queue. reclaimLimbo() frees a retired
    /// translation once every shard has announced an epoch at or past
    /// its retirement stamp.
    std::atomic<uint64_t> LocalEpoch{~0ull};
    std::vector<FastCacheEntry> FastCache; ///< private, never shared
    uint64_t FastCacheGen = 0;
    /// Counters bumped on the lock-free paths; merged into Core::Stats
    /// after the shards join.
    uint64_t ChainedTransfers = 0;
    uint64_t TraceExecs = 0;
    uint64_t TraceSideExits = 0;
    // Profile counters.
    uint64_t Quanta = 0;                ///< run-queue pops that ran a quantum
    uint64_t WorldLockAcquisitions = 0; ///< block-boundary lock round-trips
  };

  /// run() when SchedThreads > 1: spawns the shards, lets them race, joins
  /// them, merges their stats, and finishes exactly like the serial path.
  CoreExit runParallel(uint64_t MaxBlocks);
  void shardMain(ShardCtx &S);
  /// One scheduling quantum of \p TS on shard \p S: the MT twin of
  /// dispatchLoop. Block-boundary work (translate, chain, promote, signals,
  /// syscalls) runs under WorldMu; Exec.run and the chain thunk run
  /// lock-free.
  void dispatchLoopMT(ShardCtx &S, ThreadState &TS);
  /// findOrTranslate against the shard's private fast cache. WorldMu held.
  Translation *findOrTranslateMT(ShardCtx &S, uint32_t PC);
  static const hvm::CodeBlob *chainResolveThunkMT(void *User, void *Cookie,
                                                  uint32_t Slot);
  /// TransTab retire hook while parallel: dead translations park in Limbo
  /// with an epoch stamp instead of being freed (a shard may still be
  /// executing their code). WorldMu held by all callers.
  void retireTranslation(std::unique_ptr<Translation> T);
  /// Frees limbo entries every shard has quiesced past. WorldMu held.
  void reclaimLimbo();

  Translation *findOrTranslate(uint32_t PC);
  /// Hot-tier promotion: retranslate \p PC as a superblock, stalling the
  /// guest. Replaces the old translation (predecessor chain slots relink
  /// eagerly via TransTab).
  Translation *promoteHot(uint32_t PC);
  /// Walks the chain graph from \p Head picking the dominant successor at
  /// each step. Returns a spec with fewer than 2 entries when no biased
  /// path exists (caller backs off via TraceRetryAt).
  TraceSpec selectTracePath(Translation *Head);
  /// Block-boundary fault injection (sigstorm / ttflush). Called at the
  /// top of the dispatch loop.
  void injectBoundaryFaults(ThreadState &TS);

  static const hvm::CodeBlob *chainResolveThunk(void *User, void *Cookie,
                                                uint32_t Slot);

  Core &C;

  bool YieldRequested = false;

  // Sharded-scheduler state (inert at --sched-threads=1: RunQ stays null
  // and nothing else is touched).
  std::mutex WorldMu;             ///< the MT big lock: every slow path
  std::unique_ptr<RunQueue> RunQ; ///< non-null only while runParallel runs
  std::vector<std::unique_ptr<ShardCtx>> Shards;
  std::atomic<uint64_t> GlobalEpoch{0};
  /// Retired translations awaiting their grace period, stamped with the
  /// epoch current at retirement. Guarded by WorldMu.
  std::vector<std::pair<uint64_t, std::unique_ptr<Translation>>> Limbo;
  uint64_t TranslationsRetired = 0;
  uint64_t LimboHighWater = 0;
  /// MT dispatched-block clock: budget accounting and trace timestamps.
  std::atomic<uint64_t> GlobalBlockClock{0};
  uint64_t MaxBlocksMT = ~0ull;
  /// Per-guest-thread yield requests. The serial scheduler keeps using the
  /// single YieldRequested flag (same decisions as ever); shards each honor
  /// their own bit.
  std::array<std::atomic<bool>, Core::MaxThreads> YieldFlags{};
  /// Run-queue counters saved before RunQ is destroyed (profile output).
  uint64_t RunQPushes = 0, RunQPops = 0, RunQWaits = 0;

  std::vector<FastCacheEntry> FastCache; ///< serial dispatcher's cache
  uint64_t FastCacheGen = 0;

  /// Sentinel return address used by callGuest.
  static constexpr uint32_t ReturnSentinel = 0xFFFF0000;
};

} // namespace vg

#endif // VG_CORE_DISPATCHLOOP_H
