//===-- core/DispatchLoop.h - Dispatch and scheduling engine ----*- C++ -*-==//
///
/// \file
/// The dispatcher/scheduler engine (Sections 3.9 and 3.14). It owns
/// everything between "a thread is runnable" and "a translation's host
/// code is executing":
///
///   - one dispatch loop (dispatchQuantum, with its fast-cache lookup and
///     lock-free chain-resolve thunk), run on a dispatch context;
///   - the two schedulers driving it: the serial round-robin picker (the
///     big lock of Section 3.14) on the core's exclusive context, and the
///     sharded run queue (--sched-threads=N) with one context per shard,
///     a world lock, and QSBR epoch/limbo reclamation of retirements;
///   - trace-formation gating (translation itself stays in the
///     TranslationService);
///   - call-into-guest (replacement and wrapping functions run the code
///     they replaced), also on the exclusive context.
///
/// Slow-path work (signals, client requests, faults, redirects) is
/// delegated to the sibling engines; run-state flags and configuration
/// stay on Core, reached through the back-reference.
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
  explicit DispatchLoop(Core &C) : C(C) {
    CoreCtx.D = this;
    CoreCtx.Exclusive = true;
    CoreCtx.FastCache.resize(FastCacheSize);
  }

  /// Runs the client to completion (or until \p MaxBlocks translations
  /// have been dispatched): the serial scheduler, or the sharded one when
  /// --sched-threads > 1. Ends in Core::finishRun.
  CoreExit run(uint64_t MaxBlocks);

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

  /// Yield request: ends the quantum of thread \p Tid.
  void requestYield(int Tid);

  /// The dispatched-block clock: every block any context executes,
  /// callGuest's included. Budget accounting and trace timestamps.
  const std::atomic<uint64_t> &blockClock() const { return BlockClock; }

  /// The --profile report (reads the dispatch/scheduler counters this
  /// engine owns alongside Core's stats).
  void dumpProfile();

private:
  struct FastCacheEntry {
    uint32_t Addr = ~0u;
    Translation *T = nullptr;
  };
  static constexpr size_t FastCacheSize = 1u << 13; // direct-mapped

  /// One dispatch context: the core's exclusive one, or a shard's (a host
  /// thread popping runnable guest threads off the run queue). Everything
  /// the chain thunk touches lives here.
  struct ShardCtx {
    DispatchLoop *D = nullptr;
    /// The core's own context, run by the serial scheduler and callGuest.
    /// It has the world to itself (serially, or inside a host replacement
    /// whose shard holds WorldMu), so it takes no lock and is the only
    /// context whose chain thunk may touch the profiler. Nothing else in
    /// the loop depends on the kind of context.
    bool Exclusive = false;
    /// The shard's snapshot of GlobalEpoch at its last quiescent point
    /// (a moment it provably held no translation pointers); ~0 while
    /// parked in the run queue. reclaimLimbo() frees a retired
    /// translation once every shard has announced an epoch at or past
    /// its retirement stamp.
    std::atomic<uint64_t> LocalEpoch{~0ull};
    std::vector<FastCacheEntry> FastCache; ///< private, never shared
    uint64_t FastCacheGen = 0;
    uint64_t Unclocked = 0; ///< blocks not yet added to BlockClock
    /// Dispatch counters, folded into Core::Stats when the run ends.
    uint64_t FastCacheHits = 0;
    uint64_t FastCacheMisses = 0;
    uint64_t ChainedTransfers = 0;
    uint64_t TraceExecs = 0;
    uint64_t TraceSideExits = 0;
    // Sharded-scheduler profile counters.
    uint64_t Quanta = 0;                ///< run-queue pops that ran a quantum
    uint64_t WorldLockAcquisitions = 0; ///< block-boundary lock round-trips
  };

  /// Dispatches blocks for \p TS on context \p S until the quantum is
  /// spent, the process exits, a fatal signal lands, the thread stops being
  /// runnable or yields, or the PC reaches \p StopPC (callGuest's sentinel,
  /// whose run a yield does not stop). Block-boundary work (translate,
  /// chain, trace, signals, syscalls) runs under the world lock; Exec.run
  /// and the chain thunk run lock-free.
  void dispatchQuantum(ShardCtx &S, ThreadState &TS, uint64_t &Quantum,
                       uint32_t StopPC);
  /// The world lock for \p S: WorldMu for a shard, nothing for the
  /// exclusive context. Also advances the block clock by \p S's blocks.
  std::unique_lock<std::mutex> lockWorld(ShardCtx &S);
  /// Translation lookup through \p S's fast cache. World lock held.
  Translation *findOrTranslate(ShardCtx &S, uint32_t PC);
  /// After an install that replaced the block at \p PC with \p T:
  /// repairs \p S's line surgically when only the replaced translation died
  /// (any bigger generation jump lets the generation check wipe the cache
  /// on the next lookup).
  void repairFastCache(ShardCtx &S, uint32_t PC, Translation *T,
                       uint64_t GenBefore);
  static const hvm::CodeBlob *chainResolveThunk(void *User, void *Cookie,
                                                uint32_t Slot);
  /// The trace gate the dispatcher and the chain thunk share: a baseline
  /// block whose \p Execs reach the head threshold and any backoff.
  bool traceHead(const Translation &T, uint64_t Execs) const {
    return Execs >= C.TraceHeadExecs && T.Tier == 0 &&
           Execs >= T.TraceRetryAt.load(std::memory_order_relaxed);
  }
  /// Blocks left in this quantum: ThreadQuantum, capped by the budget.
  uint64_t quantumLeft() const;
  /// Adds \p S's dispatch counters into Core::Stats and zeroes them.
  void foldCounters(ShardCtx &S);

  /// The round-robin scheduler: one guest thread at a time on CoreCtx.
  void runSerial();
  /// run() when SchedThreads > 1: spawns the shards, lets them race, and
  /// joins them.
  void runParallel();
  void shardMain(ShardCtx &S);
  /// TransTab retire hook while parallel: dead translations park in Limbo
  /// with an epoch stamp instead of being freed (a shard may still be
  /// executing their code). WorldMu held by all callers.
  void retireTranslation(std::unique_ptr<Translation> T);
  /// Frees limbo entries every shard has quiesced past. WorldMu held.
  void reclaimLimbo();

  /// Walks the chain graph from \p Head picking the dominant successor at
  /// each step. Returns a spec with fewer than 2 entries when no biased
  /// path exists (caller backs off via TraceRetryAt).
  TraceSpec selectTracePath(Translation *Head);
  static constexpr size_t MaxTraceBlocks = 8; ///< constituents per trace
  /// Block-boundary fault injection (sigstorm / ttflush). Called at the
  /// top of the dispatch loop.
  void injectBoundaryFaults(ThreadState &TS);

  Core &C;

  /// The exclusive context: the serial scheduler's and callGuest's.
  ShardCtx CoreCtx;

  /// See blockClock().
  std::atomic<uint64_t> BlockClock{0};
  uint64_t MaxBlocks = ~0ull; ///< run()'s block budget
  /// Per-guest-thread yield requests, cleared when a scheduler quantum starts.
  std::array<std::atomic<bool>, Core::MaxThreads> YieldFlags{};

  // Sharded-scheduler state (inert at --sched-threads=1: RunQ stays null,
  // WorldMu is never taken and Limbo stays empty).
  std::mutex WorldMu;             ///< the MT big lock: every slow path
  std::unique_ptr<RunQueue> RunQ; ///< non-null only while runParallel runs
  std::vector<std::unique_ptr<ShardCtx>> Shards;
  std::atomic<uint64_t> GlobalEpoch{0};
  /// Retired translations awaiting their grace period, stamped with the
  /// epoch current at retirement. Guarded by WorldMu.
  std::vector<std::pair<uint64_t, std::unique_ptr<Translation>>> Limbo;
  uint64_t TranslationsRetired = 0;
  uint64_t LimboHighWater = 0;
  /// Run-queue counters saved before RunQ is destroyed (profile output).
  uint64_t RunQPushes = 0, RunQPops = 0, RunQWaits = 0;

  /// Sentinel return address used by callGuest.
  static constexpr uint32_t ReturnSentinel = 0xFFFF0000;
  static constexpr uint32_t NoStopPC = 0xFFFFFFFF; ///< a scheduler quantum
};

} // namespace vg

#endif // VG_CORE_DISPATCHLOOP_H
