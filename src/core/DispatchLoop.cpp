//===-- core/DispatchLoop.cpp - Dispatch and scheduling engine ------------==//

#include "core/DispatchLoop.h"

#include "core/ClientRequestEngine.h"
#include "core/RedirectEngine.h"
#include "core/SignalEngine.h"
#include "shadow/ShadowMemory.h"
#include "support/Hashing.h"

#include <algorithm>
#include <thread>
#include <utility>

using namespace vg;
using namespace vg::vg1;

//===----------------------------------------------------------------------===//
// Translation lookup and trace formation
//===----------------------------------------------------------------------===//

Translation *DispatchLoop::findOrTranslate(ShardCtx &S, uint32_t PC) {
  // A block boundary under the lock is the natural place to try freeing
  // limbo: every shard passes through here constantly.
  if (!Limbo.empty())
    reclaimLimbo();
  // PC's line, after wiping the cache if any translation died since it
  // was last current.
  auto Line = [&]() -> FastCacheEntry & {
    if (S.FastCacheGen != C.TT.generation()) {
      std::fill(S.FastCache.begin(), S.FastCache.end(), FastCacheEntry{});
      S.FastCacheGen = C.TT.generation();
    }
    return S.FastCache[hashAddr(PC) & (FastCacheSize - 1)];
  };
  FastCacheEntry &E = Line();
  if (E.Addr == PC && E.T) {
    ++S.FastCacheHits;
    // The table was bypassed, but the lookup still logically happened:
    // fold it into the table's statistics so hit rates stay honest.
    C.TT.countFastHit();
    return E.T;
  }
  ++S.FastCacheMisses;
  Translation *T = C.TT.lookup(PC);
  if (!T)
    T = C.XS->translateSync(PC);
  Line() = FastCacheEntry{PC, T};
  return T;
}

void DispatchLoop::repairFastCache(ShardCtx &S, uint32_t PC, Translation *T,
                                   uint64_t GenBefore) {
  // Only valid when the cache was current before the install: otherwise
  // stamping it current would resurrect lines of translations retired
  // earlier. Other contexts see the generation bump and wipe.
  if (S.FastCacheGen == GenBefore && C.TT.generation() == GenBefore + 1) {
    S.FastCacheGen = GenBefore + 1;
    S.FastCache[hashAddr(PC) & (FastCacheSize - 1)] = FastCacheEntry{PC, T};
  }
}

TraceSpec DispatchLoop::selectTracePath(Translation *Head) {
  // Greedy walk over filled chain slots: at each constituent take the
  // most-traversed outgoing edge, but only while that edge is strongly
  // biased — taken on at least 3/4 of the block's executions. Anything
  // weaker and the guarded side exit replacing the branch would fire
  // constantly, making the trace a net loss. EdgeExecs (not the
  // successor's ExecCount) is the evidence: a successor with other hot
  // predecessors has a large ExecCount even when *this* edge is cold.
  TraceSpec Spec;
  Spec.Entries.push_back(Head->Addr);
  Translation *Cur = Head;
  while (Spec.Entries.size() < MaxTraceBlocks) {
    Translation *Best = nullptr;
    uint64_t BestEdge = 0;
    for (size_t I = 0; I != Cur->Chain.size(); ++I) {
      // Acquire pairs with the release install so the successor's fields
      // (Tier, Addr) are visible; the edge counters are approximate
      // profile data, relaxed is all they need.
      Translation *Succ = Cur->Chain[I].load(std::memory_order_acquire);
      uint64_t Edge =
          I < Cur->EdgeExecs.size()
              ? Cur->EdgeExecs[I].load(std::memory_order_relaxed)
              : 0;
      if (Succ && Succ->Tier == 0 && Edge > BestEdge) {
        Best = Succ;
        BestEdge = Edge;
      }
    }
    if (!Best ||
        BestEdge * 4 < Cur->ExecCount.load(std::memory_order_relaxed) * 3)
      break;
    auto It = std::find(Spec.Entries.begin(), Spec.Entries.end(),
                        Best->Addr);
    if (It != Spec.Entries.end()) {
      // Loop closure. A back-edge to the head is the ideal ending: prefer
      // it as the final target so the installed trace chains to itself.
      if (It == Spec.Entries.begin())
        Spec.PreferredFinal = Head->Addr;
      break;
    }
    Spec.Entries.push_back(Best->Addr);
    Cur = Best;
  }
  return Spec;
}

const hvm::CodeBlob *DispatchLoop::chainResolveThunk(void *User, void *Cookie,
                                                     uint32_t Slot) {
  // Runs lock-free inside Exec.run: every counter it bumps is the
  // context's own, and the bounce prefills the context's own fast cache.
  auto *S = static_cast<ShardCtx *>(User);
  Core &C = S->D->C;
  auto *T = static_cast<Translation *>(Cookie);
  // Side-exit accounting: a tier-2 exit through any slot but the terminal
  // one is a failed guard. (Traces need chaining, so every constant Boring
  // exit consults this thunk, filled slot or not.)
  if (T->Tier == 2 && Slot != T->Blob.TerminalChainSlot)
    ++S->TraceSideExits;
  // Acquire pairs with the release install in TransTab::chainTo: a filled
  // slot must imply a fully-initialised successor blob.
  Translation *Succ = Slot < T->Chain.size()
                          ? T->Chain[Slot].load(std::memory_order_acquire)
                          : nullptr;
  if (!Succ)
    return nullptr;
  // Hotness accounting happens here too, or chained loops would never
  // cross a threshold. A successor that has become a trace head bounces
  // to the dispatcher, which stitches under the world lock — never inside
  // a chain, where an install could evict running code. TraceRetryAt
  // stops an unbiased head bouncing every transfer.
  if (S->D->traceHead(*Succ,
                      Succ->ExecCount.load(std::memory_order_relaxed) + 1)) {
    // Prefill the successor's fast-cache line so the bounced dispatch
    // doesn't pay a table lookup for a block we are holding.
    if (S->FastCacheGen == C.TT.generation())
      S->FastCache[hashAddr(Succ->Addr) & (FastCacheSize - 1)] =
          FastCacheEntry{Succ->Addr, Succ};
    return nullptr;
  }
  Succ->ExecCount.fetch_add(1, std::memory_order_relaxed);
  if (Slot < T->EdgeExecs.size())
    T->EdgeExecs[Slot].fetch_add(1, std::memory_order_relaxed);
  ++S->ChainedTransfers;
  if (Succ->Tier == 2)
    ++S->TraceExecs;
  // The profiler's map is world-lock property: only the exclusive context
  // holds the world here.
  if (S->Exclusive && C.Prof)
    C.Prof->noteExec(Succ->Addr);
  return &Succ->Blob;
}

//===----------------------------------------------------------------------===//
// The dispatch loop (Section 3.9)
//===----------------------------------------------------------------------===//

// Inline: the exclusive context pays this on every dispatch.
inline std::unique_lock<std::mutex> DispatchLoop::lockWorld(ShardCtx &S) {
  std::unique_lock<std::mutex> World;
  if (!S.Exclusive) {
    ++S.WorldLockAcquisitions;
    World = std::unique_lock<std::mutex>(WorldMu);
  }
  // The clock is written only here, under the world lock, so advancing it
  // needs no atomic read-modify-write. A context's blocks reach it at its
  // next boundary, before anything there can read it.
  BlockClock.store(BlockClock.load(std::memory_order_relaxed) +
                       std::exchange(S.Unclocked, 0),
                   std::memory_order_relaxed);
  return World;
}

void DispatchLoop::dispatchQuantum(ShardCtx &S, ThreadState &TS,
                                   uint64_t &Quantum, uint32_t StopPC) {
  ExecContext Ctx;
  Ctx.GuestState = TS.Guest;
  Ctx.Mem = &C.Memory;
  Ctx.Core = &C;
  Ctx.Tool = C.ToolPlugin;
  Ctx.ShadowSM = C.ToolPlugin ? C.ToolPlugin->shadowMap() : nullptr;
  Ctx.Tid = TS.Tid;
  hvm::Executor Exec(Ctx, gso::PC);
  if (C.ChainingEnabled)
    Exec.setChaining(&chainResolveThunk, &S);

  // The previous Boring exit, for the lazy chain-fill fallback (edges
  // whose slot was parked and has since been cancelled).
  void *LastCookie = nullptr;
  uint32_t LastSlot = ~0u;
  uint32_t LastAddr = 0;

  // callGuest's nested run must reach its sentinel: it neither clears nor
  // stops at the yield flag, so a yield ends the enclosing quantum instead.
  bool Nested = StopPC != NoStopPC;
  if (!Nested)
    YieldFlags[TS.Tid].store(false, std::memory_order_relaxed);
  while (Quantum > 0 && !C.ProcessExited.load(std::memory_order_acquire) &&
         !C.FatalSignal.load(std::memory_order_acquire) &&
         TS.Status == ThreadStatus::Runnable &&
         (Nested || !YieldFlags[TS.Tid].load(std::memory_order_relaxed))) {
    // Quiescent point: between Exec.run calls this context holds no
    // translation pointer except LastCookie — and that one is only ever
    // dereferenced after the residency check below proves the table still
    // maps LastAddr to this exact pointer.
    S.LocalEpoch.store(GlobalEpoch.load(std::memory_order_acquire),
                       std::memory_order_release);

    Translation *T;
    {
      std::unique_lock<std::mutex> World = lockWorld(S);
      if (C.Faults)
        injectBoundaryFaults(TS);
      if (C.Signals->deliverPending(TS)) {
        // A delivery consumes one slice of the quantum on top of the
        // handler's own blocks (counted by Exec.run like any others), so a
        // signal storm cannot starve the other threads.
        Quantum -= std::min<uint64_t>(Quantum, 1);
        continue; // PC changed; redispatch
      }

      uint32_t PC = TS.getPC();
      if (PC == StopPC)
        return;

      // Function redirection (Section 3.13).
      if (const uint32_t *GR = C.Redirects->guestTarget(PC)) {
        TS.setPCVal(*GR);
        continue;
      }
      if (const HostReplacementFn *HR = C.Redirects->hostReplacement(PC)) {
        ++C.Stats.HostRedirectCalls;
        // The replacement body runs under the world lock, including any
        // callGuest re-entry, which dispatches on the exclusive context.
        // Host replacements are slow-path by contract.
        (*HR)(C, TS);
        // Perform the guest return: pop the address CALL pushed.
        uint32_t SP = TS.gpr(RegSP);
        uint32_t Ret = 0;
        if (C.Memory.read(SP, &Ret, 4, /*IgnorePerms=*/true).Faulted) {
          C.Signals->handleFault(TS, PC, SP, false, SigSEGV);
          continue;
        }
        TS.setGpr(RegSP, SP + 4);
        TS.setPCVal(Ret);
        LastCookie = nullptr;
        continue;
      }

      T = findOrTranslate(S, PC);

      // Fill the previous exit's chain slot now that the successor is
      // known, if the cookie is still resident: the table must still map
      // LastAddr to this exact pointer (compared, not dereferenced). A
      // generation compare is no proof under shards — another shard may
      // retire the translation before the Boring exit saves its cookie —
      // and chaining a retired translation plants freed memory in the
      // chain graph's waiter list (DESIGN section 14).
      if (C.ChainingEnabled && LastCookie && LastSlot != ~0u &&
          C.TT.find(LastAddr) == LastCookie) {
        auto *Prev = static_cast<Translation *>(LastCookie);
        // Only link true fall-through edges: if the exit's recorded
        // constant target is not the PC we dispatched (a guest redirect
        // rewrote it), chaining would bypass the redirect check.
        if (LastSlot < Prev->Blob.ChainTargets.size() &&
            Prev->Blob.ChainTargets[LastSlot] == PC) {
          C.TT.chainTo(Prev, LastSlot, T);
          // A dispatcher-mediated traversal of this edge (unfilled slot or
          // a thunk bounce) is edge-profile evidence just like a chained
          // one.
          if (LastSlot < Prev->EdgeExecs.size())
            Prev->EdgeExecs[LastSlot].fetch_add(1, std::memory_order_relaxed);
        }
      }
      LastCookie = nullptr;
      LastSlot = ~0u;

      uint64_t Execs =
          T->ExecCount.fetch_add(1, std::memory_order_relaxed) + 1;
      if (C.Prof)
        C.Prof->noteExec(PC);

      // Trace tier: a hot block whose chain edges have proven strongly
      // biased gets its dominant path stitched into one trace, stalling the
      // guest. The chain graph is both the evidence and the profit
      // mechanism, so traceHead never fires without chaining.
      if (traceHead(*T, Execs)) {
        ++C.Stats.HotPromotions;
        TraceSpec Spec = selectTracePath(T);
        uint64_t GenBefore = C.TT.generation();
        Translation *NT =
            Spec.Entries.size() < 2 ? nullptr : C.XS->translateTrace(Spec);
        if (NT) {
          T = NT; // the old T was replaced by the insert: run the trace now
          repairFastCache(S, PC, T, GenBefore);
        } else {
          // No dominant successor (the chain graph is unbiased at the
          // head) or a spill overflow: back off exponentially rather than
          // re-walking it every entry.
          T->TraceRetryAt.store(Execs * 2, std::memory_order_relaxed);
        }
      }
      // Counted against the translation that actually runs: a trace formed
      // just above executes (and may side-exit) on this very dispatch.
      if (T->Tier == 2)
        ++S.TraceExecs;
    } // World lock released — everything below runs lock-free.

    // The chain budget is Quantum - 1 (this dispatch itself is one block);
    // guard the subtraction — delivery charges above can leave the quantum
    // at 0 exactly when a continue re-entered the loop through a path that
    // does not re-test it.
    uint64_t ChainBudget =
        (C.ChainingEnabled && Quantum > 0) ? Quantum - 1 : 0;
    hvm::RunOutcome O = Exec.run(T->Blob, ChainBudget);
    S.Unclocked += O.BlocksExecuted;
    Quantum -= std::min<uint64_t>(Quantum, O.BlocksExecuted);

    if (O.K == hvm::RunOutcome::Kind::Fault) {
      std::unique_lock<std::mutex> World = lockWorld(S);
      C.Signals->handleFault(TS, O.FaultPC, O.FaultAddr, O.FaultWrite,
                             SigSEGV);
      continue;
    }

    switch (O.JK) {
    case ir::JumpKind::Boring:
      LastCookie = O.ExitCookie;
      LastSlot = O.ExitSlot;
      // Safe to dereference here and only here: the translation was live
      // after this iteration's epoch announcement, so no retirement can
      // free it before the next one.
      LastAddr = static_cast<Translation *>(LastCookie)->Addr;
      continue;
    case ir::JumpKind::Call:
    case ir::JumpKind::Ret:
      continue;
    case ir::JumpKind::Yield:
      YieldFlags[TS.Tid].store(true, std::memory_order_relaxed);
      continue;
    default:
      break;
    }

    // Every other exit mutates world-lock property: the kernel, signal
    // state, translation tables, tool state.
    std::unique_lock<std::mutex> World = lockWorld(S);
    switch (O.JK) {
    case ir::JumpKind::Syscall:
      if (C.Kernel->onSyscall(TS) == SimKernel::Action::Exit) {
        C.ProcessExited.store(true, std::memory_order_release);
        C.ProcessExitCode = C.Kernel->exitCode();
        stopWorld();
      }
      break;
    case ir::JumpKind::ClientReq:
      C.ClReqs->handle(TS);
      break;
    case ir::JumpKind::Exit:
      C.ProcessExited.store(true, std::memory_order_release);
      stopWorld();
      break;
    case ir::JumpKind::NoDecode:
      C.Signals->handleFault(TS, O.NextPC, O.NextPC, false, SigILL);
      break;
    case ir::JumpKind::SmcFail:
      // Stale translation: throw it (and anything else over those bytes)
      // away and retranslate. PC is unchanged.
      ++C.Stats.SmcRetranslations;
      for (auto [Lo, Hi] : T->Extents)
        C.XS->invalidate(Lo, Hi - Lo);
      break;
    case ir::JumpKind::SigSEGV:
      C.Signals->handleFault(TS, O.NextPC, O.NextPC, false, SigSEGV);
      break;
    default:
      break;
    }
  }
  lockWorld(S); // publishes the last run's blocks to the clock
}

void DispatchLoop::injectBoundaryFaults(ThreadState &TS) {
  // Signal storm: queue one of the signals the client installed a handler
  // for, as if another process had just kill()ed us at this block boundary.
  if (C.Faults->roll(FaultKind::SigStorm)) {
    const std::array<uint32_t, 64> &Handlers = C.Signals->handlers();
    int Installed[64];
    int Count = 0;
    for (int S = 1; S < 64; ++S)
      if (Handlers[S])
        Installed[Count++] = S;
    if (Count) {
      int Sig = Installed[C.Faults->pick(static_cast<uint32_t>(Count))];
      if (C.Events.FaultInjected)
        C.Events.FaultInjected(TS.Tid,
                               static_cast<uint32_t>(FaultKind::SigStorm),
                               static_cast<uint32_t>(Sig));
      C.Signals->raise(TS.Tid, Sig);
    }
  }
  // Translation-table flush pressure: everything retranslates from here.
  if (C.Faults->roll(FaultKind::TTFlush)) {
    if (C.Events.FaultInjected)
      C.Events.FaultInjected(TS.Tid, static_cast<uint32_t>(FaultKind::TTFlush),
                             0);
    // Whole-space flush. Not invalidate(0, 0xFFFFFFFFu): a 32-bit length
    // cannot express the full 4GB and left translations covering the final
    // guest byte alive.
    C.XS->invalidateAll();
  }
}

//===----------------------------------------------------------------------===//
// The schedulers (Section 3.14)
//===----------------------------------------------------------------------===//

uint64_t DispatchLoop::quantumLeft() const {
  uint64_t Clock = BlockClock.load(std::memory_order_relaxed);
  return std::min<uint64_t>(Core::ThreadQuantum,
                            MaxBlocks - std::min(MaxBlocks, Clock));
}

void DispatchLoop::foldCounters(ShardCtx &S) {
  C.Stats.FastCacheHits += std::exchange(S.FastCacheHits, 0);
  C.Stats.FastCacheMisses += std::exchange(S.FastCacheMisses, 0);
  C.Stats.ChainedTransfers += std::exchange(S.ChainedTransfers, 0);
  C.Stats.TraceExecs += std::exchange(S.TraceExecs, 0);
  C.Stats.TraceSideExits += std::exchange(S.TraceSideExits, 0);
}

CoreExit DispatchLoop::run(uint64_t Budget) {
  MaxBlocks = Budget;
  if (C.SchedThreads > 1)
    runParallel();
  else
    runSerial();
  // Single-threaded again: fold every context's counters (callGuest runs
  // on the exclusive one under either scheduler) and settle the clock.
  foldCounters(CoreCtx);
  for (auto &S : Shards)
    foldCounters(*S);
  C.Stats.BlocksDispatched = BlockClock.load(std::memory_order_relaxed);
  C.Stats.TracesFormed = C.XS->jitStats().TraceInstalled;
  return C.finishRun();
}

void DispatchLoop::runSerial() {
  while (!C.ProcessExited && !C.FatalSignal && C.liveThreads() > 0 &&
         BlockClock.load(std::memory_order_relaxed) < MaxBlocks) {
    // Round-robin thread choice (the serialised big lock of Section 3.14:
    // exactly one thread ever runs).
    int Next = -1;
    for (int I = 1; I <= Core::MaxThreads; ++I) {
      int Cand = (C.CurTid + I) % Core::MaxThreads;
      if (C.Threads[Cand].Status == ThreadStatus::Runnable) {
        Next = Cand;
        break;
      }
    }
    if (Next < 0)
      break;
    if (Next != C.CurTid) {
      ++C.Stats.ThreadSwitches;
      if (C.Tracer)
        C.Tracer->record(Next, TraceEvent::ThreadSwitch,
                         static_cast<uint32_t>(C.CurTid),
                         static_cast<uint32_t>(Next));
    }
    C.CurTid = Next;
    uint64_t Quantum = quantumLeft();
    // Forced preemption: shrink this slice to a single block, shaking out
    // scheduling assumptions the 100k-block quantum normally hides.
    if (C.Faults && Quantum > 1 && C.Faults->roll(FaultKind::Preempt)) {
      if (C.Events.FaultInjected)
        C.Events.FaultInjected(C.CurTid,
                               static_cast<uint32_t>(FaultKind::Preempt), 1);
      Quantum = 1;
    }
    dispatchQuantum(CoreCtx, C.Threads[C.CurTid], Quantum, NoStopPC);
  }
}

//===----------------------------------------------------------------------===//
// The sharded scheduler (--sched-threads=N, DESIGN section 14)
//===----------------------------------------------------------------------===//
//
// The serial scheduler above *is* the big lock of Section 3.14: one host
// thread, one guest thread at a time. runParallel breaks it: N host
// "shards" each pop a runnable guest thread from the run queue and run one
// quantum of the same dispatch loop concurrently, each on its own context.
// The big lock survives in miniature as WorldMu, held only for
// block-boundary slow work (translate, chain, promote, signals, syscalls,
// client requests); Exec.run and the chain-resolve thunk — where virtually
// all time goes for a CPU-bound guest — run with no lock at all.
//
// Memory reclamation is the crux. A shard executing inside the code cache
// holds raw Translation pointers no lock protects, so nothing another
// shard invalidates may be freed while it could still be running. The
// scheme is quiescent-state-based: each shard, at the top of every
// dispatch iteration (provably outside all translations), republishes the
// global epoch as its LocalEpoch; retiring a translation stamps it with a
// freshly incremented epoch and parks it in Limbo; a limbo entry is freed
// once every shard has announced an epoch at or past its stamp. A parked
// shard announces ~0 (it holds nothing). The same deferred-destruction
// idea covers guest pages and shadow chunks via their graveyards.

void DispatchLoop::runParallel() {
  // Unmapped guest pages and reclaimed shadow chunks must survive until
  // the run ends: lock-free readers (helpers, other shards' Exec.run) may
  // still be dereferencing them.
  C.Memory.setDeferredReclaim(true);
  if (ShadowMap *SM = C.ToolPlugin ? C.ToolPlugin->shadowMap() : nullptr)
    SM->setDeferredReclaim(true);
  C.TT.setRetireHook([this](std::unique_ptr<Translation> T) {
    retireTranslation(std::move(T));
  });

  RunQ = std::make_unique<RunQueue>();
  for (int I = 0; I != Core::MaxThreads; ++I)
    if (C.Threads[I].Status == ThreadStatus::Runnable)
      RunQ->push(I);

  Shards.clear();
  for (unsigned I = 0; I != C.SchedThreads; ++I) {
    auto S = std::make_unique<ShardCtx>();
    S->D = this;
    S->FastCache.resize(FastCacheSize);
    Shards.push_back(std::move(S));
  }
  {
    std::vector<std::thread> Workers;
    Workers.reserve(C.SchedThreads);
    for (auto &S : Shards)
      Workers.emplace_back([this, &S] { shardMain(*S); });
    for (auto &W : Workers)
      W.join();
  }

  // Drain what the grace periods held back.
  RunQPushes = RunQ->pushes();
  RunQPops = RunQ->pops();
  RunQWaits = RunQ->waits();
  C.TT.setRetireHook({});
  Limbo.clear();
  RunQ.reset();
}

void DispatchLoop::shardMain(ShardCtx &S) {
  while (true) {
    // Parked: this shard holds no translation pointers and blocks no
    // reclamation.
    S.LocalEpoch.store(~0ull, std::memory_order_release);
    int Tid = RunQ->pop();
    if (Tid == RunQueue::Shutdown)
      return;
    ++S.Quanta;
    uint64_t Quantum = quantumLeft();
    dispatchQuantum(S, C.Threads[Tid], Quantum, NoStopPC);
    S.LocalEpoch.store(~0ull, std::memory_order_release);
    if (C.ProcessExited.load(std::memory_order_acquire) ||
        C.FatalSignal.load(std::memory_order_acquire) ||
        BlockClock.load(std::memory_order_relaxed) >= MaxBlocks) {
      RunQ->shutdown();
      return;
    }
    if (C.Threads[Tid].Status == ThreadStatus::Runnable)
      RunQ->push(Tid);
  }
}

void DispatchLoop::retireTranslation(std::unique_ptr<Translation> T) {
  // Unlink-from-table and chain-unlink already happened (under WorldMu);
  // the increment publishes "this translation was dead by epoch E". A
  // shard that later announces an epoch >= E read the counter after the
  // unlink, so it can only have found the translation through a stale
  // pointer it no longer holds at its next quiescent point.
  uint64_t E = GlobalEpoch.fetch_add(1, std::memory_order_acq_rel) + 1;
  Limbo.emplace_back(E, std::move(T));
  ++TranslationsRetired;
  LimboHighWater = std::max<uint64_t>(LimboHighWater, Limbo.size());
  reclaimLimbo();
}

void DispatchLoop::reclaimLimbo() {
  uint64_t MinE = ~0ull;
  for (auto &S : Shards)
    MinE = std::min(MinE, S->LocalEpoch.load(std::memory_order_acquire));
  std::erase_if(Limbo, [&](const auto &Ent) { return Ent.first <= MinE; });
}

void DispatchLoop::stopWorld() {
  if (RunQ)
    RunQ->shutdown();
}

void DispatchLoop::threadSpawned(int Tid) {
  // Under the sharded scheduler the new thread must enter the run queue
  // or no shard would ever pick it up (the serial scheduler's round-robin
  // scan finds it by polling Threads[] instead).
  if (RunQ)
    RunQ->push(Tid);
}

void DispatchLoop::requestYield(int Tid) {
  if (Tid >= 0 && Tid < Core::MaxThreads)
    YieldFlags[Tid].store(true, std::memory_order_relaxed);
}

uint32_t DispatchLoop::callGuest(ThreadState &TS, uint32_t Addr,
                                 const std::vector<uint32_t> &Args) {
  // Save the registers the call clobbers.
  uint32_t SavedPC = TS.getPC();
  uint32_t SavedRegs[NumGPRs];
  for (unsigned I = 0; I != NumGPRs; ++I)
    SavedRegs[I] = TS.gpr(I);

  uint32_t SP = TS.gpr(RegSP) - 4;
  C.Memory.write(SP, &ReturnSentinel, 4, /*IgnorePerms=*/true);
  if (C.Events.NewMemStack)
    C.Events.NewMemStack(SP, 4);
  if (C.Events.PostMemWrite)
    C.Events.PostMemWrite(TS.Tid, SP, 4);
  TS.TrackedSP = SP;
  TS.setGpr(RegSP, SP);
  for (size_t I = 0; I != Args.size() && I < 5; ++I)
    TS.setGpr(static_cast<unsigned>(1 + I), Args[I]);
  // As in SignalEngine::deliver: the core set SP and the argument
  // registers, so definedness tools must see them as written.
  if (C.Events.PostRegWrite) {
    C.Events.PostRegWrite(TS.Tid, gso::gpr(RegSP), 4);
    for (size_t I = 0; I != Args.size() && I < 5; ++I)
      C.Events.PostRegWrite(TS.Tid, gso::gpr(static_cast<unsigned>(1 + I)),
                            4);
  }
  TS.setPCVal(Addr);

  // The exclusive context: serially it is the scheduler's own; under
  // shards the host replacement calling us holds the world lock.
  uint64_t Quantum = ~0ull >> 1;
  dispatchQuantum(CoreCtx, TS, Quantum, ReturnSentinel);
  uint32_t Result = TS.gpr(0);

  for (unsigned I = 0; I != NumGPRs; ++I)
    TS.setGpr(I, SavedRegs[I]);
  TS.setPCVal(SavedPC);
  return Result;
}

//===----------------------------------------------------------------------===//
// The --profile report
//===----------------------------------------------------------------------===//

void DispatchLoop::dumpProfile() {
  if (!C.Prof)
    return;
  const TransTab::Stats &TS = C.TT.stats();
  ProfCounters PC;
  PC.BlocksDispatched = C.Stats.BlocksDispatched;
  PC.DispatcherEntries = C.Stats.BlocksDispatched - C.Stats.ChainedTransfers;
  PC.FastCacheHits = C.Stats.FastCacheHits;
  PC.FastCacheMisses = C.Stats.FastCacheMisses;
  PC.ChainedTransfers = C.Stats.ChainedTransfers;
  PC.Translations = C.Stats.Translations;
  PC.HotPromotions = C.Stats.HotPromotions;
  PC.TableLookups = TS.Lookups;
  PC.TableHits = TS.Hits;
  PC.ChainsFilled = TS.ChainsFilled;
  PC.Unchains = TS.Unchains;
  PC.EvictionRuns = TS.EvictionRuns;
  PC.Evicted = TS.Evicted;
  PC.Invalidated = TS.Invalidated;
  if (ShadowMap *SM = C.ToolPlugin ? C.ToolPlugin->shadowMap() : nullptr) {
    const ShadowStats &SS = SM->stats();
    PC.HasShadow = true;
    PC.ShadowFastLoads = SS.FastLoads;
    PC.ShadowSlowLoads = SS.SlowLoads;
    PC.ShadowFastStores = SS.FastStores;
    PC.ShadowSlowStores = SS.SlowStores;
    PC.ShadowSecCacheHits = SS.SecCacheHits;
    PC.ShadowSecCacheMisses = SS.SecCacheMisses;
    PC.ShadowChunksMaterialised = SS.Materialised;
    PC.ShadowChunksReclaimed = SS.Reclaimed;
    PC.ShadowChunksLive = SS.LiveChunks;
    PC.ShadowChunksHighWater = SS.HighWater;
  }
  PC.ThreadSwitches = C.Stats.ThreadSwitches;
  PC.SignalsDelivered = C.Stats.SignalsDelivered;
  PC.SignalsDropped = C.Stats.SignalsDropped;
  if (C.Faults) {
    PC.HasFaults = true;
    PC.FaultRolls = C.Faults->rolls();
    for (unsigned I = 0; I != NumFaultKinds; ++I) {
      PC.FaultsInjected[I] = C.Faults->injected(static_cast<FaultKind>(I));
      PC.FaultNames[I] = faultKindName(static_cast<FaultKind>(I));
    }
  }
  if (C.TraceTier) {
    const JitStats &J = C.XS->jitStats();
    PC.HasTraces = true;
    PC.TraceRequests = J.TraceRequests;
    PC.TracesFormed = C.Stats.TracesFormed;
    PC.TraceAborts = J.TraceAborts;
    PC.TraceExecs = C.Stats.TraceExecs;
    PC.TraceSideExits = C.Stats.TraceSideExits;
    PC.TraceDeadFlagPuts = J.TraceDeadFlagPuts;
    PC.TraceProbesCSEd = J.TraceProbesCSEd;
  }
  if (const TransCache *TC = C.XS->cache()) {
    const JitStats &J = C.XS->jitStats();
    PC.HasTransCache = true;
    PC.CacheHits = J.CacheHits;
    PC.CacheMisses = J.CacheMisses;
    PC.CacheRejects = J.CacheRejects;
    PC.CacheWrites = J.CacheWrites;
    PC.CacheEvictedFiles = TC->evictedFiles();
    PC.CacheDirBytes = TC->totalBytes();
    PC.CacheLoadSeconds = J.CacheLoadSeconds;
    PC.CacheStoreSeconds = J.CacheStoreSeconds;
  }
  if (C.SchedThreads > 1) {
    PC.HasSched = true;
    PC.SchedThreads = C.SchedThreads;
    for (const auto &S : Shards) {
      PC.SchedQuanta += S->Quanta;
      PC.WorldLockAcquisitions += S->WorldLockAcquisitions;
    }
    PC.RunQueuePushes = RunQPushes;
    PC.RunQueuePops = RunQPops;
    PC.RunQueueWaits = RunQWaits;
    PC.TranslationsRetired = TranslationsRetired;
    PC.LimboHighWater = LimboHighWater;
  }
  if (C.Tracer) {
    PC.HasTrace = true;
    PC.TraceRecorded = C.Tracer->recorded();
    PC.TraceDropped = C.Tracer->dropped();
    PC.TraceSyscalls = C.Tracer->count(TraceEvent::SyscallEnter);
    PC.TraceSignals = C.Tracer->count(TraceEvent::SigQueue) +
                      C.Tracer->count(TraceEvent::SigDeliver) +
                      C.Tracer->count(TraceEvent::SigReturn) +
                      C.Tracer->count(TraceEvent::SigDrop);
  }
  C.Prof->report(C.Out, PC);
}
