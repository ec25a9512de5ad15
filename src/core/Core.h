//===-- core/Core.h - The Valgrind core -------------------------*- C++ -*-==//
///
/// \file
/// The core: everything of Section 3 that is not the JIT pipeline itself.
/// Once a monolith, it is now an owner/wiring class over four layered
/// engines plus the extracted TranslationService:
///
///   DispatchLoop        dispatcher + serial/sharded schedulers (3.9, 3.14)
///   SignalEngine        signal queueing, masking, delivery (3.15)
///   RedirectEngine      replacement, redirection, wrapping (3.13)
///   ClientRequestEngine client requests, registered stacks, the
///                       replacement allocator (3.11, R8)
///
/// Core itself owns the client address space, loads guest images
/// (start-up, Section 3.3), routes system calls to the simulated kernel
/// (3.10), drives the events system (3.12), holds run-state and
/// configuration, and checks for self-modifying code (3.16). Every public
/// entry point tools and tests use is kept here as a thin forward, so the
/// decomposition is invisible to callers that do not opt into the engine
/// accessors.
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_CORE_H
#define VG_CORE_CORE_H

#include "core/ClientRequestEngine.h"
#include "core/ErrorManager.h"
#include "core/Events.h"
#include "core/GuestImage.h"
#include "core/RedirectEngine.h"
#include "core/SignalEngine.h"
#include "core/ThreadState.h"
#include "core/Tool.h"
#include "core/TransTab.h"
#include "core/Translate.h"
#include "core/TranslationService.h"
#include "kernel/SimKernel.h"
#include "support/EventTrace.h"
#include "support/FaultInject.h"
#include "support/Options.h"
#include "support/Output.h"

#include <array>
#include <atomic>
#include <memory>

namespace vg {

class DispatchLoop;

/// How aggressively to check for self-modifying code (Section 3.16).
enum class SmcMode { None, Stack, All };

/// Exit status of a whole run.
struct CoreExit {
  enum class Kind {
    Exited,      ///< exit syscall or HLT
    FatalSignal, ///< unhandled SIGSEGV/SIGILL
    BlockLimit,  ///< ran out of the block budget passed to run()
  };
  Kind K = Kind::Exited;
  int Code = 0;
  int Signal = 0;
};

/// Run statistics (bench/sec39_dispatch and the Table 2 harness read
/// these). The dispatch counters live in the dispatch contexts while a run
/// is under way and are folded in here when it ends.
struct CoreStats {
  uint64_t BlocksDispatched = 0; ///< translations entered, callGuest's too
  uint64_t FastCacheHits = 0;    ///< dispatcher direct-mapped cache hits
  uint64_t FastCacheMisses = 0;
  uint64_t Translations = 0;
  uint64_t GuestInsnsTranslated = 0;
  uint64_t ThreadSwitches = 0;
  uint64_t SignalsDelivered = 0;
  uint64_t SignalsDropped = 0; ///< bad target / coalesced / thread exit
  uint64_t SmcRetranslations = 0;
  uint64_t ChainedTransfers = 0;
  uint64_t HostRedirectCalls = 0;
  uint64_t HotPromotions = 0; ///< trace heads walked, formed or backed off
  /// Trace tier (--trace-tier): traces installed (JitStats::TraceInstalled),
  /// trace entries executed, and exits taken through a guarded side exit
  /// rather than the trace's terminal edge (TraceSideExits / TraceExecs is
  /// the side-exit rate).
  uint64_t TracesFormed = 0;
  uint64_t TraceExecs = 0;
  uint64_t TraceSideExits = 0;
  /// Guest-thread seconds producing installed translations: pipeline time
  /// for fresh ones, load+validate time for --tt-cache hits. The warm-start
  /// bench compares this across cold/warm runs.
  double TranslateSeconds = 0;
};

/// Signal numbers used by the simulated kernel.
enum Signals : int {
  SigSEGV = 11,
  SigILL = 4,
  SigUSR1 = 10,
  SigUSR2 = 12,
};

/// The core. Construct, configure (setTool/options), loadImage, run.
/// The TranslationHost side is the seam to the extracted
/// TranslationService: the service calls back for pipeline options and
/// guest-thread accounting, the core calls down for translations.
class Core : public KernelHost, public TranslationHost {
public:
  static constexpr int MaxThreads = 32;
  static constexpr uint64_t ThreadQuantum = 100'000; // blocks (Section 3.14)

  explicit Core(Tool *ToolPlugin = nullptr);
  ~Core() override;

  // --- configuration -----------------------------------------------------
  OptionRegistry &options() { return Opts; }
  /// Applies parsed options (smc-check, chaining, ...). Call after
  /// options().parse() and before run().
  void applyOptions();

  OutputSink &output() { return Out; }
  EventHub &events() { return Events; }
  ErrorManager &errors() { return Errors; }
  SimKernel &kernel() { return *Kernel; }
  GuestMemory &memory() { return Memory; }
  AddressSpace &addressSpace() { return AS; }
  Tool *tool() { return ToolPlugin; }
  const CoreStats &stats() const { return Stats; }
  TransTab &transTab() { return TT; }
  TranslationService &translationService() { return *XS; }

  // --- the engines (direct access for tools and tests) --------------------
  ClientRequestEngine &clientRequests() { return *ClReqs; }
  RedirectEngine &redirects() { return *Redirects; }
  SignalEngine &signals() { return *Signals; }
  DispatchLoop &dispatcher() { return *Dispatch; }

  // --- start-up (Section 3.3) --------------------------------------------
  /// Loads the client image: maps text/data (firing new_mem_startup, R5),
  /// sets up the initial thread's stack and registers, creates the brk
  /// segment, and applies redirections against the image's symbol table.
  void loadImage(const GuestImage &Img);

  // --- execution -----------------------------------------------------------
  /// Runs the client to completion (or until \p MaxBlocks translations
  /// have been dispatched). Calls the tool's fini().
  CoreExit run(uint64_t MaxBlocks = ~0ull);

  // --- function replacement and wrapping (Section 3.13) -------------------
  /// Replaces the guest function at \p Addr with host code.
  void redirectToHost(uint32_t Addr, HostReplacementFn Fn) {
    Redirects->redirectToHost(Addr, std::move(Fn));
  }
  /// Replaces the function named \p Symbol (resolved at loadImage time;
  /// may be called before or after load).
  void redirectSymbolToHost(const std::string &Symbol, HostReplacementFn Fn) {
    Redirects->redirectSymbolToHost(Symbol, std::move(Fn));
  }
  /// Makes calls to \p From run \p To instead (guest-to-guest).
  void redirectGuest(uint32_t From, uint32_t To) {
    Redirects->redirectGuest(From, To);
  }
  /// Wraps the guest function at \p Addr: Pre hook, the original (via
  /// call-into-guest), Post hook which may rewrite the result.
  void wrapFunction(uint32_t Addr, WrapHooks Hooks) {
    Redirects->wrap(Addr, std::move(Hooks));
  }
  /// Like wrapFunction, resolved against the image symbol table (before or
  /// after loadImage).
  void wrapSymbolFunction(const std::string &Symbol, WrapHooks Hooks) {
    Redirects->wrapSymbol(Symbol, std::move(Hooks));
  }

  /// Calls back into guest code from host context (the mechanism that lets
  /// a replacement function invoke the function it replaced — wrapping).
  /// Returns the callee's r0.
  uint32_t callGuest(ThreadState &TS, uint32_t Addr,
                     const std::vector<uint32_t> &Args);

  // --- replacement allocator (R8) ------------------------------------------
  /// Allocates a client heap block (red zones per the tool's request).
  /// Returns the payload address, 0 on exhaustion.
  uint32_t clientMalloc(int Tid, uint32_t Size, bool Zeroed) {
    return ClReqs->clientMalloc(Tid, Size, Zeroed);
  }
  /// Frees a payload pointer. Returns false (and reports) on a bad free.
  bool clientFree(int Tid, uint32_t Addr) {
    return ClReqs->clientFree(Tid, Addr);
  }
  uint32_t clientRealloc(int Tid, uint32_t Addr, uint32_t NewSize) {
    return ClReqs->clientRealloc(Tid, Addr, NewSize);
  }
  /// Size of a live block (0 if unknown).
  uint32_t heapBlockSize(uint32_t Addr) const {
    return ClReqs->heapBlockSize(Addr);
  }
  /// Live heap blocks (leak checking, Massif).
  const std::map<uint32_t, uint32_t> &heapBlocks() const {
    return ClReqs->heapBlocks();
  }
  uint64_t heapBytesLive() const { return ClReqs->heapBytesLive(); }

  // --- threads (ThreadState access for tools/tests) -----------------------
  ThreadState &thread(int Tid) { return Threads[Tid]; }
  int currentTid() const { return CurTid; }
  int liveThreads() const;
  /// True while the sharded scheduler is running (--sched-threads > 1).
  /// Tools use this to avoid world-lock-only services from lock-free
  /// helper context (e.g. stack capture walks the segment map).
  bool isParallel() const;

  // --- KernelHost (threads & signals, called by the simulated kernel) -----
  int spawnThread(uint32_t Entry, uint32_t SP, uint32_t Arg) override;
  void exitThread(int Tid, int Code) override;
  void setSignalHandler(int Sig, uint32_t Handler) override;
  uint32_t signalHandler(int Sig) const override;
  bool raiseSignal(int Tid, int Sig) override;
  void sigreturn(int Tid) override;
  void requestYield(int Tid) override;

  /// Discards translations intersecting [Addr, Addr+Len) — the
  /// DISCARD_TRANSLATIONS client request and munmap both land here.
  void discardTranslations(uint32_t Addr, uint32_t Len);

  // --- TranslationHost (called by the TranslationService) -----------------
  void setupTranslation(TranslationOptions &TO, uint32_t PC,
                        Translation *Raw) override;
  /// For callers that replay translations by tier. \p Hot is ignored: with
  /// hot superblocks gone a block has one shape; TO.Trace marks a trace.
  void setupTranslation(TranslationOptions &TO, uint32_t PC, bool /*Hot*/,
                        Translation *Raw) {
    setupTranslation(TO, PC, Raw);
  }
  void noteTranslation(uint32_t PC, const Translation &T,
                       double Seconds) override;

  // Helper callees referenced from generated code (public because the
  // Callee descriptors binding them are defined at namespace scope).
  static uint64_t helperSmcCheck(void *Env, uint64_t TransPtr, uint64_t,
                                 uint64_t, uint64_t);
  static uint64_t helperTrackSp(void *Env, uint64_t, uint64_t, uint64_t,
                                uint64_t);

  /// Best-effort guest stack trace (return-address scan).
  std::vector<uint32_t> captureStackTrace(ThreadState &TS, unsigned Max = 8);

private:
  // The engines are friends: they are Core's own internals, split into
  // separate TUs for layering and testability, not arm's-length clients.
  friend class DispatchLoop;
  friend class SignalEngine;
  friend class RedirectEngine;
  friend class ClientRequestEngine;

  /// The shared run epilogue: tool fini, profile/trace dumps, exit-status
  /// construction. Called by DispatchLoop::run.
  CoreExit finishRun();

  [[noreturn]] void internalError(const char *Msg);

  /// The core's own instrumentation layered around the tool's: SMC check
  /// prelude (when \p WantSmc — sampled at options-build time from live
  /// stack geometry) and SP-change tracking (R7). For trace pipelines
  /// \p SeamEntries lists the non-head constituent entry PCs: under
  /// WantSmc each seam gets its own SMC check + SmcFail exit, because the
  /// trace inlines its constituents without their own preludes and
  /// mid-path self-modification must still abort at the seam it
  /// invalidates.
  void instrumentBlock(ir::IRSB &SB, uint32_t Addr, Translation *Trans,
                       bool WantSmc,
                       const std::vector<uint32_t> &SeamEntries);
  bool addrOnAnyStack(uint32_t Addr) const;

  OptionRegistry Opts;
  OutputSink Out;
  EventHub Events;
  ErrorManager Errors;
  GuestMemory Memory;
  AddressSpace AS;
  std::unique_ptr<SimKernel> Kernel;
  /// The extracted translation layer; owns the TransTab and the optional
  /// persistent translation cache.
  std::unique_ptr<TranslationService> XS;
  TransTab &TT; ///< alias into XS (guest-thread access only)
  Tool *ToolPlugin;

  // The engines. Heap-allocated so their headers only need Core forward-
  // declared (DispatchLoop's header needs Core complete, hence the pointer
  // plus out-of-line isParallel/dtor).
  std::unique_ptr<SignalEngine> Signals;
  std::unique_ptr<RedirectEngine> Redirects;
  std::unique_ptr<ClientRequestEngine> ClReqs;
  std::unique_ptr<DispatchLoop> Dispatch;

  std::array<ThreadState, MaxThreads> Threads;
  int CurTid = 0;
  /// Atomic because MT shards read them in their loop conditions while
  /// another shard's locked section sets them; the serial scheduler uses
  /// them exactly as the plain flags they replaced.
  std::atomic<bool> ProcessExited{false};
  int ProcessExitCode = 0;
  std::atomic<int> FatalSignal{0};

  unsigned SchedThreads = 1; // --sched-threads
  SmcMode Smc = SmcMode::Stack;
  bool ChainingEnabled = false;
  bool VerifyIR = false; // --verify-ir
  bool NoIROpt = false;  // --no-iropt
  bool TraceTier = false; // --trace-tier
  /// Executions that make a baseline block a trace head: 4x --hot-threshold
  /// under --trace-tier with chaining, else never (DESIGN section 13).
  uint64_t TraceHeadExecs = UINT64_MAX;
  uint32_t StackSwitchThreshold = 2u << 20; // 2MB (Section 3.12)

  std::unique_ptr<Profiler> Prof;      // non-null under --profile
  std::unique_ptr<FaultPlan> Faults;   // non-null under --fault-inject
  std::unique_ptr<EventTracer> Tracer; // non-null under --trace-events
  bool TraceDumpAtExit = false;        // --trace-dump (fatal always dumps)

  CoreStats Stats;
  const ir::SpecFn Spec;
};

} // namespace vg

#endif // VG_CORE_CORE_H
