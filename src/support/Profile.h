//===-- support/Profile.h - Dispatcher/translation profiling ---*- C++ -*-==//
///
/// \file
/// The --profile observability layer: records per-phase translation time
/// (Section 3.7's eight phases), per-translation execution counts, and the
/// dispatcher/translation-table counters, then renders a ranked hot-block
/// report at fini(). Everything here is off the hot path unless profiling
/// was requested; the core only consults a null-checked pointer otherwise.
///
//===----------------------------------------------------------------------===//
#ifndef VG_SUPPORT_PROFILE_H
#define VG_SUPPORT_PROFILE_H

#include <cstdint>
#include <map>

namespace vg {

class OutputSink;

/// The translation-pipeline phases timed under --profile (Section 3.7).
enum class ProfPhase : unsigned {
  Disasm,     ///< Phase 1: machine code -> tree IR
  Optimise1,  ///< Phase 2: flatten + optimisation 1
  Instrument, ///< Phase 3: the tool plug-in
  Optimise2,  ///< Phase 4: optimisation 2
  TreeBuild,  ///< Phase 5: tree reconstruction
  ISel,       ///< Phase 6: instruction selection
  RegAlloc,   ///< Phase 7: linear-scan allocation
  Encode,     ///< Phase 8: assembly into code-cache bytes
  NumPhases
};

const char *profPhaseName(ProfPhase P);

/// Counters snapshotted by the core at report time (kept as a plain struct
/// so support/ does not depend on core/ headers).
struct ProfCounters {
  uint64_t BlocksDispatched = 0;
  uint64_t DispatcherEntries = 0; ///< blocks minus chained transfers
  uint64_t FastCacheHits = 0;
  uint64_t FastCacheMisses = 0;
  uint64_t ChainedTransfers = 0;
  uint64_t Translations = 0;
  uint64_t HotPromotions = 0; ///< hot blocks walked for a trace
  uint64_t TableLookups = 0;
  uint64_t TableHits = 0;
  uint64_t ChainsFilled = 0;
  uint64_t Unchains = 0;
  uint64_t EvictionRuns = 0;
  uint64_t Evicted = 0;
  uint64_t Invalidated = 0;
  // Shadow-memory fast-path counters (only when the tool has a ShadowMap).
  bool HasShadow = false;
  uint64_t ShadowFastLoads = 0;
  uint64_t ShadowSlowLoads = 0;
  uint64_t ShadowFastStores = 0;
  uint64_t ShadowSlowStores = 0;
  uint64_t ShadowSecCacheHits = 0;
  uint64_t ShadowSecCacheMisses = 0;
  uint64_t ShadowChunksMaterialised = 0;
  uint64_t ShadowChunksReclaimed = 0;
  uint64_t ShadowChunksLive = 0;
  uint64_t ShadowChunksHighWater = 0;
  // Scheduler/signal counters (PR 3).
  uint64_t ThreadSwitches = 0;
  uint64_t SignalsDelivered = 0;
  uint64_t SignalsDropped = 0;
  // Fault-injection counters (only when --fault-inject is active).
  bool HasFaults = false;
  uint64_t FaultRolls = 0;
  uint64_t FaultsInjected[8] = {};  ///< indexed by FaultKind
  const char *FaultNames[8] = {};   ///< parallel names, null-terminated set
  // Event-tracer counters (only when --trace-events is active).
  bool HasTrace = false;
  uint64_t TraceRecorded = 0;
  uint64_t TraceDropped = 0;
  uint64_t TraceSyscalls = 0;
  uint64_t TraceSignals = 0; ///< queue+deliver+return+drop records
  // Trace-tier counters (only when --trace-tier is on).
  bool HasTraces = false;
  uint64_t TraceRequests = 0;     ///< trace formations attempted
  uint64_t TracesFormed = 0;      ///< traces installed over baseline heads
  uint64_t TraceAborts = 0;       ///< spill overflow
  uint64_t TraceExecs = 0;        ///< trace entries executed
  uint64_t TraceSideExits = 0;    ///< exits taken through a guarded side exit
  uint64_t TraceDeadFlagPuts = 0; ///< dead CC-thunk writes deleted
  uint64_t TraceProbesCSEd = 0;   ///< shadow probes CSE'd across seams
  // Sharded-scheduler counters (only when --sched-threads > 1).
  bool HasSched = false;
  uint64_t SchedThreads = 0;
  uint64_t SchedQuanta = 0;          ///< run-queue pops that ran a quantum
  uint64_t RunQueuePushes = 0;
  uint64_t RunQueuePops = 0;
  uint64_t RunQueueWaits = 0;        ///< pops that had to park
  uint64_t WorldLockAcquisitions = 0;///< block-boundary lock round-trips
  uint64_t TranslationsRetired = 0;  ///< QSBR limbo traffic
  uint64_t LimboHighWater = 0;       ///< peak translations awaiting grace
  // Persistent translation-cache counters (only when --tt-cache is set).
  bool HasTransCache = false;
  uint64_t CacheHits = 0;    ///< entries validated and installed
  uint64_t CacheMisses = 0;  ///< key not present on disk
  uint64_t CacheRejects = 0; ///< present but malformed/stale/poisoned
  uint64_t CacheWrites = 0;  ///< entries written back after a pipeline run
  uint64_t CacheEvictedFiles = 0; ///< files removed to honour the budget
  uint64_t CacheDirBytes = 0;     ///< on-disk footprint at exit
  double CacheLoadSeconds = 0;    ///< read+validate+install, summed
  double CacheStoreSeconds = 0;   ///< serialize+write-back, summed
};

/// Accumulates profile data for one run.
class Profiler {
public:
  /// RAII phase timer; a null profiler makes it a no-op, so call sites can
  /// be written unconditionally.
  class Timer {
  public:
    Timer(Profiler *P, ProfPhase Ph);
    ~Timer();
    Timer(const Timer &) = delete;
    Timer &operator=(const Timer &) = delete;

  private:
    Profiler *P;
    ProfPhase Ph;
    double T0;
  };

  /// One block entry (dispatcher entry or chained transfer) at \p Addr.
  void noteExec(uint32_t Addr) { ++Blocks[Addr].Execs; }

  /// A translation of \p Addr finished (Tier 2 = trace).
  void noteTranslation(uint32_t Addr, uint32_t NumInsns, unsigned Tier,
                       double Seconds);

  /// A translation's optimisation 1 ran its second round (its first
  /// round's CSE merged an expression).
  void noteOptimise1SecondRound() { ++Optimise1SecondRounds; }

  /// A translation skipped optimisation 2: its instrumentation added
  /// nothing and optimisation 1's last round settled.
  void noteOptimise2Skipped() { ++Optimise2Skipped; }

  /// Renders the report: per-phase translation timings, dispatcher and
  /// table counters, and the TopN blocks ranked by execution count.
  void report(OutputSink &Out, const ProfCounters &C,
              unsigned TopN = 10) const;

private:
  void notePhaseSeconds(ProfPhase Ph, double Seconds);

  struct BlockInfo {
    uint64_t Execs = 0;
    uint32_t NumInsns = 0;
    uint32_t Translations = 0; ///< times (re)translated
    unsigned Tier = 0;         ///< highest tier reached
    double TranslateSeconds = 0;
  };

  static constexpr unsigned NPhases =
      static_cast<unsigned>(ProfPhase::NumPhases);
  double PhaseSeconds[NPhases] = {};
  uint64_t PhaseCounts[NPhases] = {};
  uint64_t Optimise1SecondRounds = 0;
  uint64_t Optimise2Skipped = 0;
  std::map<uint32_t, BlockInfo> Blocks; ///< survives eviction, keyed by PC
};

} // namespace vg

#endif // VG_SUPPORT_PROFILE_H
