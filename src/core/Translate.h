//===-- core/Translate.h - The eight-phase translation pipeline -*- C++ -*-==//
///
/// \file
/// Drives one code block through all eight translation phases of Section
/// 3.7:
///
///   1. Disassembly (machine code -> tree IR)        [frontend]
///   2. Optimisation 1 (tree IR -> flat IR)          [ir]
///   3. Instrumentation (flat IR -> flat IR)         [the tool plug-in]
///   4. Optimisation 2 (flat IR -> flat IR)          [ir]
///   5. Tree building (flat IR -> tree IR)           [ir]
///   6. Instruction selection (tree IR -> insns)     [hvm]
///   7. Register allocation (linear scan)            [hvm]
///   8. Assembly (insns -> code-cache bytes)         [hvm]
///
/// Phases are observable: pass a TranslationArtifacts to capture each
/// stage's textual rendering (the Figure 1/2/3 benches are built on this).
///
//===----------------------------------------------------------------------===//
#ifndef VG_CORE_TRANSLATE_H
#define VG_CORE_TRANSLATE_H

#include "frontend/Vg1Frontend.h"
#include "hvm/Exec.h"
#include "support/Profile.h"

#include <string>

namespace vg {

/// The tool's Phase 3 hook: transforms a flat superblock in place (tools
/// may rebuild the statement list arbitrarily). Phase 4 is skipped when
/// the list, tmp count and block end come back unchanged.
using InstrumentFn = std::function<void(ir::IRSB &SB)>;

struct TranslationOptions {
  FrontendConfig Frontend;
  ir::SpecFn Spec;              ///< defaults to vg1SpecFn() when null
  InstrumentFn Instrument;      ///< null = no instrumentation (Nulgrind)
  bool RunOptimise1 = true;
  bool RunOptimise2 = true;
  bool Verify = false;          ///< typecheck IR between phases (tests)
  /// Guest-state Puts in this range survive redundancy elimination (the
  /// SP offset when a tool wants stack events, R7).
  ir::PreservedPuts Preserve;
  /// When set (--profile), each phase's wall time is recorded here.
  Profiler *Prof = nullptr;
  /// Tier 2: when Trace.Entries is non-empty, Phase 1 stitches the hot
  /// path into one superblock (disassembleTrace) and Phases 2/4 run the
  /// cross-seam optimisations — flag liveness across guarded side exits
  /// and ShadowProbe CSE. Entries[0] must equal the translated address.
  TraceSpec Trace;
  /// Sink for the trace passes' counters (--profile); may be null.
  ir::TraceOptStats *TraceStats = nullptr;
};

/// Optional capture of the intermediate representations of each phase.
struct TranslationArtifacts {
  std::string TreeIR;        ///< after phase 1
  std::string FlatIR;        ///< after phase 2
  std::string InstrumentedIR; ///< after phase 3
  std::string OptimisedIR;   ///< after phase 4
  std::string RebuiltTreeIR; ///< after phase 5
  std::string HostPreAlloc;  ///< after phase 6
  std::string HostPostAlloc; ///< after phase 7
  unsigned CoalescedMoves = 0;
  unsigned StmtsAfterInstrumentation = 0;
  unsigned StmtsAfterOptimise2 = 0;
};

/// Result of translating one block.
struct TranslatedBlock {
  hvm::CodeBlob Blob;
  DisasmResult Meta; ///< extents, instruction count, decode status
  /// Trace pipelines only: register allocation overflowed the executor
  /// frame (a stitched path can be much larger than any superblock). The
  /// blob is empty; the caller falls back to the constituent baseline
  /// blocks. Plain superblocks still treat overflow as a fatal bug.
  bool SpillOverflow = false;
};

/// The trace tier's cross-seam optimisation context for \p TraceIR, a
/// trace's Phase 1 output: the guest-state geometry and the Boring exit
/// targets at which the CC thunk is provably dead. The bytes those proofs
/// scanned are appended to \p Extents. translateBlock calls this for every
/// trace; tests call it to rerun a trace's Phase 2 by hand.
ir::TraceOptConfig traceOptConfig(
    const ir::IRSB &TraceIR, const FetchFn &Fetch,
    std::vector<std::pair<uint32_t, uint32_t>> &Extents);

/// Runs the pipeline for the block at \p Addr. On IR verification failure
/// (Verify set) aborts with a diagnostic — translation bugs are
/// programmatic errors.
TranslatedBlock translateBlock(uint32_t Addr, const FetchFn &Fetch,
                               const TranslationOptions &Opts,
                               TranslationArtifacts *Art = nullptr);

} // namespace vg

#endif // VG_CORE_TRANSLATE_H
