//===-- ir/IROpt.h - IR optimisation passes ---------------------*- C++ -*-==//
///
/// \file
/// The translation pipeline's IR phases (Section 3.7):
///
///  - flatten():   Phase 2 entry — tree IR to flat IR (all statement
///                 operands become atoms: temporaries or constants).
///  - optimise1(): Phase 2 body — redundant Get/Put elimination, copy and
///                 constant propagation, constant folding, CSE, dead code
///                 removal, and partial evaluation of platform-specific
///                 helper calls via a callback (the %eflags trick).
///  - optimise2(): Phase 4 — the cheaper post-instrumentation cleanup
///                 (constant folding, copy propagation, dead code removal),
///                 which lets tools emit somewhat simple-minded code.
///  - buildTrees(): Phase 5 — substitutes single-use temporaries into their
///                 use sites to rebuild expression trees for instruction
///                 selection. Loads are never moved past stores.
///
//===----------------------------------------------------------------------===//
#ifndef VG_IR_IROPT_H
#define VG_IR_IROPT_H

#include "ir/IR.h"

#include <functional>
#include <memory>

namespace vg {
namespace ir {

/// Partial-evaluation hook for clean helper calls (Section 3.7 Phase 2:
/// "callback functions that can partially evaluate certain platform-specific
/// C helper calls"). Invoked for CCalls whose arguments are atoms; may build
/// and return a replacement expression in \p SB, or null to keep the call.
using SpecFn =
    std::function<Expr *(IRSB &SB, const Callee *C,
                         const std::vector<Expr *> &Args)>;

/// Tree IR -> flat IR (fresh superblock).
std::unique_ptr<IRSB> flatten(const IRSB &In);

/// Guest-state byte range whose Puts must never be removed as redundant.
/// Used for the stack pointer when stack-allocation events are wanted
/// (R7): every SP write must remain visible to the core's SP-tracking
/// instrumentation, mirroring Valgrind's special treatment of guest_SP.
struct PreservedPuts {
  uint32_t Lo = 0, Hi = 0; // empty by default
  bool covers(uint32_t Offset) const { return Offset >= Lo && Offset < Hi; }
};

/// Counters filled by the trace-only passes; surfaced via --profile.
struct TraceOptStats {
  uint64_t DeadFlagPuts = 0; ///< CC-thunk Puts killed by cross-seam liveness
  uint64_t ProbesCSEd = 0;   ///< duplicate ShadowProbe loads rewritten
};

/// Cross-block optimisation context for trace-tier (tier 2) translations.
/// When passed to optimise1/optimise2, DeadPut treats every side exit as a
/// jump with known downstream liveness instead of a full barrier, and
/// optimise2 additionally CSEs repeated ShadowProbe loads across former
/// block seams. The fields describe guest-state geometry so the IR layer
/// stays guest-agnostic; the translation pipeline fills them from gso::*.
struct TraceOptConfig {
  /// Guest PC slot [PCLo, PCHi). Every exit — taken side exit or block
  /// end, immediate or register form — rewrites the PC in the executor,
  /// so a Put to it still pending at an exit is dead on the taken path.
  uint32_t PCLo = 0, PCHi = 0;
  /// Condition-code thunk [CCLo, CCHi): dead at a Boring exit whose
  /// target provably overwrites the whole thunk before reading any of it
  /// (vg1::flagsDeadAt). The bytes the proof scanned are part of the
  /// trace's extents, so SMC on them invalidates the trace.
  uint32_t CCLo = 0, CCHi = 0;
  /// Shadow-register mirror distance (0 = no mirror dead-ranging). The
  /// mirror of a dead CC range is equally dead: instrumentation mirrors
  /// guest thunk Puts, so a target that overwrites the thunk before
  /// reading it overwrites the shadow thunk first.
  uint32_t ShadowOffset = 0;
  /// Boring-exit targets at which the CC thunk is dead.
  std::vector<uint32_t> FlagsDeadTargets;
  /// The terminal next is a Boring constant whose target is flags-dead.
  bool FlagsDeadAtEnd = false;
  TraceOptStats *Stats = nullptr;

  bool flagsDeadAtTarget(uint32_t PC) const {
    for (uint32_t T : FlagsDeadTargets)
      if (T == PC)
        return true;
    return false;
  }
};

/// The tables the optimisation passes work in (tmp environment, output
/// statement list, guest-state slot tables, CSE hash table, liveness),
/// kept from one pass run to the next so that each pass clears them
/// instead of allocating its own. translateBlock owns one per translation,
/// so the storage lives and dies with that translation; optimise1 and
/// optimise2 called without one use a local one.
class OptStorage {
public:
  OptStorage();
  ~OptStorage();
  OptStorage(const OptStorage &) = delete;
  OptStorage &operator=(const OptStorage &) = delete;

  struct Tables;
  Tables &tables() { return *T; }

private:
  std::unique_ptr<Tables> T;
};

/// Full Phase-2 optimisation on flat IR, in place. \p Spec may be null.
/// \p Trace (null for superblocks) enables the cross-seam extensions.
///
/// Runs one round of seven passes (fold, redundant-Get, fold, CSE, fold,
/// dead-Put, dead-code), and a second round only if the first round's CSE
/// replaced an expression: its merges are what give another round new
/// copies to fold and new duplicates to merge. Without one, a second round
/// changes nothing as long as each guest-state slot is read and written at
/// one width and type, as the VG1 front end does: only a dead Get of
/// another width or type than the Put before it could keep a dead Put
/// alive into a second round. Two rounds are a cap, not a fixpoint: a
/// third would still change a few blocks. Returns true if the second
/// round ran.
bool optimise1(IRSB &SB, const SpecFn &Spec,
               const PreservedPuts &Preserve = PreservedPuts(),
               const TraceOptConfig *Trace = nullptr,
               OptStorage *Storage = nullptr);

/// Cheaper Phase-4 optimisation on flat IR, in place. \p Spec may be null
/// (tools' instrumentation also benefits from helper specialisation).
void optimise2(IRSB &SB, const SpecFn &Spec,
               const PreservedPuts &Preserve = PreservedPuts(),
               const TraceOptConfig *Trace = nullptr,
               OptStorage *Storage = nullptr);

/// Flat IR -> tree IR, in place (Phase 5).
void buildTrees(IRSB &SB);

/// Self-test hook for the differential fuzzer (vgfuzz --self-test): plants
/// a deliberate miscompile in simplify() so the harness can prove it
/// catches real optimiser bugs. 0 = off (the default; release behaviour).
/// Kind 1: folds Add32(x, 1) to x — loop increments silently vanish.
void setFuzzPlant(int Kind);
int fuzzPlant();

} // namespace ir
} // namespace vg

#endif // VG_IR_IROPT_H
