//===-- core/Translate.cpp - The eight-phase translation pipeline ---------==//

#include "core/Translate.h"

#include "guest/GuestArch.h"
#include "hvm/ISel.h"
#include "ir/IROpt.h"
#include "ir/IRPrinter.h"
#include "support/Errors.h"

#include <algorithm>
#include <optional>

using namespace vg;

namespace {

void verifyIR(const ir::IRSB &SB, bool Flat, const char *Phase) {
  std::string Diag = SB.typecheck(Flat);
  if (Diag.empty())
    return;
  std::fprintf(stderr, "IR verification failed after %s: %s\n%s", Phase,
               Diag.c_str(), ir::toString(SB).c_str());
  unreachable("translation produced ill-formed IR");
}

/// What Phase 3 must leave as it was for Phase 4 to be skipped: the
/// statement list, compared by statement identity (instrumenters build new
/// statements rather than edit old ones in place), the tmp count and the
/// block end.
struct BlockShape {
  explicit BlockShape(const ir::IRSB &SB)
      : Stmts(SB.stmts()), NumTmps(SB.numTmps()), Next(SB.next()),
        EndJK(SB.endJumpKind()) {}
  bool matches(const ir::IRSB &SB) const {
    return SB.numTmps() == NumTmps && SB.next() == Next &&
           SB.endJumpKind() == EndJK && SB.stmts() == Stmts;
  }

  std::vector<ir::Stmt *> Stmts;
  size_t NumTmps;
  const ir::Expr *Next;
  ir::JumpKind EndJK;
};

std::string renderHost(const hvm::HostCode &Code) {
  std::string Out;
  for (const hvm::HInstr &I : Code.Instrs) {
    Out += hvm::toString(I);
    Out += "\n";
  }
  return Out;
}

} // namespace

ir::TraceOptConfig vg::traceOptConfig(
    const ir::IRSB &TraceIR, const FetchFn &Fetch,
    std::vector<std::pair<uint32_t, uint32_t>> &Extents) {
  // Prove the CC thunk dead at whichever exit targets allow it, so DeadPut
  // can treat side exits as jumps with known downstream liveness rather
  // than barriers. The scanned bytes join the extents: if the proof's code
  // changes, the trace dies with it.
  ir::TraceOptConfig Cfg;
  Cfg.PCLo = vg1::gso::PC;
  Cfg.PCHi = vg1::gso::PC + 4;
  Cfg.CCLo = vg1::gso::CC_OP;
  Cfg.CCHi = vg1::gso::CC_NDEP + 4;
  Cfg.ShadowOffset = vg1::gso::ShadowOffset;
  std::vector<uint32_t> Cands;
  for (const ir::Stmt *S : TraceIR.stmts())
    if (S->Kind == ir::StmtKind::Exit && S->JK == ir::JumpKind::Boring)
      Cands.push_back(S->DstPC);
  uint32_t FinalPC = ~0u;
  if (TraceIR.next()->isConst() &&
      TraceIR.endJumpKind() == ir::JumpKind::Boring)
    Cands.push_back(FinalPC = static_cast<uint32_t>(TraceIR.next()->ConstVal));
  std::sort(Cands.begin(), Cands.end());
  Cands.erase(std::unique(Cands.begin(), Cands.end()), Cands.end());
  std::vector<std::pair<uint32_t, uint32_t>> Scanned;
  for (uint32_t T : Cands)
    if (flagsDeadAt(T, Fetch, Scanned))
      Cfg.FlagsDeadTargets.push_back(T);
  Cfg.FlagsDeadAtEnd = FinalPC != ~0u && Cfg.flagsDeadAtTarget(FinalPC);
  Extents.insert(Extents.end(), Scanned.begin(), Scanned.end());
  return Cfg;
}

TranslatedBlock vg::translateBlock(uint32_t Addr, const FetchFn &Fetch,
                                   const TranslationOptions &Opts,
                                   TranslationArtifacts *Art) {
  const ir::SpecFn Spec = Opts.Spec ? Opts.Spec : vg1SpecFn();
  Profiler *Prof = Opts.Prof;

  const bool IsTrace = !Opts.Trace.Entries.empty();

  // Phase 1: disassembly.
  DisasmResult Dis;
  {
    Profiler::Timer Tm(Prof, ProfPhase::Disasm);
    Dis = IsTrace ? disassembleTrace(Opts.Trace, Fetch, Opts.Frontend)
                  : disassembleSB(Addr, Fetch, Opts.Frontend);
  }
  if (Opts.Verify)
    verifyIR(*Dis.SB, /*RequireFlat=*/false, "disassembly");
  if (Art)
    Art->TreeIR = ir::toString(*Dis.SB, ir::vg1OffsetName);

  ir::TraceOptConfig TraceCfg;
  if (IsTrace) {
    TraceCfg = traceOptConfig(*Dis.SB, Fetch, Dis.Extents);
    TraceCfg.Stats = Opts.TraceStats;
  }
  const ir::TraceOptConfig *TC = IsTrace ? &TraceCfg : nullptr;

  // The optimisation passes' tables, shared by Phases 2 and 4.
  ir::OptStorage Storage;

  // Phase 2: flatten + optimisation 1. Settled says whether another round
  // of its passes would change nothing (see IROpt.h).
  std::unique_ptr<ir::IRSB> SB;
  bool Settled = false;
  {
    Profiler::Timer Tm(Prof, ProfPhase::Optimise1);
    SB = ir::flatten(*Dis.SB);
    if (Opts.RunOptimise1) {
      ir::Optimise1Result R =
          ir::optimise1(*SB, Spec, Opts.Preserve, TC, &Storage);
      Settled = R.Settled;
      if (R.SecondRound && Prof)
        Prof->noteOptimise1SecondRound();
    }
  }
  if (Opts.Verify)
    verifyIR(*SB, /*RequireFlat=*/true, "optimisation 1");
  if (Art)
    Art->FlatIR = ir::toString(*SB, ir::vg1OffsetName);

  // Phase 3: instrumentation (the tool plug-in).
  if (Opts.Instrument) {
    std::optional<BlockShape> Before;
    if (Settled && Opts.RunOptimise2)
      Before.emplace(*SB);
    {
      Profiler::Timer Tm(Prof, ProfPhase::Instrument);
      Opts.Instrument(*SB);
    }
    if (Before)
      Settled = Before->matches(*SB);
    if (Opts.Verify)
      verifyIR(*SB, /*RequireFlat=*/true, "instrumentation");
    if (Art) {
      Art->InstrumentedIR = ir::toString(*SB, ir::vg1OffsetName);
      Art->StmtsAfterInstrumentation =
          static_cast<unsigned>(SB->stmts().size());
    }
  }

  // Phase 4: optimisation 2, unless Phase 2 settled and Phase 3 added
  // nothing: then its round would change nothing.
  if (Opts.RunOptimise2) {
    if (Settled) {
      if (Prof)
        Prof->noteOptimise2Skipped();
    } else {
      Profiler::Timer Tm(Prof, ProfPhase::Optimise2);
      ir::optimise2(*SB, Spec, Opts.Preserve, TC, &Storage);
    }
  }
  if (Opts.Verify)
    verifyIR(*SB, /*RequireFlat=*/true, "optimisation 2");
  if (Art) {
    Art->OptimisedIR = ir::toString(*SB, ir::vg1OffsetName);
    Art->StmtsAfterOptimise2 = static_cast<unsigned>(SB->stmts().size());
  }

  // Phase 5: tree building.
  {
    Profiler::Timer Tm(Prof, ProfPhase::TreeBuild);
    ir::buildTrees(*SB);
  }
  if (Opts.Verify)
    verifyIR(*SB, /*RequireFlat=*/false, "tree building");
  if (Art)
    Art->RebuiltTreeIR = ir::toString(*SB, ir::vg1OffsetName);

  // Phase 6: instruction selection.
  hvm::HostCode Host;
  {
    Profiler::Timer Tm(Prof, ProfPhase::ISel);
    Host = hvm::selectInstructions(*SB);
  }
  if (Art)
    Art->HostPreAlloc = renderHost(Host);

  // Phase 7: register allocation.
  unsigned Coalesced;
  {
    Profiler::Timer Tm(Prof, ProfPhase::RegAlloc);
    Coalesced = hvm::allocateRegisters(Host);
  }
  if (Art) {
    Art->HostPostAlloc = renderHost(Host);
    Art->CoalescedMoves = Coalesced;
  }
  if (Host.NumSpillSlots > hvm::Executor::MaxSpillSlots) {
    if (IsTrace) {
      // A stitched path can legitimately outgrow the executor frame; the
      // caller keeps running the constituent baseline blocks instead.
      TranslatedBlock TB;
      TB.SpillOverflow = true;
      TB.Meta = std::move(Dis);
      TB.Meta.SB.reset();
      return TB;
    }
    unreachable("translation needs more spill slots than the executor frame");
  }

  // Phase 8: assembly.
  TranslatedBlock TB;
  {
    Profiler::Timer Tm(Prof, ProfPhase::Encode);
    TB.Blob.Bytes = hvm::encode(Host);
  }
  TB.Blob.NumSpillSlots = Host.NumSpillSlots;
  TB.Blob.NumChainSlots = Host.NumChainSlots;
  TB.Blob.ChainTargets = std::move(Host.ChainTargets);
  TB.Blob.TerminalChainSlot = Host.TerminalChainSlot;
  TB.Meta = std::move(Dis);
  TB.Meta.SB.reset(); // the IR is dead once code is emitted
  return TB;
}
