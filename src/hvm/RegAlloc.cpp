//===-- hvm/RegAlloc.cpp - Phase 7: linear-scan register allocation -------==//
///
/// Linear-scan allocation in the style of Traub et al. (the paper's cited
/// algorithm [26]): live intervals over the instruction list, an active set
/// ordered by interval end, furthest-end spilling, and move-coalescing
/// hints so that "the register allocator can remove many register-to-
/// register moves" (Figure 3).
///
//===----------------------------------------------------------------------===//

#include "hvm/ISel.h"

#include <algorithm>

using namespace vg;
using namespace vg::hvm;

namespace {

struct Interval {
  RegId VR = NoReg;
  int Start = -1, End = -1;
  RegId HintVR = NoReg; ///< prefer this vreg's assignment (MOV coalescing)
  RegId Phys = NoReg;
  int Slot = -1; ///< spill slot when >= 0
};

struct UseDef {
  RegId *Regs[6];
  bool IsDef[6];
  unsigned N = 0;
  void add(RegId &R, bool Def) {
    if (R == NoReg || !isVirtual(R))
      return;
    Regs[N] = &R;
    IsDef[N] = Def;
    ++N;
  }
};

/// Collects the virtual-register operands of an instruction.
UseDef operands(HInstr &I) {
  UseDef U;
  switch (I.Op) {
  case HOp::LI:
    U.add(I.Dst, true);
    break;
  case HOp::MOV:
    U.add(I.A, false);
    U.add(I.Dst, true);
    break;
  case HOp::ALU:
    U.add(I.A, false);
    U.add(I.B, false);
    U.add(I.Dst, true);
    break;
  case HOp::ALU1:
  case HOp::ALUI:
  case HOp::ALUIS: // only chosen at encode time, but handle uniformly
    U.add(I.A, false);
    U.add(I.Dst, true);
    break;
  case HOp::LDG:
    U.add(I.Dst, true);
    break;
  case HOp::STG:
    U.add(I.A, false);
    break;
  case HOp::LDM:
    U.add(I.A, false);
    U.add(I.Dst, true);
    break;
  case HOp::STM:
    U.add(I.A, false);
    U.add(I.B, false);
    break;
  case HOp::SEL:
    U.add(I.A, false);
    U.add(I.B, false);
    U.add(I.C, false);
    U.add(I.Dst, true);
    break;
  case HOp::CALL:
    for (unsigned J = 0; J != I.NArgs; ++J)
      U.add(I.Args[J], false);
    U.add(I.Dst, true);
    break;
  case HOp::JZ:
  case HOp::EXITR:
    U.add(I.A, false);
    break;
  case HOp::SPILL:
    U.add(I.A, false);
    break;
  case HOp::RELOAD:
    U.add(I.Dst, true);
    break;
  case HOp::SHPROBE:
    U.add(I.A, false);
    U.add(I.B, false); // NoReg for the load form; add() skips it
    U.add(I.Dst, true);
    break;
  case HOp::EXITI:
  case HOp::IMARK:
    break;
  }
  return U;
}

} // namespace

unsigned hvm::allocateRegisters(HostCode &Code) {
  auto &Ins = Code.Instrs;

  // --- build live intervals ---------------------------------------------
  // Intervals are indexed by VR - VirtBase (ISel numbers vregs densely);
  // CallsBefore[I] counts the CALLs at positions < I. Order lists the
  // intervals by (Start, VR), the linear scan's order: an interval joins
  // it at its first reference, and the few an instruction first references
  // together are put in vreg order.
  std::vector<Interval> Ivals;
  Ivals.reserve(Ins.size());
  std::vector<uint32_t> Order; // indices into Ivals
  Order.reserve(Ins.size());
  std::vector<int> CallsBefore(Ins.size() + 1, 0);
  auto IntervalOf = [&](RegId VR) -> Interval & {
    return Ivals[VR - VirtBase];
  };
  for (size_t Idx = 0; Idx != Ins.size(); ++Idx) {
    CallsBefore[Idx + 1] = CallsBefore[Idx] + (Ins[Idx].Op == HOp::CALL);
    UseDef U = operands(Ins[Idx]);
    const size_t FirstNew = Order.size();
    for (unsigned J = 0; J != U.N; ++J) {
      RegId VR = *U.Regs[J];
      if (VR - VirtBase >= Ivals.size())
        Ivals.resize(VR - VirtBase + 1);
      Interval &IV = IntervalOf(VR);
      if (IV.Start < 0) {
        IV.VR = VR;
        IV.Start = static_cast<int>(Idx);
        // Insertion sort over this instruction's new intervals (<= 6).
        size_t P = Order.size();
        Order.push_back(VR - VirtBase);
        for (; P != FirstNew && Order[P - 1] > Order[P]; --P)
          std::swap(Order[P - 1], Order[P]);
      }
      IV.End = static_cast<int>(Idx);
    }
    // Coalescing hint: MOV dst,src prefers sharing src's register.
    if (Ins[Idx].Op == HOp::MOV && isVirtual(Ins[Idx].Dst) &&
        isVirtual(Ins[Idx].A))
      IntervalOf(Ins[Idx].Dst).HintVR = Ins[Idx].A;
  }

  // --- linear scan --------------------------------------------------------
  std::vector<Interval *> Active; // kept sorted by End
  bool FreeReg[NumAllocatable];
  std::fill(std::begin(FreeReg), std::end(FreeReg), true);
  uint32_t NextSlot = 0;

  auto Expire = [&](int Now) {
    size_t Keep = 0;
    for (Interval *A : Active) {
      if (A->End < Now)
        FreeReg[A->Phys] = true;
      else
        Active[Keep++] = A;
    }
    Active.resize(Keep);
  };

  auto InsertActive = [&](Interval *IV) {
    auto It = std::lower_bound(
        Active.begin(), Active.end(), IV,
        [](const Interval *A, const Interval *B) { return A->End < B->End; });
    Active.insert(It, IV);
  };

  // An interval strictly spanning a CALL cannot live in a caller-saved
  // register (the call clobbers h0..h5). One ending at a CALL (an
  // argument) or starting there (the result) can.
  auto SpansCall = [&](const Interval *IV) {
    return CallsBefore[IV->End] > CallsBefore[IV->Start + 1];
  };

  for (uint32_t OrdIdx : Order) {
    Interval *IV = &Ivals[OrdIdx];
    Expire(IV->Start);
    bool NeedCalleeSaved = SpansCall(IV);
    unsigned FirstOk = NeedCalleeSaved ? NumCallerSaved : 0;
    // Try the coalescing hint first. The common case is that the source of
    // the MOV dies exactly at the MOV (End == our Start): its register can
    // be taken over directly, which later deletes the MOV.
    RegId Chosen = NoReg;
    if (IV->HintVR != NoReg) {
      Interval &H = IntervalOf(IV->HintVR);
      if (H.Phys != NoReg && H.Phys >= FirstOk) {
        if (FreeReg[H.Phys]) {
          Chosen = H.Phys;
        } else if (H.End <= IV->Start) {
          // Take over the dying source's register; drop it from the active
          // list so its (already transferred) register is not re-freed.
          Chosen = H.Phys;
          auto AIt = std::find(Active.begin(), Active.end(), &H);
          if (AIt != Active.end())
            Active.erase(AIt);
        }
      }
    }
    if (Chosen == NoReg) {
      for (unsigned R = FirstOk; R != NumAllocatable; ++R) {
        if (FreeReg[R]) {
          Chosen = R;
          break;
        }
      }
    }
    if (Chosen != NoReg) {
      IV->Phys = Chosen;
      FreeReg[Chosen] = false;
      InsertActive(IV);
      continue;
    }
    // No usable register free: spill the eligible interval ending furthest
    // away (or this one).
    Interval *Victim = nullptr;
    for (auto It = Active.rbegin(); It != Active.rend(); ++It) {
      if ((*It)->Phys >= FirstOk) {
        Victim = *It;
        break;
      }
    }
    if (Victim && Victim->End > IV->End) {
      IV->Phys = Victim->Phys;
      Victim->Phys = NoReg;
      Victim->Slot = static_cast<int>(NextSlot++);
      Active.erase(std::find(Active.begin(), Active.end(), Victim));
      InsertActive(IV);
    } else {
      IV->Slot = static_cast<int>(NextSlot++);
    }
  }

  // --- rewrite: apply assignments, insert spill code, coalesce moves -----
  std::vector<HInstr> Out;
  Out.reserve(Ins.size());
  std::vector<int32_t> NewIndex(Ins.size() + 1, 0);
  unsigned Coalesced = 0;

  for (size_t Idx = 0; Idx != Ins.size(); ++Idx) {
    NewIndex[Idx] = static_cast<int32_t>(Out.size());
    HInstr I = Ins[Idx];
    UseDef U = operands(I);
    unsigned ScratchNext = FirstScratch;
    HInstr DeferredSpill;
    bool HaveSpillAfter = false;

    for (unsigned J = 0; J != U.N; ++J) {
      Interval &IV = IntervalOf(*U.Regs[J]);
      if (IV.Phys != NoReg) {
        *U.Regs[J] = IV.Phys;
        continue;
      }
      // Spilled virtual register.
      assert(IV.Slot >= 0 && "spilled interval without a slot");
      RegId S = ScratchNext++;
      assert(S < NumHostRegs && "ran out of scratch registers");
      if (U.IsDef[J]) {
        *U.Regs[J] = S;
        DeferredSpill = HInstr();
        DeferredSpill.Op = HOp::SPILL;
        DeferredSpill.A = S;
        DeferredSpill.Off = static_cast<uint32_t>(IV.Slot);
        HaveSpillAfter = true;
      } else {
        HInstr R;
        R.Op = HOp::RELOAD;
        R.Dst = S;
        R.Off = static_cast<uint32_t>(IV.Slot);
        Out.push_back(R);
        *U.Regs[J] = S;
      }
    }

    // Coalesce now-trivial moves.
    if (I.Op == HOp::MOV && I.Dst == I.A) {
      ++Coalesced;
      continue;
    }
    Out.push_back(I);
    if (HaveSpillAfter)
      Out.push_back(DeferredSpill);
  }
  NewIndex[Ins.size()] = static_cast<int32_t>(Out.size());

  // Fix JZ targets (instruction indices moved).
  for (HInstr &I : Out)
    if (I.Op == HOp::JZ)
      I.Label = NewIndex[I.Label];

  Code.Instrs = std::move(Out);
  Code.NumSpillSlots = NextSlot;
  return Coalesced;
}
