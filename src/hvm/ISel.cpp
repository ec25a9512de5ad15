//===-- hvm/ISel.cpp - Phase 6: instruction selection ---------------------==//

#include "hvm/ISel.h"

using namespace vg;
using namespace vg::hvm;
using namespace vg::ir;

namespace {

class Selector {
public:
  explicit Selector(const IRSB &SB) : SB(SB), TmpVreg(SB.numTmps(), NoReg) {
    Code.Instrs.reserve(InstrsPerStmt * SB.stmts().size() + 4);
  }

  HostCode run() {
    for (const Stmt *S : SB.stmts())
      lowerStmt(S);
    lowerBlockEnd();
    Code.NumChainSlots = NextChainSlot;
    return std::move(Code);
  }

private:
  RegId freshVreg() { return VirtBase + NextVreg++; }

  RegId vregOfTmp(TmpId T) {
    assert(T < TmpVreg.size() && "temporary out of range");
    if (TmpVreg[T] == NoReg)
      TmpVreg[T] = freshVreg();
    return TmpVreg[T];
  }

  HInstr &emit(HOp Op) {
    Code.Instrs.emplace_back();
    Code.Instrs.back().Op = Op;
    return Code.Instrs.back();
  }

  static uint8_t sizeOf(Ty T) {
    switch (T) {
    case Ty::I1:
    case Ty::I8:
      return 1;
    case Ty::I16:
      return 2;
    case Ty::I32:
      return 4;
    case Ty::I64:
    case Ty::F64:
      return 8;
    }
    return 4;
  }

  /// Greedy top-down selection: returns the register holding \p E's value.
  RegId sel(const Expr *E) {
    switch (E->Kind) {
    case ExprKind::Const: {
      RegId R = freshVreg();
      HInstr &I = emit(HOp::LI);
      I.Dst = R;
      I.Imm = E->ConstVal;
      return R;
    }
    case ExprKind::RdTmp:
      return vregOfTmp(E->Tmp);
    case ExprKind::Get: {
      RegId R = freshVreg();
      HInstr &I = emit(HOp::LDG);
      I.Dst = R;
      I.Off = E->Offset;
      I.Size = sizeOf(E->T);
      return R;
    }
    case ExprKind::Unop: {
      RegId A = sel(E->Arg[0]);
      RegId R = freshVreg();
      HInstr &I = emit(HOp::ALU1);
      I.IrOp = E->Opc;
      I.Dst = R;
      I.A = A;
      return R;
    }
    case ExprKind::Binop: {
      // Pattern: constant RHS folds into an immediate form.
      if (E->Arg[1]->isConst()) {
        RegId A = sel(E->Arg[0]);
        RegId R = freshVreg();
        HInstr &I = emit(HOp::ALUI);
        I.IrOp = E->Opc;
        I.Dst = R;
        I.A = A;
        I.Imm = E->Arg[1]->ConstVal;
        return R;
      }
      RegId A = sel(E->Arg[0]);
      RegId B = sel(E->Arg[1]);
      RegId R = freshVreg();
      HInstr &I = emit(HOp::ALU);
      I.IrOp = E->Opc;
      I.Dst = R;
      I.A = A;
      I.B = B;
      return R;
    }
    case ExprKind::Load: {
      auto [Base, Disp] = selAddr(E->Arg[0]);
      RegId R = freshVreg();
      HInstr &I = emit(HOp::LDM);
      I.Dst = R;
      I.A = Base;
      I.Disp = Disp;
      I.Size = sizeOf(E->T);
      return R;
    }
    case ExprKind::ITE: {
      RegId Cnd = sel(E->Arg[0]);
      RegId TV = sel(E->Arg[1]);
      RegId FV = sel(E->Arg[2]);
      RegId R = freshVreg();
      HInstr &I = emit(HOp::SEL);
      I.Dst = R;
      I.A = Cnd;
      I.B = TV;
      I.C = FV;
      return R;
    }
    case ExprKind::CCall: {
      RegId ArgRegs[4] = {NoReg, NoReg, NoReg, NoReg};
      for (size_t I = 0; I != E->CallArgs.size(); ++I)
        ArgRegs[I] = sel(E->CallArgs[I]);
      RegId R = freshVreg();
      HInstr &I = emit(HOp::CALL);
      I.CalleeFn = E->CalleeFn;
      I.Dst = R;
      I.NArgs = static_cast<uint8_t>(E->CallArgs.size());
      for (int J = 0; J != 4; ++J)
        I.Args[J] = ArgRegs[J];
      return R;
    }
    }
    unreachable("sel: bad expression kind");
  }

  /// Pattern-matches Add32(x, const) into a (base, displacement) pair.
  std::pair<RegId, int32_t> selAddr(const Expr *E) {
    if (E->Kind == ExprKind::Binop && E->Opc == Op::Add32 &&
        E->Arg[1]->isConst())
      return {sel(E->Arg[0]), static_cast<int32_t>(E->Arg[1]->ConstVal)};
    return {sel(E), 0};
  }

  void lowerStmt(const Stmt *S) {
    switch (S->Kind) {
    case StmtKind::NoOp:
      return;
    case StmtKind::IMark: {
      HInstr &I = emit(HOp::IMARK);
      I.Imm = S->IAddr;
      return;
    }
    case StmtKind::Put: {
      RegId V = sel(S->Data);
      HInstr &I = emit(HOp::STG);
      I.A = V;
      I.Off = S->Offset;
      I.Size = sizeOf(S->Data->T);
      return;
    }
    case StmtKind::WrTmp: {
      // RdTmp/Const right-hand sides become MOV/LI into the tmp's vreg;
      // everything else computes into a fresh vreg then MOVs (the register
      // allocator coalesces the copy away).
      RegId Dst = vregOfTmp(S->Tmp);
      RegId V = sel(S->Data);
      HInstr &I = emit(HOp::MOV);
      I.Dst = Dst;
      I.A = V;
      return;
    }
    case StmtKind::Store: {
      auto [Base, Disp] = selAddr(S->Addr);
      RegId V = sel(S->Data);
      HInstr &I = emit(HOp::STM);
      I.A = Base;
      I.B = V;
      I.Disp = Disp;
      I.Size = sizeOf(S->Data->T);
      return;
    }
    case StmtKind::Dirty: {
      int SkipLabel = -1;
      if (S->Guard && !S->Guard->isConst(1)) {
        RegId G = sel(S->Guard);
        HInstr &JZ = emit(HOp::JZ);
        JZ.A = G;
        SkipLabel = static_cast<int>(Code.Instrs.size()) - 1; // patched below
      }
      RegId ArgRegs[4] = {NoReg, NoReg, NoReg, NoReg};
      for (size_t I = 0; I != S->CallArgs.size(); ++I)
        ArgRegs[I] = sel(S->CallArgs[I]);
      HInstr &I = emit(HOp::CALL);
      I.CalleeFn = S->CalleeFn;
      I.Dst = S->Tmp == NoTmp ? NoReg : vregOfTmp(S->Tmp);
      I.NArgs = static_cast<uint8_t>(S->CallArgs.size());
      for (int J = 0; J != 4; ++J)
        I.Args[J] = ArgRegs[J];
      if (SkipLabel >= 0)
        Code.Instrs[SkipLabel].Label =
            static_cast<int32_t>(Code.Instrs.size());
      return;
    }
    case StmtKind::ShadowProbe: {
      RegId A = sel(S->Addr);
      RegId V = S->Data ? sel(S->Data) : NoReg;
      HInstr &I = emit(HOp::SHPROBE);
      I.Dst = vregOfTmp(S->Tmp);
      I.A = A;
      I.B = V;
      I.Imm = S->Data ? 1 : 0;
      I.Size = S->AccSize;
      return;
    }
    case StmtKind::Exit: {
      RegId G = sel(S->Guard);
      HInstr &JZ = emit(HOp::JZ);
      JZ.A = G;
      size_t JZIdx = Code.Instrs.size() - 1;
      HInstr &X = emit(HOp::EXITI);
      X.Imm = S->DstPC;
      X.JKind = static_cast<uint8_t>(S->JK);
      X.ChainSlot = NextChainSlot++;
      Code.ChainTargets.push_back(S->JK == ir::JumpKind::Boring
                                      ? S->DstPC
                                      : NoChainTarget);
      Code.Instrs[JZIdx].Label = static_cast<int32_t>(Code.Instrs.size());
      return;
    }
    }
  }

  void lowerBlockEnd() {
    const Expr *Next = SB.next();
    if (Next->isConst()) {
      HInstr &X = emit(HOp::EXITI);
      X.Imm = Next->ConstVal;
      X.JKind = static_cast<uint8_t>(SB.endJumpKind());
      X.ChainSlot = NextChainSlot++;
      Code.TerminalChainSlot = X.ChainSlot;
      Code.ChainTargets.push_back(SB.endJumpKind() == ir::JumpKind::Boring
                                      ? static_cast<uint32_t>(Next->ConstVal)
                                      : NoChainTarget);
      return;
    }
    RegId R = sel(Next);
    HInstr &X = emit(HOp::EXITR);
    X.A = R;
    X.JKind = static_cast<uint8_t>(SB.endJumpKind());
  }

  /// Host instructions reserved per tree-IR statement, so that lowering
  /// a block rarely regrows the list (six Table 2 programs' blocks need
  /// 1.3-2.6 under Nulgrind, ICnt and Memcheck).
  static constexpr size_t InstrsPerStmt = 3;

  const IRSB &SB;
  HostCode Code;
  uint32_t NextVreg = 0;
  uint32_t NextChainSlot = 0;
  std::vector<RegId> TmpVreg; ///< tmp -> its vreg, NoReg until first use
};

} // namespace

HostCode hvm::selectInstructions(const IRSB &SB) {
  Selector S(SB);
  return S.run();
}
