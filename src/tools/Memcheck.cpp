//===-- tools/Memcheck.cpp - The definedness checker ----------------------==//

#include "tools/Memcheck.h"

#include "guest/GuestArch.h"

#include <algorithm>
#include <cinttypes>

using namespace vg;
using namespace vg::ir;
using namespace vg::vg1;

//===----------------------------------------------------------------------===//
// Helpers called from generated code
//===----------------------------------------------------------------------===//

namespace {

Memcheck *toolOf(void *Env) {
  return static_cast<Memcheck *>(static_cast<ExecContext *>(Env)->Tool);
}

int tidOf(void *Env) { return static_cast<ExecContext *>(Env)->Tid; }

std::string hexAddr(uint32_t A) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "0x%08X", A);
  return Buf;
}

} // namespace

uint64_t Memcheck::helperLoadV(void *Env, uint64_t Addr, uint64_t Size,
                               uint64_t PC, uint64_t) {
  Memcheck *MC = toolOf(Env);
  MC->ShadowLoads.fetch_add(1, std::memory_order_relaxed);
  AddrCheck Check;
  uint64_t V = MC->SM.loadV(static_cast<uint32_t>(Addr),
                            static_cast<uint32_t>(Size), Check);
  if (!Check.Ok) {
    MC->reportError("InvalidRead",
                    "Invalid read of size " + std::to_string(Size) + " at " +
                        hexAddr(static_cast<uint32_t>(Addr)),
                    static_cast<uint32_t>(PC), tidOf(Env));
  }
  return V;
}

uint64_t Memcheck::helperStoreV(void *Env, uint64_t Addr, uint64_t Vbits,
                                uint64_t Size, uint64_t PC) {
  Memcheck *MC = toolOf(Env);
  MC->ShadowStores.fetch_add(1, std::memory_order_relaxed);
  AddrCheck Check;
  MC->SM.storeV(static_cast<uint32_t>(Addr), static_cast<uint32_t>(Size),
                Vbits, Check);
  if (!Check.Ok) {
    MC->reportError("InvalidWrite",
                    "Invalid write of size " + std::to_string(Size) + " at " +
                        hexAddr(static_cast<uint32_t>(Addr)),
                    static_cast<uint32_t>(PC), tidOf(Env));
  }
  return 0;
}

uint64_t Memcheck::helperValueCheckFail(void *Env, uint64_t PC, uint64_t Size,
                                        uint64_t, uint64_t) {
  Memcheck *MC = toolOf(Env);
  MC->reportError("UninitValue",
                  "Use of uninitialised value of size " +
                      std::to_string(Size) + " (memory address)",
                  static_cast<uint32_t>(PC), tidOf(Env));
  return 0;
}

uint64_t Memcheck::helperCondUndef(void *Env, uint64_t PC, uint64_t, uint64_t,
                                   uint64_t) {
  Memcheck *MC = toolOf(Env);
  MC->reportError(
      "UninitCondition",
      "Conditional jump or move depends on uninitialised value(s)",
      static_cast<uint32_t>(PC), tidOf(Env));
  return 0;
}

uint64_t Memcheck::helperJumpUndef(void *Env, uint64_t PC, uint64_t, uint64_t,
                                   uint64_t) {
  Memcheck *MC = toolOf(Env);
  MC->reportError("UninitJumpTarget",
                  "Jump to an uninitialised target address",
                  static_cast<uint32_t>(PC), tidOf(Env));
  return 0;
}

namespace {
// All five helpers touch only shadow memory and the error log — never
// guest registers (StateFxComplete) — and only STOREV writes V-bits, so
// the others additionally preserve cached ShadowProbe results.
const Callee LoadVCallee = {"mc_LOADV", &Memcheck::helperLoadV, 0,
                            /*PreservesShadow=*/true,
                            /*StateFxComplete=*/true};
const Callee StoreVCallee = {"mc_STOREV", &Memcheck::helperStoreV, 0,
                             /*PreservesShadow=*/false,
                             /*StateFxComplete=*/true};
const Callee ValueCheckFailCallee = {"mc_value_check_fail",
                                     &Memcheck::helperValueCheckFail, 0,
                                     /*PreservesShadow=*/true,
                                     /*StateFxComplete=*/true};
const Callee CondUndefCallee = {"mc_cond_undef", &Memcheck::helperCondUndef,
                                0, /*PreservesShadow=*/true,
                                /*StateFxComplete=*/true};
const Callee JumpUndefCallee = {"mc_jump_undef", &Memcheck::helperJumpUndef,
                                0, /*PreservesShadow=*/true,
                                /*StateFxComplete=*/true};
const ir::CalleeRegistrar RegisterCallees{
    &LoadVCallee, &StoreVCallee, &ValueCheckFailCallee, &CondUndefCallee,
    &JumpUndefCallee};
} // namespace

//===----------------------------------------------------------------------===//
// The instrumenter (translation Phase 3; paper Figure 2)
//===----------------------------------------------------------------------===//

namespace {

/// Instruments one flat superblock in place.
class McInstrumenter {
public:
  McInstrumenter(IRSB &SB) : SB(SB) {}

  void run() {
    std::vector<Stmt *> Old;
    Old.swap(SB.stmts()); // factories now append to the fresh list
    for (Stmt *S : Old)
      visit(S);
    // Indirect block ends: check the target address is defined.
    Expr *Next = SB.next();
    if (Next->isRdTmp()) {
      Expr *VN = vAtom(Next);
      Expr *G = atom(SB.unop(Op::CmpNEZ32, VN));
      SB.dirty(&JumpUndefCallee, {SB.constI64(CurPC)}, NoTmp, G);
    }
  }

private:
  static Ty shTy(Ty T) { return T == Ty::F64 ? Ty::I64 : T; }

  TmpId shadowOf(TmpId T) {
    if (T >= ShadowTmp.size())
      ShadowTmp.resize(T + 1, NoTmp);
    if (ShadowTmp[T] == NoTmp)
      ShadowTmp[T] = SB.newTmp(shTy(SB.typeOfTmp(T)));
    return ShadowTmp[T];
  }

  /// Shadow value of an original-program atom.
  Expr *vAtom(const Expr *A) {
    if (A->isConst())
      return SB.mkConst(shTy(A->T), 0); // literals are fully defined
    return SB.rdTmp(shadowOf(A->Tmp));
  }

  /// Materialises an expression into an atom (emitting a WrTmp).
  Expr *atom(Expr *E) {
    if (E->isAtom())
      return E;
    return SB.rdTmp(SB.wrTmp(E));
  }

  // --- V-bit combinators -------------------------------------------------
  static Op orOp(Ty T) {
    switch (T) {
    case Ty::I8:
      return Op::Or8;
    case Ty::I16:
      return Op::Or16;
    case Ty::I32:
      return Op::Or32;
    default:
      return Op::Or64;
    }
  }
  static Op negOp(Ty T) {
    switch (T) {
    case Ty::I8:
      return Op::Neg8;
    case Ty::I16:
      return Op::Neg16;
    case Ty::I32:
      return Op::Neg32;
    default:
      return Op::Neg64;
    }
  }
  static Op cmpNEZOp(Ty T) {
    switch (T) {
    case Ty::I8:
      return Op::CmpNEZ8;
    case Ty::I16:
      return Op::CmpNEZ16;
    case Ty::I32:
      return Op::CmpNEZ32;
    default:
      return Op::CmpNEZ64;
    }
  }

  /// UifU: undefined if either input is (paper Figure 2, "shadow addl
  /// 1/3").
  Expr *uifu(Ty T, Expr *A, Expr *B) { return atom(SB.binop(orOp(T), A, B)); }

  /// Left: smear undefinedness towards the MSB — Or(x, Neg(x)) (Figure 2,
  /// "shadow addl 2/3 and 3/3": carries propagate leftward).
  Expr *left(Ty T, Expr *V) {
    Expr *N = atom(SB.unop(negOp(T), V));
    return atom(SB.binop(orOp(T), V, N));
  }

  /// PCast: if any input bit is undefined, every output bit is.
  Expr *pcast(Ty From, Ty To, Expr *V) {
    Expr *C = From == Ty::I1 ? V : atom(SB.unop(cmpNEZOp(From), V));
    switch (To) {
    case Ty::I1:
      return C;
    case Ty::I8: {
      Expr *W = atom(SB.unop(Op::U1to8, C));
      return atom(SB.unop(Op::Neg8, W));
    }
    case Ty::I16: {
      Expr *W32 = atom(SB.unop(Op::U1to32, C));
      Expr *N32 = atom(SB.unop(Op::Neg32, W32));
      return atom(SB.unop(Op::T32to16, N32));
    }
    case Ty::I32: {
      Expr *W = atom(SB.unop(Op::U1to32, C));
      return atom(SB.unop(Op::Neg32, W));
    }
    case Ty::I64:
    case Ty::F64: {
      Expr *W = atom(SB.unop(Op::U1to64, C));
      return atom(SB.unop(Op::Neg64, W));
    }
    }
    unreachable("pcast: bad target type");
  }

  /// Shadow for a unary operation.
  Expr *shadowUnop(Op O, Expr *V) {
    switch (O) {
    case Op::Not8:
    case Op::Not16:
    case Op::Not32:
    case Op::Not64:
    case Op::NegF64: // sign-bit flip: V-bits unchanged
    case Op::AbsF64:
    case Op::ReinterpF64asI64:
    case Op::ReinterpI64asF64:
      return V;
    case Op::Neg8:
    case Op::Neg16:
    case Op::Neg32:
    case Op::Neg64:
      return left(opResultTy(O), V);
    // Conversions: the same conversion on V-bits preserves per-bit
    // correspondence (sign-extension deliberately smears an undefined
    // sign bit).
    case Op::U1to8:
    case Op::U1to32:
    case Op::U1to64:
    case Op::U8to16:
    case Op::U8to32:
    case Op::S8to32:
    case Op::U8to64:
    case Op::U16to32:
    case Op::S16to32:
    case Op::U16to64:
    case Op::U32to64:
    case Op::S32to64:
    case Op::T16to8:
    case Op::T32to8:
    case Op::T32to16:
    case Op::T64to32:
    case Op::T64HIto32:
    case Op::T32to1:
    case Op::T64to1:
      return atom(SB.unop(O, V));
    case Op::CmpNEZ8:
    case Op::CmpNEZ16:
    case Op::CmpNEZ32:
    case Op::CmpNEZ64:
      return pcast(opArgTy(O, 0), Ty::I1, V);
    case Op::I32StoF64:
      return pcast(Ty::I32, Ty::I64, V);
    case Op::F64toI32S:
      return pcast(Ty::I64, Ty::I32, V);
    case Op::SqrtF64:
      return pcast(Ty::I64, Ty::I64, V);
    default:
      return pcast(shTy(opArgTy(O, 0)), shTy(opResultTy(O)), V);
    }
  }

  /// Shadow for a binary operation.
  Expr *shadowBinop(const Expr *D, Expr *V1, Expr *V2) {
    Op O = D->Opc;
    Ty RT = shTy(opResultTy(O));
    switch (O) {
    case Op::And8:
    case Op::And16:
    case Op::And32:
    case Op::And64:
    case Op::Or8:
    case Op::Or16:
    case Op::Or32:
    case Op::Or64:
    case Op::Xor8:
    case Op::Xor16:
    case Op::Xor32:
    case Op::Xor64:
      return uifu(RT, V1, V2);
    case Op::Add8:
    case Op::Add16:
    case Op::Add32:
    case Op::Add64:
    case Op::Sub8:
    case Op::Sub16:
    case Op::Sub32:
    case Op::Sub64:
    case Op::Mul8:
    case Op::Mul16:
    case Op::Mul32:
    case Op::Mul64:
    case Op::Add8x4:
    case Op::Sub8x4:
      return left(RT, uifu(RT, V1, V2));
    case Op::Shl8:
    case Op::Shl16:
    case Op::Shl32:
    case Op::Shl64:
    case Op::Shr8:
    case Op::Shr16:
    case Op::Shr32:
    case Op::Shr64:
    case Op::Sar8:
    case Op::Sar16:
    case Op::Sar32:
    case Op::Sar64:
      if (D->Arg[1]->isConst()) {
        // Constant shift: shift the V-bits identically.
        return atom(
            SB.binop(O, V1, SB.constI8(static_cast<uint8_t>(
                                D->Arg[1]->ConstVal))));
      }
      // Variable shift: any undefinedness in the amount poisons all.
      return pcast(RT, RT,
                   uifu(RT, V1, pcast(Ty::I8, RT, V2)));
    case Op::Concat32HLto64:
      return atom(SB.binop(Op::Concat32HLto64, V1, V2));
    case Op::CmpGT8Sx4:
      return left(Ty::I32, uifu(Ty::I32, V1, V2));
    default: {
      // Comparisons, divisions, widening multiplies, FP arithmetic: PCast
      // of the operands' combined V-bits.
      Ty AT = shTy(opArgTy(O, 0));
      return pcast(AT, RT, uifu(AT, V1, V2));
    }
    }
  }

  /// Emits the "is this address fully defined?" check before a memory
  /// access (paper Figure 2, statements 15-16).
  void emitAddrCheck(Expr *AddrAtom, uint32_t Size) {
    Expr *VA = vAtom(AddrAtom);
    Expr *G = atom(SB.unop(Op::CmpNEZ32, VA));
    SB.dirty(&ValueCheckFailCallee, {SB.constI64(CurPC), SB.constI64(Size)},
             NoTmp, G);
  }

  static uint32_t sizeOfTy(Ty T) { return tySizeBits(T) / 8; }

  void visit(Stmt *S) {
    switch (S->Kind) {
    case StmtKind::NoOp:
      return;
    case StmtKind::IMark:
      CurPC = S->IAddr;
      SB.append(S);
      return;

    case StmtKind::Put: {
      // Shadow register write first (paper: every operation on guest
      // values is preceded by the shadow operation).
      SB.put(S->Offset + gso::ShadowOffset, vAtom(S->Data));
      SB.append(S);
      return;
    }

    case StmtKind::WrTmp: {
      Expr *D = S->Data;
      Expr *VShadow = nullptr;
      switch (D->Kind) {
      case ExprKind::Const:
        VShadow = SB.mkConst(shTy(D->T), 0);
        break;
      case ExprKind::RdTmp:
        VShadow = vAtom(D);
        break;
      case ExprKind::Get:
        VShadow = atom(SB.get(D->Offset + gso::ShadowOffset, shTy(D->T)));
        break;
      case ExprKind::Unop:
        VShadow = shadowUnop(D->Opc, vAtom(D->Arg[0]));
        break;
      case ExprKind::Binop:
        VShadow = shadowBinop(D, vAtom(D->Arg[0]), vAtom(D->Arg[1]));
        break;
      case ExprKind::Load: {
        emitAddrCheck(D->Arg[0], sizeOfTy(D->T));
        if (D->T == Ty::I32) {
          // JIT-inlined fast path (Section 5.4): a non-faulting probe
          // resolves aligned, fully-addressable, fully-defined words
          // without leaving generated code. The probe result has bit 32
          // set when it punted; only then does the guarded mc_LOADV call
          // run (errors, partial definedness, unaligned, chunk edges).
          TmpId TP = SB.newTmp(Ty::I64);
          SB.shadowProbe(D->Arg[0], nullptr, TP, 4);
          Expr *Hi = atom(SB.unop(Op::T64HIto32, SB.rdTmp(TP)));
          Expr *G = atom(SB.unop(Op::CmpNEZ32, Hi));
          // TSlow is defined only by the guarded call; the SEL discards
          // its (unwritten) value whenever the fast path was taken.
          TmpId TSlow = SB.newTmp(Ty::I64);
          SB.dirty(&LoadVCallee,
                   {D->Arg[0], SB.constI64(4), SB.constI64(CurPC)}, TSlow,
                   G);
          // Select in I64 and truncate once (one op fewer than truncating
          // both arms).
          Expr *Sel = atom(SB.ite(G, SB.rdTmp(TSlow), SB.rdTmp(TP)));
          VShadow = atom(SB.unop(Op::T64to32, Sel));
          break;
        }
        TmpId TV = SB.newTmp(shTy(D->T));
        SB.dirty(&LoadVCallee,
                 {D->Arg[0], SB.constI64(sizeOfTy(D->T)),
                  SB.constI64(CurPC)},
                 TV);
        VShadow = SB.rdTmp(TV);
        break;
      }
      case ExprKind::ITE: {
        Expr *VC = vAtom(D->Arg[0]);
        Expr *VT = vAtom(D->Arg[1]);
        Expr *VF = vAtom(D->Arg[2]);
        Expr *Sel = atom(SB.ite(D->Arg[0], VT, VF));
        VShadow = uifu(shTy(D->T), Sel, pcast(Ty::I1, shTy(D->T), VC));
        break;
      }
      case ExprKind::CCall: {
        // Conservative: any undefined argument bit poisons the result.
        Expr *Acc = SB.constI32(0);
        for (const Expr *A : D->CallArgs) {
          Expr *VA = vAtom(A);
          Expr *C1 = pcast(shTy(A->T), Ty::I32, VA);
          Acc = uifu(Ty::I32, Acc, C1);
        }
        VShadow = pcast(Ty::I32, shTy(D->T), Acc);
        break;
      }
      }
      // Shadow assignment precedes the original computation.
      SB.wrTmpTo(shadowOf(S->Tmp), VShadow);
      SB.append(S);
      return;
    }

    case StmtKind::Store: {
      uint32_t Size = sizeOfTy(S->Data->T);
      emitAddrCheck(S->Addr, Size);
      if (S->Data->T == Ty::I32) {
        // Store-form probe: writes the V-word inline when the chunk is
        // fully addressable and writable without CoW (or the store is a
        // no-op on the Defined DSM); returns nonzero to punt.
        Expr *VD = vAtom(S->Data);
        TmpId TP = SB.newTmp(Ty::I64);
        SB.shadowProbe(S->Addr, VD, TP, 4);
        Expr *G = atom(SB.unop(Op::CmpNEZ64, SB.rdTmp(TP)));
        SB.dirty(&StoreVCallee,
                 {S->Addr, VD, SB.constI64(4), SB.constI64(CurPC)}, NoTmp,
                 G);
        SB.append(S);
        return;
      }
      SB.dirty(&StoreVCallee,
               {S->Addr, vAtom(S->Data), SB.constI64(Size),
                SB.constI64(CurPC)});
      SB.append(S);
      return;
    }

    case StmtKind::Dirty: {
      SB.append(S);
      // Trust the helper's effect annotations: written guest-state regions
      // become defined, and a destination temporary is defined.
      for (const GuestFx &F : S->Fx) {
        if (!F.IsWrite)
          continue;
        uint32_t Off = F.Offset + gso::ShadowOffset;
        if (F.Size == 4)
          SB.put(Off, SB.constI32(0));
        else if (F.Size == 8)
          SB.put(Off, SB.constI64(0));
        else
          for (uint32_t I = 0; I != F.Size; ++I)
            SB.put(Off + I, SB.constI8(0));
      }
      if (S->Tmp != NoTmp)
        SB.wrTmpTo(shadowOf(S->Tmp),
                   SB.mkConst(shTy(SB.typeOfTmp(S->Tmp)), 0));
      return;
    }

    case StmtKind::Exit: {
      // Branching on undefined flags: the classic Memcheck error.
      Expr *VG = vAtom(S->Guard); // I1
      SB.dirty(&CondUndefCallee, {SB.constI64(CurPC)}, NoTmp, VG);
      SB.append(S);
      return;
    }
    }
  }

  IRSB &SB;
  std::vector<TmpId> ShadowTmp;
  uint32_t CurPC = 0;
};

} // namespace

void Memcheck::instrument(IRSB &SB) {
  McInstrumenter In(SB);
  In.run();
}

//===----------------------------------------------------------------------===//
// Tool plumbing: options, events, heap, client requests, reports
//===----------------------------------------------------------------------===//

void Memcheck::registerOptions(OptionRegistry &Opts) {
  Opts.addOption("leak-check", "yes", "search for leaked heap blocks at exit");
}

void Memcheck::init(Core &Core_) {
  C = &Core_;
  Finished = false;
  LeakCheckEnabled = C->options().getBool("leak-check");
  EventHub &E = C->events();

  // R5/R6: allocation state from the loader and the syscall wrappers.
  E.NewMemStartup = [this](uint32_t A, uint32_t L, uint8_t) {
    SM.makeDefined(A, L);
  };
  E.NewMemMmap = [this](uint32_t A, uint32_t L, uint8_t) {
    SM.makeDefined(A, L); // the simulated kernel zero-fills
  };
  E.DieMemMunmap = [this](uint32_t A, uint32_t L) { SM.makeNoAccess(A, L); };
  E.NewMemBrk = [this](uint32_t A, uint32_t L) { SM.makeUndefined(A, L); };
  E.DieMemBrk = [this](uint32_t A, uint32_t L) { SM.makeNoAccess(A, L); };
  E.CopyMemMremap = [this](uint32_t S, uint32_t D, uint32_t L) {
    SM.copyRange(S, D, L);
  };

  // R7: the stack breathes.
  E.NewMemStack = [this](uint32_t A, uint32_t L) { SM.makeUndefined(A, L); };
  E.DieMemStack = [this](uint32_t A, uint32_t L) { SM.makeNoAccess(A, L); };

  // R4: syscall accesses.
  E.PreRegRead = [this](int Tid, uint32_t Off, uint32_t Size,
                        const char *Sys) {
    ThreadState &TS = C->thread(Tid);
    for (uint32_t I = 0; I != Size; ++I) {
      if (TS.Guest[gso::ShadowOffset + Off + I]) {
        reportError("UninitSyscall",
                    std::string("Syscall parameter ") + Sys +
                        " contains uninitialised byte(s)",
                    TS.getPC(), Tid);
        return;
      }
    }
  };
  E.PostRegWrite = [this](int Tid, uint32_t Off, uint32_t Size) {
    ThreadState &TS = C->thread(Tid);
    std::memset(TS.Guest + gso::ShadowOffset + Off, 0, Size);
  };
  E.PreMemRead = [this](int Tid, uint32_t Addr, uint32_t Len,
                        const char *Sys) {
    checkDefinedRange(Tid, Addr, Len, Sys);
  };
  E.PreMemReadAsciiz = [this](int Tid, uint32_t Addr, const char *Sys) {
    // Walk to the NUL, checking as we go.
    for (uint32_t I = 0;; ++I) {
      uint32_t Bad;
      bool Unaddr;
      if (!SM.isDefined(Addr + I, 1, Bad, Unaddr)) {
        reportError(Unaddr ? "InvalidRead" : "UninitSyscall",
                    std::string("Syscall parameter ") + Sys +
                        " string is bad at " + hexAddr(Bad),
                    C->thread(Tid).getPC(), Tid);
        return;
      }
      uint8_t B;
      if (C->memory().read(Addr + I, &B, 1, true).Faulted || B == 0)
        return;
    }
  };
  E.PreMemWrite = [this](int Tid, uint32_t Addr, uint32_t Len,
                         const char *Sys) {
    uint32_t Bad;
    if (!SM.isAddressable(Addr, Len, Bad)) {
      reportError("InvalidWrite",
                  std::string("Syscall parameter ") + Sys +
                      " points to unaddressable byte(s) at " + hexAddr(Bad),
                  C->thread(Tid).getPC(), Tid);
    }
  };
  E.PostMemWrite = [this](int, uint32_t Addr, uint32_t Len) {
    SM.makeDefined(Addr, Len);
  };

  // R8 note: the heap redirection itself (malloc/free/calloc/realloc ->
  // the core's replacement allocator) is installed by the core because
  // this tool returns tracksHeap() — see Core::loadImage.
}

void Memcheck::checkDefinedRange(int Tid, uint32_t Addr, uint32_t Len,
                                 const char *What) {
  uint32_t Bad;
  bool Unaddr;
  if (SM.isDefined(Addr, Len, Bad, Unaddr))
    return;
  if (Unaddr) {
    reportError("InvalidRead",
                std::string("Syscall parameter ") + What +
                    " points to unaddressable byte(s) at " + hexAddr(Bad),
                C->thread(Tid).getPC(), Tid);
  } else {
    reportError("UninitSyscall",
                std::string("Syscall parameter ") + What +
                    " points to uninitialised byte(s) at " + hexAddr(Bad),
                C->thread(Tid).getPC(), Tid);
  }
}

void Memcheck::onMalloc(int Tid, uint32_t Addr, uint32_t Size, bool Zeroed) {
  if (Zeroed)
    SM.makeDefined(Addr, Size);
  else
    SM.makeUndefined(Addr, Size);
}

void Memcheck::onFree(int Tid, uint32_t Addr, uint32_t Size) {
  SM.makeNoAccess(Addr, Size);
}

void Memcheck::onBadFree(int Tid, uint32_t Addr) {
  // Attribute the error to the call site: free() is entered via CALL, so
  // the caller's return address is on top of the stack.
  ThreadState &TS = C->thread(Tid);
  uint32_t Site = TS.getPC();
  uint32_t Ret;
  if (!C->memory().read(TS.gpr(vg1::RegSP), &Ret, 4, true).Faulted)
    Site = Ret;
  reportError("InvalidFree",
              "Invalid free() / delete of " + hexAddr(Addr) +
                  " (not a live heap block)",
              Site, Tid);
}

bool Memcheck::handleClientRequest(int Tid, uint32_t Code,
                                   const uint32_t Args[4], uint32_t &Result) {
  switch (Code) {
  case McMakeMemDefined:
  case McLegacyMakeMemDefined:
    SM.makeDefined(Args[0], Args[1]);
    return true;
  case McMakeMemUndefined:
  case McLegacyMakeMemUndefined:
    SM.makeUndefined(Args[0], Args[1]);
    return true;
  case McMakeMemNoAccess:
  case McLegacyMakeMemNoAccess:
    SM.makeNoAccess(Args[0], Args[1]);
    return true;
  case McCheckMemIsDefined:
  case McLegacyCheckMemIsDefined: {
    uint32_t Bad;
    bool Unaddr;
    Result = SM.isDefined(Args[0], Args[1], Bad, Unaddr) ? 0 : Bad;
    return true;
  }
  case McCheckMemIsAddressable:
  case McLegacyCheckMemIsAddressable: {
    uint32_t Bad;
    Result = SM.isAddressable(Args[0], Args[1], Bad) ? 0 : Bad;
    return true;
  }
  case McCountErrors:
  case McLegacyCountErrors:
    Result = static_cast<uint32_t>(C->errors().uniqueErrors());
    return true;
  default:
    return false;
  }
}

void Memcheck::reportError(const char *Kind, const std::string &Msg,
                           uint32_t PC, int Tid) {
  if (Tid < 0)
    Tid = C->currentTid();
  // The stack scan consults the address-space segment map, which is only
  // stable under the world lock; helpers run lock-free under
  // --sched-threads=N, so parallel runs record errors without a stack
  // (deduplication is by kind + PC and unaffected).
  std::vector<uint32_t> Stack;
  if (!C->isParallel())
    Stack = C->captureStackTrace(C->thread(Tid));
  bool IsNew =
      C->errors().record(Kind, "==memcheck== " + Msg, PC, std::move(Stack));
  if (IsNew) {
    C->output().printf("==memcheck== %s\n==memcheck==    at %s\n",
                       Msg.c_str(), hexAddr(PC).c_str());
  }
}

uint64_t Memcheck::uniqueErrors() const {
  return Finished ? FinalErrors : C->errors().uniqueErrors();
}

void Memcheck::leakCheck() {
  const auto &Blocks = C->heapBlocks();
  if (Blocks.empty())
    return;
  // Conservative pointer scan: any aligned word whose four bytes are
  // addressable (defined or not), anywhere in client memory, or any
  // register of a live thread, that points into a block keeps it. (Real
  // Memcheck distinguishes start/interior pointers; we treat both as
  // reachable.)
  std::vector<std::pair<uint32_t, uint32_t>> Ranges(Blocks.begin(),
                                                    Blocks.end());
  // Ranges holds (payload, size) sorted by payload (it comes from a
  // std::map), and blocks never overlap, so only the last block starting
  // at or below V can contain it.
  auto FindBlock = [&](uint32_t V) -> int {
    auto It = std::upper_bound(
        Ranges.begin(), Ranges.end(), V,
        [](uint32_t X, const std::pair<uint32_t, uint32_t> &R) {
          return X < R.first;
        });
    if (It == Ranges.begin())
      return -1;
    --It;
    if (V - It->first >= It->second)
      return -1;
    return static_cast<int>(It - Ranges.begin());
  };

  std::vector<bool> Reached(Ranges.size(), false);
  auto ScanWord = [&](uint32_t V) {
    if (int I = FindBlock(V); I >= 0)
      Reached[static_cast<size_t>(I)] = true;
  };

  // Registers of all live threads.
  for (int T = 0; T != Core::MaxThreads; ++T) {
    ThreadState &TS = C->thread(T);
    if (TS.Status != ThreadStatus::Runnable)
      continue;
    for (unsigned R = 0; R != NumGPRs; ++R)
      ScanWord(TS.gpr(R));
  }
  // All client segments (data, stack, heap, mmaps). The shadow walk skips
  // unmaterialised NoAccess chunks whole, so an almost empty heap arena
  // costs one primary read per 64KB.
  for (const Segment &S : C->addressSpace().segments()) {
    if (S.Kind == SegKind::CoreReserved || S.Kind == SegKind::ClientText)
      continue;
    SM.forEachAddressableWord(S.Start, S.End, [&](uint32_t A) {
      uint32_t V;
      if (!C->memory().read(A, &V, 4, true).Faulted)
        ScanWord(V);
    });
  }

  uint64_t LostBytes = 0, LostBlocks = 0;
  for (size_t I = 0; I != Ranges.size(); ++I) {
    if (!Reached[I]) {
      ++LostBlocks;
      LostBytes += Ranges[I].second;
      C->errors().record("Leak",
                         "==memcheck== " + std::to_string(Ranges[I].second) +
                             " bytes definitely lost at " +
                             hexAddr(Ranges[I].first),
                         Ranges[I].first);
    }
  }
  C->output().printf("==memcheck== LEAK SUMMARY: definitely lost: %llu "
                     "bytes in %llu blocks\n",
                     static_cast<unsigned long long>(LostBytes),
                     static_cast<unsigned long long>(LostBlocks));
}

void Memcheck::fini(int ExitCode) {
  C->output().printf(
      "==memcheck== HEAP SUMMARY: in use at exit: %llu bytes in %zu blocks\n",
      static_cast<unsigned long long>(C->heapBytesLive()),
      C->heapBlocks().size());
  if (LeakCheckEnabled)
    leakCheck();
  C->errors().printSummary(C->output());
  FinalErrors = C->errors().uniqueErrors();
  Finished = true;
}
