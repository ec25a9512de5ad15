//===-- tests/HvmTests.cpp - Back-end unit tests --------------------------==//
///
/// \file
/// Unit tests for the JIT back end: instruction selection patterns,
/// linear-scan register allocation (coalescing, spilling, call-clobber
/// constraints), encoding round-trips, and executor semantics — including
/// a property sweep checking every IR op end-to-end against evalOp.
///
//===----------------------------------------------------------------------===//

#include "guest/GuestMemory.h"
#include "hvm/Exec.h"
#include "hvm/ISel.h"
#include "ir/IR.h"
#include "ir/IROpt.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

using namespace vg;
using namespace vg::hvm;
using namespace vg::ir;

namespace {

/// Lowers, allocates, encodes, and runs one superblock over the given
/// guest-state bytes; returns the exit outcome.
RunOutcome runSB(IRSB &SB, uint8_t *Gst, GuestMemory &Mem) {
  HostCode HC = selectInstructions(SB);
  allocateRegisters(HC);
  CodeBlob Blob;
  Blob.Bytes = encode(HC);
  Blob.NumSpillSlots = HC.NumSpillSlots;
  ExecContext Ctx;
  Ctx.GuestState = Gst;
  Ctx.Mem = &Mem;
  Executor Exec(Ctx, /*PCOffset=*/64);
  return Exec.run(Blob);
}

TEST(ISel, FoldsAddressDisplacements) {
  IRSB SB;
  TmpId TA = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId TV = SB.wrTmp(
      SB.load(Ty::I32, SB.binop(Op::Add32, SB.rdTmp(TA), SB.constI32(16))));
  SB.put(4, SB.rdTmp(TV));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  buildTrees(SB);
  HostCode HC = selectInstructions(SB);
  bool FoundFoldedLoad = false;
  for (const HInstr &I : HC.Instrs)
    if (I.Op == HOp::LDM && I.Disp == 16)
      FoundFoldedLoad = true;
  EXPECT_TRUE(FoundFoldedLoad);
}

TEST(ISel, ConstOperandsBecomeImmediates) {
  IRSB SB;
  TmpId T = SB.wrTmp(SB.binop(Op::Add32, SB.get(0, Ty::I32), SB.constI32(42)));
  SB.put(4, SB.rdTmp(T));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  buildTrees(SB);
  HostCode HC = selectInstructions(SB);
  bool FoundImm = false;
  for (const HInstr &I : HC.Instrs)
    if (I.Op == HOp::ALUI && I.Imm == 42)
      FoundImm = true;
  EXPECT_TRUE(FoundImm);
}

TEST(RegAlloc, AssignsPhysicalRegistersAndCoalesces) {
  IRSB SB;
  TmpId T0 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId T1 = SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(T0), SB.rdTmp(T0)));
  SB.put(4, SB.rdTmp(T1));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  HostCode HC = selectInstructions(SB);
  unsigned Coalesced = allocateRegisters(HC);
  EXPECT_GE(Coalesced, 1u); // the WrTmp copies vanish
  for (const HInstr &I : HC.Instrs) {
    EXPECT_FALSE(isVirtual(I.Dst) && I.Dst != NoReg);
    EXPECT_FALSE(isVirtual(I.A) && I.A != NoReg);
  }
}

TEST(RegAlloc, SpillsUnderPressureAndStaysCorrect) {
  // Sum 24 values loaded up-front: more live values than registers.
  IRSB SB;
  std::vector<TmpId> Vals;
  for (int I = 0; I != 24; ++I)
    Vals.push_back(SB.wrTmp(SB.get(static_cast<uint32_t>(4 * I), Ty::I32)));
  // Sum them in reverse order so everything stays live a long time.
  Expr *Acc = SB.rdTmp(Vals[23]);
  for (int I = 22; I >= 0; --I)
    Acc = SB.rdTmp(SB.wrTmp(SB.binop(Op::Add32, Acc, SB.rdTmp(Vals[I]))));
  SB.put(100, Acc);
  SB.setNext(SB.constI32(0), JumpKind::Boring);

  HostCode HC = selectInstructions(SB);
  allocateRegisters(HC);
  bool Spilled = false;
  for (const HInstr &I : HC.Instrs)
    if (I.Op == HOp::SPILL || I.Op == HOp::RELOAD)
      Spilled = true;
  EXPECT_TRUE(Spilled) << "24 live values must not fit 10 registers";

  alignas(8) uint8_t Gst[384] = {};
  for (uint32_t I = 0; I != 24; ++I) {
    uint32_t V = I + 1;
    std::memcpy(Gst + 4 * I, &V, 4);
  }
  GuestMemory Mem;
  runSB(SB, Gst, Mem);
  uint32_t Sum;
  std::memcpy(&Sum, Gst + 100, 4);
  EXPECT_EQ(Sum, 300u); // 1+..+24
}

const Callee NopCallee = {"nop_helper",
                          [](void *, uint64_t, uint64_t, uint64_t,
                             uint64_t) -> uint64_t { return 0; },
                          0};

TEST(RegAlloc, ValuesSurviveHelperCalls) {
  // A value live across a dirty call must land in a callee-saved register
  // or be spilled; the executor poisons caller-saved registers at calls.
  IRSB SB;
  TmpId T0 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId T1 = SB.wrTmp(SB.get(4, Ty::I32));
  SB.dirty(&NopCallee, {});
  SB.dirty(&NopCallee, {});
  TmpId T2 = SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(T0), SB.rdTmp(T1)));
  SB.put(8, SB.rdTmp(T2));
  SB.setNext(SB.constI32(0), JumpKind::Boring);

  alignas(8) uint8_t Gst[384] = {};
  uint32_t A = 1111, B = 2222;
  std::memcpy(Gst + 0, &A, 4);
  std::memcpy(Gst + 4, &B, 4);
  GuestMemory Mem;
  runSB(SB, Gst, Mem);
  uint32_t Out;
  std::memcpy(&Out, Gst + 8, 4);
  EXPECT_EQ(Out, 3333u);

  // Forty calls: twelve values loaded one every third call, all live to
  // the end, plus a running sum that reads them between calls. Far more
  // long intervals span calls than h6..h9 can hold.
  for (uint32_t K = 0; K != 12; ++K) {
    uint32_t V = 1000 + 37 * K;
    std::memcpy(Gst + 4 * K, &V, 4);
  }
  IRSB Big;
  std::vector<TmpId> Vals;
  std::vector<uint32_t> Ref;
  TmpId Acc = Big.wrTmp(Big.get(48, Ty::I32)); // zero
  uint32_t RefAcc = 0;
  for (uint32_t I = 0; I != 40; ++I) {
    if (I % 3 == 0 && Vals.size() != 12) {
      uint32_t K = static_cast<uint32_t>(Vals.size());
      Vals.push_back(Big.wrTmp(Big.get(4 * K, Ty::I32)));
      Ref.push_back(1000 + 37 * K);
    }
    Big.dirty(&NopCallee, {});
    size_t Pick = I % Vals.size();
    Acc = Big.wrTmp(
        Big.binop(Op::Add32, Big.rdTmp(Acc), Big.rdTmp(Vals[Pick])));
    RefAcc += Ref[Pick];
  }
  for (size_t K = 0; K != Vals.size(); ++K) {
    Acc = Big.wrTmp(Big.binop(Op::Add32, Big.rdTmp(Acc), Big.rdTmp(Vals[K])));
    RefAcc += Ref[K];
  }
  Big.put(100, Big.rdTmp(Acc));
  Big.setNext(Big.constI32(0), JumpKind::Boring);
  ASSERT_EQ(Vals.size(), 12u);
  runSB(Big, Gst, Mem);
  std::memcpy(&Out, Gst + 100, 4);
  EXPECT_EQ(Out, RefAcc);
}

TEST(RegAlloc, OnlyIntervalsStrictlySpanningACallNeedCalleeSaved) {
  // 0: LI v0       v0 is the CALL's argument: it ends at the call.
  // 1: LI v2       v2 is read after the call: it strictly spans it.
  // 2: CALL v1 = f(v0)   v1 is the result: it starts at the call.
  // 3: STG v1
  // 4: STG v2
  HostCode HC;
  auto Emit = [&HC](HOp Op) -> HInstr & {
    HC.Instrs.emplace_back();
    HC.Instrs.back().Op = Op;
    return HC.Instrs.back();
  };
  const RegId V0 = VirtBase, V1 = VirtBase + 1, V2 = VirtBase + 2;
  Emit(HOp::LI).Dst = V0;
  Emit(HOp::LI).Dst = V2;
  HInstr &Call = Emit(HOp::CALL);
  Call.CalleeFn = &NopCallee;
  Call.Args[0] = V0;
  Call.NArgs = 1;
  Call.Dst = V1;
  Emit(HOp::STG).A = V1;
  HInstr &St = Emit(HOp::STG);
  St.A = V2;
  St.Off = 4;
  allocateRegisters(HC);
  ASSERT_EQ(HC.Instrs.size(), 5u);
  EXPECT_EQ(HC.NumSpillSlots, 0u);
  EXPECT_LT(HC.Instrs[2].Args[0], NumCallerSaved); // argument: h0..h5 ok
  EXPECT_LT(HC.Instrs[2].Dst, NumCallerSaved);     // result: h0..h5 ok
  EXPECT_GE(HC.Instrs[1].Dst, NumCallerSaved);     // spans: h6..h9
  EXPECT_LT(HC.Instrs[1].Dst, NumAllocatable);
  EXPECT_EQ(HC.Instrs[4].A, HC.Instrs[1].Dst);
}

TEST(RegAlloc, SimultaneousFirstReferencesAllocateInVregOrder) {
  // 0: SEL v0 = v3 ? v2 : v1   first references v3, v2, v1, v0, in that
  //                            order: the scan takes them as v0..v3.
  // 1..4: STG v1, v2, v3, v0   staggered ends, no pressure.
  HostCode HC;
  auto Emit = [&HC](HOp Op) -> HInstr & {
    HC.Instrs.emplace_back();
    HC.Instrs.back().Op = Op;
    return HC.Instrs.back();
  };
  const RegId V0 = VirtBase, V1 = VirtBase + 1, V2 = VirtBase + 2,
              V3 = VirtBase + 3;
  HInstr &Sel = Emit(HOp::SEL);
  Sel.Dst = V0;
  Sel.A = V3;
  Sel.B = V2;
  Sel.C = V1;
  uint32_t Off = 0;
  for (RegId V : {V1, V2, V3, V0}) {
    HInstr &St = Emit(HOp::STG);
    St.A = V;
    St.Off = Off += 4;
  }
  allocateRegisters(HC);
  ASSERT_EQ(HC.Instrs.size(), 5u);
  EXPECT_EQ(HC.NumSpillSlots, 0u);
  EXPECT_EQ(HC.Instrs[0].Dst, 0u);
  EXPECT_EQ(HC.Instrs[0].A, 3u);
  EXPECT_EQ(HC.Instrs[0].B, 2u);
  EXPECT_EQ(HC.Instrs[0].C, 1u);
}

TEST(Exec, GuardedExitTakenAndNotTaken) {
  for (uint32_t Flag : {0u, 1u}) {
    IRSB SB;
    TmpId T = SB.wrTmp(SB.get(0, Ty::I32));
    TmpId C = SB.wrTmp(SB.unop(Op::CmpNEZ32, SB.rdTmp(T)));
    SB.exit(SB.rdTmp(C), 0x2222, JumpKind::Boring);
    SB.setNext(SB.constI32(0x1111), JumpKind::Boring);
    alignas(8) uint8_t Gst[384] = {};
    std::memcpy(Gst, &Flag, 4);
    GuestMemory Mem;
    RunOutcome O = runSB(SB, Gst, Mem);
    EXPECT_EQ(O.NextPC, Flag ? 0x2222u : 0x1111u);
    // The exit also wrote the guest PC slot.
    uint32_t PC;
    std::memcpy(&PC, Gst + 64, 4);
    EXPECT_EQ(PC, O.NextPC);
  }
}

TEST(Exec, GuardedDirtyCallSkipped) {
  static int Calls;
  Calls = 0;
  static const Callee Count = {"count_helper",
                               [](void *, uint64_t, uint64_t, uint64_t,
                                  uint64_t) -> uint64_t {
                                 ++Calls;
                                 return 0;
                               },
                               0};
  IRSB SB;
  SB.dirty(&Count, {}, NoTmp, SB.constI1(false)); // PropFold would remove;
                                                  // keep un-optimised
  SB.dirty(&Count, {}, NoTmp, SB.constI1(true));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  alignas(8) uint8_t Gst[384] = {};
  GuestMemory Mem;
  runSB(SB, Gst, Mem);
  EXPECT_EQ(Calls, 1);
}

TEST(Exec, MemoryFaultReportsIMarkPC) {
  IRSB SB;
  SB.imark(0xABC0, 4);
  TmpId T = SB.wrTmp(SB.load(Ty::I32, SB.constI32(0x00990000)));
  SB.put(0, SB.rdTmp(T));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  alignas(8) uint8_t Gst[384] = {};
  GuestMemory Mem; // nothing mapped
  RunOutcome O = runSB(SB, Gst, Mem);
  EXPECT_EQ(O.K, RunOutcome::Kind::Fault);
  EXPECT_EQ(O.FaultPC, 0xABC0u);
  EXPECT_EQ(O.FaultAddr, 0x00990000u);
}

//===----------------------------------------------------------------------===//
// Property sweep: every op agrees with evalOp through the whole back end
//===----------------------------------------------------------------------===//

class OpProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(OpProperty, BackEndMatchesEvaluator) {
  Op O = static_cast<Op>(GetParam());
  std::mt19937_64 Rng(GetParam() * 7919 + 3);
  for (int Trial = 0; Trial != 16; ++Trial) {
    uint64_t A = truncToTy(Rng(), opArgTy(O, 0));
    uint64_t B = opArity(O) == 2 ? truncToTy(Rng(), opArgTy(O, 1)) : 0;
    IRSB SB;
    Expr *E = opArity(O) == 1
                  ? SB.unop(O, SB.mkConst(opArgTy(O, 0), A))
                  : SB.binop(O, SB.mkConst(opArgTy(O, 0), A),
                             SB.mkConst(opArgTy(O, 1), B));
    TmpId T = SB.wrTmp(E);
    // Widen to I64 through guest-state bytes: just PUT the raw tmp.
    SB.put(0, SB.rdTmp(T));
    SB.setNext(SB.constI32(0), JumpKind::Boring);
    // Deliberately NOT optimised: constants must flow through isel/exec.
    alignas(8) uint8_t Gst[384] = {};
    GuestMemory Mem;
    runSB(SB, Gst, Mem);
    uint64_t Got = 0;
    std::memcpy(&Got, Gst, tySizeBits(opResultTy(O)) / 8 == 0
                               ? 1
                               : tySizeBits(opResultTy(O)) / 8);
    uint64_t Want = truncToTy(evalOp(O, A, B), opResultTy(O));
    // I1 puts store a single byte.
    if (opResultTy(O) == Ty::I1)
      Got &= 1;
    EXPECT_EQ(Got, Want) << opName(O) << "(" << A << "," << B << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpProperty,
    ::testing::Range(0u, static_cast<unsigned>(Op::CmpGT8Sx4) + 1),
    [](const ::testing::TestParamInfo<unsigned> &I) {
      return opName(static_cast<Op>(I.param));
    });

} // namespace
