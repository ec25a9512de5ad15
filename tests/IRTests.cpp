//===-- tests/IRTests.cpp - IR, optimiser, and printer tests --------------==//
///
/// \file
/// Unit tests for the IR layer: construction/typechecking, evalOp
/// semantics, flattening, the Phase 2/4 optimisation passes, the cc-thunk
/// spec hook, and tree building.
///
//===----------------------------------------------------------------------===//

#include "frontend/Vg1Frontend.h"
#include "guest/Assembler.h"
#include "ir/IR.h"
#include "ir/IROpt.h"
#include "ir/IRPrinter.h"

#include <gtest/gtest.h>

using namespace vg;
using namespace vg::ir;

namespace {

constexpr uint32_t Base = 0x1000;

/// Builds a fetch function over an assembled image.
FetchFn fetchOf(const std::vector<uint8_t> &Img) {
  return [&Img](uint32_t Addr, uint8_t *Buf, uint32_t MaxLen) -> uint32_t {
    if (Addr < Base || Addr >= Base + Img.size())
      return 0;
    uint32_t Avail = static_cast<uint32_t>(Base + Img.size() - Addr);
    uint32_t N = std::min(MaxLen, Avail);
    std::memcpy(Buf, Img.data() + (Addr - Base), N);
    return N;
  };
}

int countKind(const IRSB &SB, StmtKind K) {
  int N = 0;
  for (const Stmt *S : SB.stmts())
    if (S->Kind == K)
      ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Core IR structure
//===----------------------------------------------------------------------===//

TEST(IR, BuildAndTypecheckFlatBlock) {
  IRSB SB;
  SB.imark(0x1000, 6);
  TmpId T0 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId T1 = SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(T0), SB.constI32(4)));
  SB.put(0, SB.rdTmp(T1));
  SB.setNext(SB.constI32(0x1006), JumpKind::Boring);
  EXPECT_EQ(SB.typecheck(true), "");
}

TEST(IR, TypecheckRejectsNonFlat) {
  IRSB SB;
  // Put of a nested tree is fine in tree IR but not flat IR.
  SB.put(0, SB.binop(Op::Add32, SB.get(4, Ty::I32), SB.constI32(1)));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  EXPECT_EQ(SB.typecheck(false), "");
  EXPECT_NE(SB.typecheck(true), "");
}

TEST(IR, TypecheckCatchesTypeErrors) {
  IRSB SB;
  // Add32 applied to an I8 constant.
  TmpId T = SB.newTmp(Ty::I32);
  Stmt *S = SB.allocStmt();
  S->Kind = StmtKind::WrTmp;
  S->Tmp = T;
  Expr *Bad = SB.binop(Op::Add32, SB.constI32(1), SB.constI32(2));
  Bad->Arg[1] = SB.constI8(3); // corrupt one operand
  S->Data = Bad;
  SB.append(S);
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  EXPECT_NE(SB.typecheck(false), "");
}

TEST(IR, OpMetadataConsistency) {
  // Every op's evaluator result fits its declared result type.
  for (unsigned O = 0; O <= static_cast<unsigned>(Op::CmpGT8Sx4); ++O) {
    Op TheOp = static_cast<Op>(O);
    uint64_t V = evalOp(TheOp, 0x123456789ABCDEFull, 0x3);
    EXPECT_EQ(V, truncToTy(V, opResultTy(TheOp))) << opName(TheOp);
  }
}

TEST(IR, EvalOpSpotChecks) {
  EXPECT_EQ(evalOp(Op::Add32, 0xFFFFFFFFu, 1), 0u);
  EXPECT_EQ(evalOp(Op::Sub8, 0, 1), 0xFFu);
  EXPECT_EQ(evalOp(Op::Sar32, 0x80000000u, 31), 0xFFFFFFFFu);
  EXPECT_EQ(evalOp(Op::MullU32, 0xFFFFFFFFu, 2), 0x1FFFFFFFEull);
  EXPECT_EQ(evalOp(Op::MullS32, static_cast<uint32_t>(-3), 7),
            static_cast<uint64_t>(-21));
  EXPECT_EQ(evalOp(Op::CmpLT32S, 0x80000000u, 1), 1u);
  EXPECT_EQ(evalOp(Op::CmpLT32U, 0x80000000u, 1), 0u);
  EXPECT_EQ(evalOp(Op::S8to32, 0x80, 0), 0xFFFFFF80u);
  EXPECT_EQ(evalOp(Op::T64HIto32, 0xAABBCCDD11223344ull, 0), 0xAABBCCDDu);
  EXPECT_EQ(evalOp(Op::Concat32HLto64, 0xAABBCCDDu, 0x11223344u),
            0xAABBCCDD11223344ull);
  // F64: 1.5 + 2.5 == 4.0 through bit-pattern plumbing.
  double A = 1.5, B = 2.5, R;
  uint64_t BA, BB;
  std::memcpy(&BA, &A, 8);
  std::memcpy(&BB, &B, 8);
  uint64_t BR = evalOp(Op::AddF64, BA, BB);
  std::memcpy(&R, &BR, 8);
  EXPECT_DOUBLE_EQ(R, 4.0);
}

//===----------------------------------------------------------------------===//
// Flattening
//===----------------------------------------------------------------------===//

TEST(IROpt, FlattenProducesFlatIR) {
  IRSB SB;
  SB.imark(0x1000, 7);
  // Deep tree: the Figure 1 address computation.
  Expr *Addr = SB.binop(
      Op::Add32,
      SB.binop(Op::Add32, SB.get(12, Ty::I32),
               SB.binop(Op::Shl32, SB.get(0, Ty::I32), SB.constI8(2))),
      SB.constI32(0xFFFFC0CC));
  SB.put(0, SB.load(Ty::I32, Addr));
  SB.setNext(SB.constI32(0x1007), JumpKind::Boring);

  ASSERT_EQ(SB.typecheck(false), "");
  auto Flat = flatten(SB);
  EXPECT_EQ(Flat->typecheck(true), "");
  // The tree must have become >= 5 statements: 2 GETs, shift, 2 adds, load,
  // feeding a Put.
  EXPECT_GE(Flat->stmts().size(), 6u);
}

TEST(IROpt, FlattenPreservesStatementOrder) {
  IRSB SB;
  SB.imark(0x1000, 4);
  SB.store(SB.constI32(0x8000), SB.constI32(1));
  SB.store(SB.constI32(0x8004), SB.constI32(2));
  SB.setNext(SB.constI32(0x1004), JumpKind::Boring);
  auto Flat = flatten(SB);
  std::vector<const Stmt *> Stores;
  for (const Stmt *S : Flat->stmts())
    if (S->Kind == StmtKind::Store)
      Stores.push_back(S);
  ASSERT_EQ(Stores.size(), 2u);
  EXPECT_EQ(Stores[0]->Data->ConstVal, 1u);
  EXPECT_EQ(Stores[1]->Data->ConstVal, 2u);
}

//===----------------------------------------------------------------------===//
// Optimisation passes
//===----------------------------------------------------------------------===//

TEST(IROpt, ConstantFolding) {
  IRSB SB;
  TmpId T0 = SB.wrTmp(SB.binop(Op::Add32, SB.constI32(40), SB.constI32(2)));
  SB.put(0, SB.rdTmp(T0));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  optimise1(SB, nullptr);
  ASSERT_EQ(SB.stmts().size(), 1u);
  const Stmt *S = SB.stmts()[0];
  ASSERT_EQ(S->Kind, StmtKind::Put);
  ASSERT_TRUE(S->Data->isConst());
  EXPECT_EQ(S->Data->ConstVal, 42u);
}

TEST(IROpt, RedundantGetElimination) {
  IRSB SB;
  // Two GETs of the same register: the second must reuse the first.
  TmpId T0 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId T1 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId T2 = SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(T0), SB.rdTmp(T1)));
  SB.put(4, SB.rdTmp(T2));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  optimise1(SB, nullptr);
  int Gets = 0;
  for (const Stmt *S : SB.stmts())
    if (S->Kind == StmtKind::WrTmp && S->Data->Kind == ExprKind::Get)
      ++Gets;
  EXPECT_EQ(Gets, 1);
}

TEST(IROpt, GetAfterPutForwardsValue) {
  IRSB SB;
  TmpId TV = SB.wrTmp(SB.binop(Op::Add32, SB.get(8, Ty::I32), SB.constI32(0)));
  SB.put(0, SB.rdTmp(TV));
  TmpId TG = SB.wrTmp(SB.get(0, Ty::I32)); // must forward TV
  SB.store(SB.constI32(0x8000), SB.rdTmp(TG));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  auto Flat = flatten(SB);
  optimise1(*Flat, nullptr);
  // After optimisation there must be no Get of offset 0.
  for (const Stmt *S : Flat->stmts()) {
    if (S->Kind == StmtKind::WrTmp && S->Data->Kind == ExprKind::Get) {
      EXPECT_NE(S->Data->Offset, 0u);
    }
  }
}

TEST(IROpt, RedundantPutElimination) {
  IRSB SB;
  SB.put(64, SB.constI32(0x1000)); // overwritten below, no observation
  SB.put(64, SB.constI32(0x1006));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  optimise1(SB, nullptr);
  ASSERT_EQ(countKind(SB, StmtKind::Put), 1);
  EXPECT_EQ(SB.stmts()[0]->Data->ConstVal, 0x1006u);
}

// A wider Put over a pending narrower one makes two overlapping pending
// ranges. A Put is dead only inside one of them, and a Get between drops
// every range it overlaps.
TEST(IROpt, DeadPutWithPartlyOverlappingPuts) {
  IRSB SB;
  SB.put(0, SB.constI32(1)); // inside the I64 Put's range: dead
  SB.put(0, SB.constI64(2));
  SB.put(4, SB.constI32(3));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  optimise1(SB, nullptr);
  ASSERT_EQ(countKind(SB, StmtKind::Put), 2);
  EXPECT_EQ(SB.stmts()[0]->Data->ConstVal, 2u);

  IRSB Read;
  Read.put(0, Read.constI32(1)); // read by the Get below: kept
  TmpId T = Read.wrTmp(Read.get(4, Ty::I32));
  Read.put(16, Read.rdTmp(T));
  Read.put(0, Read.constI64(2));
  Read.put(4, Read.constI32(3));
  Read.setNext(Read.constI32(0), JumpKind::Boring);
  optimise1(Read, nullptr);
  EXPECT_EQ(countKind(Read, StmtKind::Put), 4);
}

TEST(IROpt, PutNotEliminatedAcrossExit) {
  IRSB SB;
  SB.put(64, SB.constI32(0x1000));
  TmpId G = SB.wrTmp(SB.binop(Op::CmpEQ32, SB.get(0, Ty::I32), SB.constI32(0)));
  SB.exit(SB.rdTmp(G), 0x2000, JumpKind::Boring);
  SB.put(64, SB.constI32(0x1006));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  auto Flat = flatten(SB);
  optimise1(*Flat, nullptr);
  // Both PUTs survive: the first is observable if the exit is taken.
  EXPECT_EQ(countKind(*Flat, StmtKind::Put), 2);
}

TEST(IROpt, PutNotEliminatedWhenDirtyReads) {
  static const Callee DummyHelper = {"dummy", nullptr, 0};
  IRSB SB;
  SB.put(64, SB.constI32(0x1000));
  SB.dirty(&DummyHelper, {}, NoTmp, nullptr, {{64, 4, /*IsWrite=*/false}});
  SB.put(64, SB.constI32(0x1006));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  optimise1(SB, nullptr);
  EXPECT_EQ(countKind(SB, StmtKind::Put), 2);
}

TEST(IROpt, DeadCodeRemoval) {
  IRSB SB;
  TmpId T0 = SB.wrTmp(SB.get(0, Ty::I32));
  SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(T0), SB.constI32(1))); // dead
  SB.put(4, SB.rdTmp(T0));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  optimise1(SB, nullptr);
  EXPECT_EQ(countKind(SB, StmtKind::WrTmp), 1);
}

TEST(IROpt, CSEMergesPureComputation) {
  IRSB SB;
  TmpId T0 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId A = SB.wrTmp(SB.binop(Op::Mul32, SB.rdTmp(T0), SB.constI32(3)));
  TmpId B = SB.wrTmp(SB.binop(Op::Mul32, SB.rdTmp(T0), SB.constI32(3)));
  TmpId C = SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(A), SB.rdTmp(B)));
  SB.put(4, SB.rdTmp(C));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  optimise1(SB, nullptr);
  int Muls = 0;
  for (const Stmt *S : SB.stmts())
    if (S->Kind == StmtKind::WrTmp && S->Data->Kind == ExprKind::Binop &&
        S->Data->Opc == Op::Mul32)
      ++Muls;
  EXPECT_EQ(Muls, 1);
}

// Round one's CSE merges the two Adds, which makes the two Muls identical
// only after its folding: the second round must still run to merge them.
TEST(IROpt, CSECascadeTakesSecondRound) {
  IRSB SB;
  TmpId T1 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId T2 = SB.wrTmp(SB.get(4, Ty::I32));
  TmpId T3 = SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(T1), SB.rdTmp(T2)));
  TmpId T4 = SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(T1), SB.rdTmp(T2)));
  TmpId T5 = SB.wrTmp(SB.binop(Op::Mul32, SB.rdTmp(T3), SB.rdTmp(T1)));
  TmpId T6 = SB.wrTmp(SB.binop(Op::Mul32, SB.rdTmp(T4), SB.rdTmp(T1)));
  SB.put(8, SB.rdTmp(T5));
  SB.put(12, SB.rdTmp(T6));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  EXPECT_TRUE(optimise1(SB, nullptr));
  int Adds = 0, Muls = 0;
  for (const Stmt *S : SB.stmts())
    if (S->Kind == StmtKind::WrTmp && S->Data->Kind == ExprKind::Binop) {
      Adds += S->Data->Opc == Op::Add32;
      Muls += S->Data->Opc == Op::Mul32;
    }
  EXPECT_EQ(Adds, 1);
  EXPECT_EQ(Muls, 1);
}

TEST(IROpt, NoCSEHitSkipsSecondRound) {
  IRSB SB;
  TmpId T0 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId T1 = SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(T0), SB.constI32(1)));
  SB.put(4, SB.rdTmp(T1));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  EXPECT_FALSE(optimise1(SB, nullptr));
  EXPECT_EQ(countKind(SB, StmtKind::WrTmp), 2);
}

TEST(IROpt, StaticallyFalseExitRemoved) {
  IRSB SB;
  SB.exit(SB.constI1(false), 0x2000, JumpKind::Boring);
  SB.put(0, SB.constI32(7));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  optimise1(SB, nullptr);
  EXPECT_EQ(countKind(SB, StmtKind::Exit), 0);
}

// Counts WrTmp statements reading guest state at \p Offset.
int countGetsAt(const IRSB &SB, uint32_t Offset) {
  int N = 0;
  for (const Stmt *S : SB.stmts())
    if (S->Kind == StmtKind::WrTmp && S->Data->Kind == ExprKind::Get &&
        S->Data->Offset == Offset)
      ++N;
  return N;
}

TEST(IROpt, NarrowGetsInsideWiderPutAreNotForwarded) {
  // An 8-byte Put owns bytes 16..23; 4-byte Gets at 16 and at 20 match
  // neither its start and size (at +0) nor its start (at +4).
  IRSB SB;
  TmpId V = SB.wrTmp(SB.get(40, Ty::I64));
  SB.put(16, SB.rdTmp(V));
  TmpId Lo = SB.wrTmp(SB.get(16, Ty::I32));
  TmpId Hi = SB.wrTmp(SB.get(20, Ty::I32));
  SB.store(SB.constI32(0x8000), SB.rdTmp(Lo));
  SB.store(SB.constI32(0x8004), SB.rdTmp(Hi));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  optimise1(SB, nullptr);
  EXPECT_EQ(countGetsAt(SB, 16), 1);
  EXPECT_EQ(countGetsAt(SB, 20), 1);
  EXPECT_EQ(SB.typecheck(true), "");
}

/// Two Gets of offsets 0 and 8, a Dirty call with effects \p Fx, then the
/// same two Gets again, all four values stored.
void getsAroundDirty(IRSB &SB, std::vector<GuestFx> Fx) {
  static const Callee Helper = {"fx_helper", nullptr, 0};
  TmpId A0 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId B0 = SB.wrTmp(SB.get(8, Ty::I32));
  SB.dirty(&Helper, {}, NoTmp, nullptr, std::move(Fx));
  TmpId A1 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId B1 = SB.wrTmp(SB.get(8, Ty::I32));
  uint32_t Addr = 0x8000;
  for (TmpId T : {A0, B0, A1, B1}) {
    SB.store(SB.constI32(Addr), SB.rdTmp(T));
    Addr += 4;
  }
  SB.setNext(SB.constI32(0), JumpKind::Boring);
}

TEST(IROpt, DirtyFxWriteInvalidatesOnlyTheOverlappedSlot) {
  {
    IRSB SB;
    getsAroundDirty(SB, {{2, 1, /*IsWrite=*/true}}); // one byte inside [0,4)
    optimise1(SB, nullptr);
    EXPECT_EQ(countGetsAt(SB, 0), 2); // re-read after the call
    EXPECT_EQ(countGetsAt(SB, 8), 1); // still forwarded
  }
  {
    IRSB SB;
    getsAroundDirty(SB, {{6, 4, /*IsWrite=*/true}}); // [6,10): from the gap
    optimise1(SB, nullptr);                         // into [8,12)
    EXPECT_EQ(countGetsAt(SB, 0), 1);
    EXPECT_EQ(countGetsAt(SB, 8), 2);
  }
}

TEST(IROpt, UnannotatedDirtyClearsEverySlot) {
  IRSB SB;
  getsAroundDirty(SB, {});
  optimise1(SB, nullptr);
  EXPECT_EQ(countGetsAt(SB, 0), 2);
  EXPECT_EQ(countGetsAt(SB, 8), 2);
}

int countRhs(const IRSB &SB, ExprKind K) {
  int N = 0;
  for (const Stmt *S : SB.stmts())
    if (S->Kind == StmtKind::WrTmp && S->Data->Kind == K)
      ++N;
  return N;
}

TEST(IROpt, CSEDistinguishesConstantFromTmpOfSameNumber) {
  IRSB SB;
  std::vector<TmpId> T;
  for (uint32_t I = 0; I != 6; ++I)
    T.push_back(SB.wrTmp(SB.get(4 * I, Ty::I32)));
  ASSERT_EQ(T[5], 5u);
  TmpId A = SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(T[1]), SB.constI32(5)));
  TmpId B = SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(T[1]), SB.rdTmp(T[5])));
  SB.put(64, SB.rdTmp(A));
  SB.put(68, SB.rdTmp(B));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  optimise1(SB, nullptr);
  EXPECT_EQ(countRhs(SB, ExprKind::Binop), 2);
}

TEST(IROpt, CSEDistinguishesHelperArityAndArgumentKind) {
  static const Callee Pure = {"pure_helper", nullptr, 0};
  IRSB SB;
  std::vector<TmpId> T;
  for (uint32_t I = 0; I != 6; ++I)
    T.push_back(SB.wrTmp(SB.get(4 * I, Ty::I32)));
  ASSERT_EQ(T[0], 0u);
  ASSERT_EQ(T[5], 5u);
  std::vector<std::vector<Expr *>> ArgLists = {
      {SB.rdTmp(T[1])},                // one argument ...
      {SB.rdTmp(T[1]), SB.rdTmp(T[0])}, // ... or two (the second is tmp 0)
      {SB.constI32(5)},                // a constant 5 ...
      {SB.rdTmp(T[5])}};               // ... or tmp 5
  uint32_t Off = 64;
  for (auto &Args : ArgLists) {
    TmpId R = SB.wrTmp(SB.ccall(&Pure, Ty::I32, Args));
    SB.put(Off, SB.rdTmp(R));
    Off += 4;
  }
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  optimise1(SB, nullptr);
  EXPECT_EQ(countRhs(SB, ExprKind::CCall), 4);
}

//===----------------------------------------------------------------------===//
// The cc-thunk spec hook
//===----------------------------------------------------------------------===//

TEST(IROpt, SpecFnTurnsCondHelperIntoComparison) {
  // Build the IR a CMP+BNE pair produces, then check the helper call is
  // specialised away.
  IRSB SB;
  using vg1::CCOp;
  SB.put(vg1::gso::CC_OP, SB.constI32(static_cast<uint32_t>(CCOp::Sub)));
  TmpId D1 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId D2 = SB.wrTmp(SB.get(4, Ty::I32));
  SB.put(vg1::gso::CC_DEP1, SB.rdTmp(D1));
  SB.put(vg1::gso::CC_DEP2, SB.rdTmp(D2));
  TmpId C = SB.wrTmp(SB.ccall(
      calcCondCallee(), Ty::I32,
      {SB.constI32(static_cast<uint32_t>(vg1::Cond::NE)),
       SB.get(vg1::gso::CC_OP, Ty::I32), SB.get(vg1::gso::CC_DEP1, Ty::I32),
       SB.get(vg1::gso::CC_DEP2, Ty::I32)}));
  TmpId G = SB.wrTmp(SB.unop(Op::CmpNEZ32, SB.rdTmp(C)));
  SB.exit(SB.rdTmp(G), 0x2000, JumpKind::Boring);
  SB.setNext(SB.constI32(0x1010), JumpKind::Boring);

  auto Flat = flatten(SB);
  optimise1(*Flat, vg1SpecFn());
  EXPECT_EQ(Flat->typecheck(true), "");
  for (const Stmt *S : Flat->stmts()) {
    if (S->Kind == StmtKind::WrTmp) {
      EXPECT_NE(S->Data->Kind, ExprKind::CCall)
          << "helper call survived specialisation";
    }
  }
}

TEST(IROpt, SpecFnAgreesWithHelperOnAllConds) {
  // Property: for every cond and CC op, the specialised expression (forced
  // through constant folding) equals the helper's result.
  const uint32_t Vals[] = {0, 1, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu, 57};
  SpecFn Spec = vg1SpecFn();
  for (unsigned CondI = 0; CondI != vg1::NumConds; ++CondI) {
    for (uint32_t OpI : {1u, 2u, 3u}) { // Add, Sub, Logic
      for (uint32_t A : Vals) {
        for (uint32_t B : Vals) {
          IRSB SB;
          std::vector<Expr *> Args = {SB.constI32(CondI), SB.constI32(OpI),
                                      SB.constI32(A), SB.constI32(B)};
          Expr *R = Spec(SB, calcCondCallee(), Args);
          if (!R)
            continue; // spec declined: helper call stays, also correct
          // Force-fold by wrapping in a block and optimising.
          TmpId T = SB.wrTmp(R);
          SB.put(0, SB.rdTmp(T));
          SB.setNext(SB.constI32(0), JumpKind::Boring);
          auto Flat = flatten(SB);
          optimise1(*Flat, nullptr);
          ASSERT_EQ(Flat->stmts().size(), 1u);
          const Stmt *S = Flat->stmts()[0];
          ASSERT_TRUE(S->Data->isConst());
          EXPECT_EQ(S->Data->ConstVal != 0,
                    vg1::calcCond(CondI, OpI, A, B) != 0)
              << "cond=" << CondI << " op=" << OpI << " A=" << A << " B=" << B;
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Tree building
//===----------------------------------------------------------------------===//

TEST(IROpt, TreeBuildSubstitutesSingleUses) {
  IRSB SB;
  TmpId T0 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId T1 = SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(T0), SB.constI32(1)));
  TmpId T2 = SB.wrTmp(SB.binop(Op::Mul32, SB.rdTmp(T1), SB.constI32(3)));
  SB.put(4, SB.rdTmp(T2));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  buildTrees(SB);
  // Everything collapses into the Put's expression tree.
  ASSERT_EQ(SB.stmts().size(), 1u);
  EXPECT_EQ(SB.stmts()[0]->Kind, StmtKind::Put);
  EXPECT_EQ(SB.typecheck(false), "");
}

TEST(IROpt, TreeBuildKeepsMultiUseTmps) {
  IRSB SB;
  TmpId T0 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId T1 = SB.wrTmp(SB.binop(Op::Add32, SB.rdTmp(T0), SB.rdTmp(T0)));
  SB.put(4, SB.rdTmp(T1));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  buildTrees(SB);
  // T0 is used twice: its def must survive.
  EXPECT_EQ(countKind(SB, StmtKind::WrTmp), 1);
}

TEST(IROpt, TreeBuildNeverMovesLoadPastStore) {
  IRSB SB;
  TmpId TL = SB.wrTmp(SB.load(Ty::I32, SB.constI32(0x8000)));
  SB.store(SB.constI32(0x8000), SB.constI32(99)); // overwrites the slot
  SB.put(0, SB.rdTmp(TL)); // must see the OLD value
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  buildTrees(SB);
  // The load's WrTmp must still be ahead of the store.
  ASSERT_GE(SB.stmts().size(), 3u);
  EXPECT_EQ(SB.stmts()[0]->Kind, StmtKind::WrTmp);
  EXPECT_EQ(SB.stmts()[0]->Data->Kind, ExprKind::Load);
  EXPECT_EQ(SB.stmts()[1]->Kind, StmtKind::Store);
}

TEST(IROpt, TreeBuildRespectsPutGetConflicts) {
  IRSB SB;
  TmpId TG = SB.wrTmp(SB.get(0, Ty::I32));
  SB.put(0, SB.constI32(123));
  SB.store(SB.constI32(0x8000), SB.rdTmp(TG)); // must be the OLD reg value
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  buildTrees(SB);
  EXPECT_EQ(SB.stmts()[0]->Kind, StmtKind::WrTmp);
  EXPECT_EQ(SB.stmts()[0]->Data->Kind, ExprKind::Get);
}

TEST(IROpt, TreeBuildFlushedDefIsNotSubstitutedAgain) {
  // T0 and T1 are held; the Put to offset 0 flushes T0's def (its Get
  // would otherwise read the new value) and keeps T1's. The later read of
  // T0 must name the emitted tmp; T1 still folds into its use.
  IRSB SB;
  TmpId T0 = SB.wrTmp(SB.get(0, Ty::I32));
  TmpId T1 = SB.wrTmp(SB.get(8, Ty::I32));
  SB.put(0, SB.constI32(123));
  SB.store(SB.constI32(0x8000), SB.rdTmp(T0));
  SB.store(SB.constI32(0x8004), SB.rdTmp(T1));
  SB.setNext(SB.constI32(0), JumpKind::Boring);
  buildTrees(SB);
  ASSERT_EQ(SB.stmts().size(), 4u);
  EXPECT_EQ(SB.stmts()[0]->Kind, StmtKind::WrTmp);
  EXPECT_EQ(SB.stmts()[0]->Tmp, T0);
  EXPECT_EQ(SB.stmts()[1]->Kind, StmtKind::Put);
  const Stmt *St0 = SB.stmts()[2];
  ASSERT_EQ(St0->Kind, StmtKind::Store);
  ASSERT_TRUE(St0->Data->isRdTmp());
  EXPECT_EQ(St0->Data->Tmp, T0);
  const Stmt *St1 = SB.stmts()[3];
  ASSERT_EQ(St1->Kind, StmtKind::Store);
  ASSERT_EQ(St1->Data->Kind, ExprKind::Get);
  EXPECT_EQ(St1->Data->Offset, 8u);
  EXPECT_EQ(SB.typecheck(false), "");
}

//===----------------------------------------------------------------------===//
// Frontend output shape (Figure 1)
//===----------------------------------------------------------------------===//

TEST(Frontend, Figure1ShapedBlock) {
  // The paper's example: a scaled-index load, an add, an indirect jump.
  vg1::Assembler A(0x24F275);
  A.ldx(vg1::Reg::R0, vg1::Reg::R3, vg1::Reg::R0, 2, -16180);
  A.add(vg1::Reg::R0, vg1::Reg::R0, vg1::Reg::R3);
  A.jmpr(vg1::Reg::R0);
  std::vector<uint8_t> Img = A.finalize();
  FetchFn Fetch = [&](uint32_t Addr, uint8_t *Buf, uint32_t MaxLen) -> uint32_t {
    if (Addr < 0x24F275 || Addr >= 0x24F275 + Img.size())
      return 0;
    uint32_t Avail = static_cast<uint32_t>(0x24F275 + Img.size() - Addr);
    uint32_t N = std::min(MaxLen, Avail);
    std::memcpy(Buf, Img.data() + (Addr - 0x24F275), N);
    return N;
  };

  DisasmResult R = disassembleSB(0x24F275, Fetch);
  ASSERT_TRUE(R.SB);
  EXPECT_EQ(R.NumInsns, 3u);
  EXPECT_EQ(R.SB->typecheck(false), "");
  std::string Text = toString(*R.SB, vg1OffsetName);
  // Figure 1's key features: IMarks with lengths, the Shl32 address tree,
  // cc-thunk puts, and the final indirect goto.
  EXPECT_NE(Text.find("IMark(0x24f275, 7)"), std::string::npos) << Text;
  EXPECT_NE(Text.find("Shl32"), std::string::npos);
  EXPECT_NE(Text.find("LDle:I32"), std::string::npos);
  EXPECT_NE(Text.find("# put %cc_dep1"), std::string::npos);
  EXPECT_NE(Text.find("goto {Boring}"), std::string::npos);
}

TEST(Frontend, SuperblockStopsAtConditionalBranch) {
  vg1::Assembler A(Base);
  vg1::Label L = A.newLabel();
  A.movi(vg1::Reg::R1, 1);
  A.cmpi(vg1::Reg::R1, 0);
  A.beq(L);
  A.movi(vg1::Reg::R2, 2); // separate block
  A.bind(L);
  A.hlt();
  std::vector<uint8_t> Img = A.finalize();
  DisasmResult R = disassembleSB(Base, fetchOf(Img));
  EXPECT_EQ(R.NumInsns, 3u);
  EXPECT_EQ(countKind(*R.SB, StmtKind::Exit), 1);
}

TEST(Frontend, ChasesUnconditionalJumps) {
  vg1::Assembler A(Base);
  vg1::Label L1 = A.newLabel(), L2 = A.newLabel();
  A.movi(vg1::Reg::R1, 1);
  A.jmp(L1);
  A.bind(L2);
  A.movi(vg1::Reg::R3, 3);
  A.hlt();
  A.bind(L1);
  A.movi(vg1::Reg::R2, 2);
  A.jmp(L2);
  std::vector<uint8_t> Img = A.finalize();
  DisasmResult R = disassembleSB(Base, fetchOf(Img));
  // All 6 instructions (including the chased jmps) land in one superblock
  // via 2 chases, covering 3 disjoint guest ranges.
  EXPECT_EQ(R.NumInsns, 6u);
  EXPECT_EQ(R.Extents.size(), 3u);
}

TEST(Frontend, ChaseLimitRespected) {
  vg1::Assembler A(Base);
  // A long chain of jumps: j1 -> j2 -> ... -> j10 -> hlt
  std::vector<vg1::Label> Ls;
  for (int I = 0; I != 10; ++I)
    Ls.push_back(A.newLabel());
  A.jmp(Ls[0]);
  for (int I = 0; I != 10; ++I) {
    A.bind(Ls[I]);
    if (I + 1 < 10)
      A.jmp(Ls[I + 1]);
  }
  A.hlt();
  std::vector<uint8_t> Img = A.finalize();
  FrontendConfig Cfg;
  Cfg.MaxChases = 3;
  DisasmResult R = disassembleSB(Base, fetchOf(Img), Cfg);
  EXPECT_EQ(R.NumInsns, 4u); // initial jmp + 3 chased jmps
}

TEST(Frontend, InstructionLimitEndsBlock) {
  vg1::Assembler A(Base);
  for (int I = 0; I != 80; ++I)
    A.addi(vg1::Reg::R1, vg1::Reg::R1, 1);
  A.hlt();
  std::vector<uint8_t> Img = A.finalize();
  DisasmResult R = disassembleSB(Base, fetchOf(Img));
  EXPECT_EQ(R.NumInsns, 50u);
  EXPECT_EQ(R.SB->endJumpKind(), JumpKind::Boring);
}

TEST(Frontend, UndecodableEndsWithNoDecode) {
  std::vector<uint8_t> Img = {0xFF, 0xFF};
  DisasmResult R = disassembleSB(Base, fetchOf(Img));
  EXPECT_TRUE(R.DecodeFailed);
  EXPECT_EQ(R.SB->endJumpKind(), JumpKind::NoDecode);
}

TEST(Frontend, CpuInfoBecomesAnnotatedDirtyCall) {
  vg1::Assembler A(Base);
  A.cpuinfo();
  A.hlt();
  std::vector<uint8_t> Img = A.finalize();
  DisasmResult R = disassembleSB(Base, fetchOf(Img));
  const Stmt *Dirty = nullptr;
  for (const Stmt *S : R.SB->stmts())
    if (S->Kind == StmtKind::Dirty)
      Dirty = S;
  ASSERT_NE(Dirty, nullptr);
  ASSERT_EQ(Dirty->Fx.size(), 2u);
  EXPECT_TRUE(Dirty->Fx[0].IsWrite);
  EXPECT_EQ(Dirty->Fx[0].Offset, vg1::gso::gpr(0));
}

TEST(Frontend, OptimisationShrinksFigure1Block) {
  // Paper: 17 tree statements -> fewer after flattening+optimisation, with
  // the intermediate %pc put and redundant gets removed.
  vg1::Assembler A(0x24F275);
  A.ldx(vg1::Reg::R0, vg1::Reg::R3, vg1::Reg::R0, 2, -16180);
  A.add(vg1::Reg::R0, vg1::Reg::R0, vg1::Reg::R3);
  A.jmpr(vg1::Reg::R0);
  std::vector<uint8_t> Img = A.finalize();
  FetchFn Fetch = [&](uint32_t Addr, uint8_t *Buf, uint32_t MaxLen) -> uint32_t {
    if (Addr < 0x24F275 || Addr >= 0x24F275 + Img.size())
      return 0;
    uint32_t N = std::min<uint32_t>(
        MaxLen, static_cast<uint32_t>(0x24F275 + Img.size() - Addr));
    std::memcpy(Buf, Img.data() + (Addr - 0x24F275), N);
    return N;
  };
  DisasmResult R = disassembleSB(0x24F275, Fetch);
  auto Flat = flatten(*R.SB);
  optimise1(*Flat, vg1SpecFn());
  // Only one Get of r3 must remain (shared by the address tree and the
  // add), and only one Get of r0.
  int GetsOfR3 = 0, GetsOfR0 = 0, PutsOfPC = 0;
  uint64_t LastPCPut = 0;
  for (const Stmt *S : Flat->stmts()) {
    if (S->Kind == StmtKind::WrTmp && S->Data->Kind == ExprKind::Get) {
      if (S->Data->Offset == vg1::gso::gpr(3))
        ++GetsOfR3;
      if (S->Data->Offset == vg1::gso::gpr(0))
        ++GetsOfR0;
    }
    if (S->Kind == StmtKind::Put && S->Offset == vg1::gso::PC) {
      ++PutsOfPC;
      LastPCPut = S->Data->ConstVal;
    }
  }
  EXPECT_EQ(GetsOfR3, 1);
  EXPECT_EQ(GetsOfR0, 1);
  // The paper's statement-5 removal: the intermediate %pc write at the
  // second instruction is dead (overwritten by the final one with no
  // intervening observation), so exactly one PC put survives.
  EXPECT_EQ(PutsOfPC, 1);
  EXPECT_EQ(LastPCPut, 0x24F27Fu);
}

} // namespace
