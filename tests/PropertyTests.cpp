//===-- tests/PropertyTests.cpp - Semantic-preservation properties --------==//
///
/// \file
/// Randomised invariants over the translation pipeline:
///
///  - the Phase 2/4/5 optimisation passes preserve a block's observable
///    semantics (final guest state + stores + exit target), checked by
///    executing random flat blocks with and without each pass;
///  - chaining changes no architectural result on random programs;
///  - Nulgrind, ICnt, Memcheck, Cachegrind and TaintGrind all preserve
///    client behaviour (checksums/exit codes) on random programs — the
///    paper's transparency assumption (Section 2, R9: "no other
///    functional perturbation").
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "guest/GuestMemory.h"
#include "guestlib/GuestLib.h"
#include "hvm/Exec.h"
#include "hvm/ISel.h"
#include "ir/IROpt.h"
#include "ir/IRPrinter.h"
#include "tools/Cachegrind.h"
#include "tools/ICnt.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "tools/TaintGrind.h"

#include <gtest/gtest.h>

#include <random>

using namespace vg;
using namespace vg::ir;

namespace {

//===----------------------------------------------------------------------===//
// Random flat-IR blocks: optimisation must not change their meaning
//===----------------------------------------------------------------------===//

/// Builds a random flat block over I32 temporaries: gets, ALU ops, loads,
/// stores, puts, ITEs, guarded exits.
void buildRandomBlock(IRSB &SB, std::mt19937 &Rng) {
  auto Pick = [&](uint32_t N) { return Rng() % N; };
  std::vector<TmpId> Pool;
  // Seed with a few register reads.
  for (int I = 0; I != 4; ++I)
    Pool.push_back(SB.wrTmp(SB.get(4 * Pick(8), Ty::I32)));
  auto RandAtom = [&]() -> Expr * {
    if (Pick(4) == 0)
      return SB.constI32(Rng());
    return SB.rdTmp(Pool[Pick(static_cast<uint32_t>(Pool.size()))]);
  };
  const Op Ops[] = {Op::Add32, Op::Sub32, Op::And32, Op::Or32,  Op::Xor32,
                    Op::Mul32, Op::Shl32, Op::Shr32, Op::Add8x4};
  for (int I = 0; I != 24; ++I) {
    switch (Pick(8)) {
    case 0:
    case 1:
    case 2:
    case 3: { // ALU
      Op O = Ops[Pick(9)];
      Expr *B = opArgTy(O, 1) == Ty::I8
                    ? SB.constI8(static_cast<uint8_t>(Pick(32)))
                    : RandAtom();
      Pool.push_back(SB.wrTmp(SB.binop(O, RandAtom(), B)));
      break;
    }
    case 4: { // masked in-bounds load from the data window
      TmpId Masked = SB.wrTmp(
          SB.binop(Op::And32, RandAtom(), SB.constI32(0xFFC)));
      TmpId Addr = SB.wrTmp(
          SB.binop(Op::Add32, SB.rdTmp(Masked), SB.constI32(0x8000)));
      Pool.push_back(SB.wrTmp(SB.load(Ty::I32, SB.rdTmp(Addr))));
      break;
    }
    case 5: { // masked in-bounds store
      TmpId Masked = SB.wrTmp(
          SB.binop(Op::And32, RandAtom(), SB.constI32(0xFFC)));
      TmpId Addr = SB.wrTmp(
          SB.binop(Op::Add32, SB.rdTmp(Masked), SB.constI32(0x8000)));
      SB.store(SB.rdTmp(Addr), RandAtom());
      break;
    }
    case 6: { // put
      SB.put(4 * Pick(14), RandAtom());
      break;
    }
    case 7: { // guarded exit
      TmpId C = SB.wrTmp(SB.binop(Op::CmpLT32U, RandAtom(), RandAtom()));
      SB.exit(SB.rdTmp(C), 0x5000 + Pick(16) * 4, JumpKind::Boring);
      break;
    }
    }
  }
  SB.put(60, RandAtom()); // make something always observable
  SB.setNext(SB.constI32(0x4000), JumpKind::Boring);
}

struct BlockResult {
  std::array<uint8_t, vg1::gso::TotalSize> Gst;
  std::vector<uint8_t> DataWindow;
  uint32_t NextPC;
};

BlockResult runBlock(IRSB &SB, uint32_t Seed) {
  BlockResult R;
  R.Gst.fill(0);
  // Deterministic initial guest state.
  std::mt19937 Init(Seed ^ 0x5EED);
  for (unsigned I = 0; I != 64; I += 4) {
    uint32_t V = Init();
    std::memcpy(R.Gst.data() + I, &V, 4);
  }
  GuestMemory Mem;
  Mem.map(0x8000, 0x1000, PermRW);
  for (uint32_t A = 0; A != 0x1000; A += 4)
    Mem.writeU32(0x8000 + A, Init());

  hvm::HostCode HC = hvm::selectInstructions(SB);
  hvm::allocateRegisters(HC);
  hvm::CodeBlob Blob;
  Blob.Bytes = hvm::encode(HC);
  ExecContext Ctx;
  Ctx.GuestState = R.Gst.data();
  Ctx.Mem = &Mem;
  hvm::Executor Exec(Ctx, vg1::gso::PC);
  hvm::RunOutcome O = Exec.run(Blob);
  R.NextPC = O.NextPC;
  R.DataWindow.resize(0x1000);
  Mem.read(0x8000, R.DataWindow.data(), 0x1000, true);
  return R;
}

class OptEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(OptEquivalence, PassesPreserveSemantics) {
  unsigned Seed = GetParam();
  // Reference: the raw flat block, unoptimised.
  std::mt19937 Rng1(Seed);
  IRSB Raw;
  buildRandomBlock(Raw, Rng1);
  ASSERT_EQ(Raw.typecheck(true), "");
  BlockResult Want = runBlock(Raw, Seed);

  // Variant A: full optimise1 + optimise2 + tree building.
  {
    std::mt19937 Rng2(Seed);
    IRSB SB;
    buildRandomBlock(SB, Rng2);
    optimise1(SB, nullptr);
    optimise2(SB, nullptr);
    ASSERT_EQ(SB.typecheck(true), "") << "seed " << Seed;
    buildTrees(SB);
    ASSERT_EQ(SB.typecheck(false), "") << "seed " << Seed;
    BlockResult Got = runBlock(SB, Seed);
    EXPECT_EQ(Got.NextPC, Want.NextPC) << "seed " << Seed;
    EXPECT_EQ(Got.Gst, Want.Gst) << "seed " << Seed;
    EXPECT_EQ(Got.DataWindow, Want.DataWindow) << "seed " << Seed;
  }
  // Variant B: tree building alone.
  {
    std::mt19937 Rng3(Seed);
    IRSB SB;
    buildRandomBlock(SB, Rng3);
    buildTrees(SB);
    BlockResult Got = runBlock(SB, Seed);
    EXPECT_EQ(Got.NextPC, Want.NextPC) << "seed " << Seed;
    EXPECT_EQ(Got.Gst, Want.Gst) << "seed " << Seed;
    EXPECT_EQ(Got.DataWindow, Want.DataWindow) << "seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptEquivalence, ::testing::Range(0u, 40u));

// Phase 4's skip rule (IROpt.h) on random flat blocks: wherever
// optimisation 1 reports its last round settled, optimisation 2 leaves
// the printed IR as it was.
TEST(OptSkipRule, Optimise2ChangesNothingWhereOptimise1Settled) {
  unsigned Settled = 0, SettledInTwo = 0;
  for (unsigned Seed = 0; Seed != 2000; ++Seed) {
    std::mt19937 Rng(Seed);
    IRSB SB;
    buildRandomBlock(SB, Rng);
    Optimise1Result R = optimise1(SB, nullptr);
    if (!R.Settled)
      continue;
    ++Settled;
    SettledInTwo += R.SecondRound;
    std::string Before = toString(SB);
    optimise2(SB, nullptr);
    ASSERT_EQ(toString(SB), Before) << "seed " << Seed;
  }
  // Both results, and settling in either round, occur in the sweep.
  EXPECT_GT(SettledInTwo, 0u);
  EXPECT_GT(Settled, SettledInTwo);
  EXPECT_LT(Settled, 2000u);
}

//===----------------------------------------------------------------------===//
// Whole-program transparency: tools must not perturb client behaviour
//===----------------------------------------------------------------------===//

GuestImage randomProgram(unsigned Seed) {
  using namespace vg::vg1;
  std::mt19937 Rng(Seed * 2654435761u + 99);
  auto Pick = [&](uint32_t N) { return Rng() % N; };
  Assembler Code(0x1000);
  Assembler Data(0x100000);
  GuestLibLabels Lib = emitGuestLib(Code, Data);
  Label Main = Code.newLabel();
  uint32_t Entry = emitStart(Code, Main);
  Code.bind(Main);
  // malloc a working buffer.
  Code.movi(Reg::R1, 4096);
  Code.call(Lib.Malloc);
  Code.mov(Reg::R12, Reg::R0);
  for (unsigned R = 1; R != 12; ++R)
    Code.movi(static_cast<Reg>(R), Rng());
  // A loop running a random body 500 times.
  Code.movi(Reg::R10, 0);
  Label Loop = Code.boundLabel();
  for (int I = 0; I != 30; ++I) {
    Reg Rd = static_cast<Reg>(1 + Pick(9));
    Reg Rs = static_cast<Reg>(1 + Pick(9));
    Reg Rt = static_cast<Reg>(1 + Pick(9));
    switch (Pick(10)) {
    case 0:
      Code.add(Rd, Rs, Rt);
      break;
    case 1:
      Code.sub(Rd, Rs, Rt);
      break;
    case 2:
      Code.xor_(Rd, Rs, Rt);
      break;
    case 3:
      Code.mul(Rd, Rs, Rt);
      break;
    case 4:
      Code.shli(Rd, Rs, static_cast<uint8_t>(Pick(31)));
      break;
    case 5: { // in-bounds store
      Code.andi(Reg::R11, Rs, 0xFFC);
      Code.add(Reg::R11, Reg::R11, Reg::R12);
      Code.st(Reg::R11, 0, Rt);
      break;
    }
    case 6: { // in-bounds load
      Code.andi(Reg::R11, Rs, 0xFFC);
      Code.add(Reg::R11, Reg::R11, Reg::R12);
      Code.ld(Rd, Reg::R11, 0);
      break;
    }
    case 7: { // forward skip
      Code.cmp(Rs, Rt);
      Label Skip = Code.newLabel();
      Code.bcc(static_cast<Cond>(Pick(NumConds)), Skip);
      Code.addi(Rd, Rd, 1);
      Code.bind(Skip);
      break;
    }
    case 8:
      Code.vadd8(Rd, Rs, Rt);
      break;
    case 9:
      Code.push(Rs);
      Code.pop(Rd);
      break;
    }
  }
  Code.addi(Reg::R10, Reg::R10, 1);
  Code.cmpi(Reg::R10, 500);
  Code.blt(Loop);
  // Checksum of the registers + buffer head.
  Code.movi(Reg::R11, 0);
  for (unsigned R = 1; R != 10; ++R)
    Code.add(Reg::R11, Reg::R11, static_cast<Reg>(R));
  Code.ld(Reg::R2, Reg::R12, 0);
  Code.add(Reg::R11, Reg::R11, Reg::R2);
  Code.andi(Reg::R11, Reg::R11, 0x7FFFFFFF);
  Code.mov(Reg::R1, Reg::R11);
  Code.call(Lib.PrintU32);
  Code.movi(Reg::R0, 0);
  Code.ret();
  return GuestImageBuilder().addCode(Code).addData(Data).entry(Entry).build();
}

class Transparency : public ::testing::TestWithParam<unsigned> {};

TEST_P(Transparency, EveryToolPreservesClientBehaviour) {
  GuestImage Img = randomProgram(GetParam());
  RunReport Native = runNative(Img);
  ASSERT_TRUE(Native.Completed);
  ASSERT_FALSE(Native.Stdout.empty());

  auto Check = [&](Tool *T, const std::vector<std::string> &Opts,
                   const char *Name) {
    RunReport R = runUnderCore(Img, T, Opts);
    EXPECT_TRUE(R.Completed) << Name;
    EXPECT_EQ(R.Stdout, Native.Stdout) << Name;
    EXPECT_EQ(R.ExitCode, Native.ExitCode) << Name;
  };
  Nulgrind T0;
  Check(&T0, {}, "nulgrind");
  Nulgrind T1;
  Check(&T1, {"--chaining=yes"}, "nulgrind+chaining");
  ICnt T2(ICnt::Mode::Inline);
  Check(&T2, {}, "icnt-inline");
  Memcheck T3;
  Check(&T3, {"--leak-check=no"}, "memcheck");
  Cachegrind T4;
  Check(&T4, {}, "cachegrind");
  TaintGrind T5;
  Check(&T5, {}, "taintgrind");
}

INSTANTIATE_TEST_SUITE_P(Sweep, Transparency, ::testing::Range(0u, 6u));

} // namespace
