//===-- tests/MemcheckTests.cpp - Memcheck + shadow memory tests ----------==//
///
/// \file
/// Validates the flagship shadow-value tool: definedness tracking through
/// registers, memory, and the heap; addressability errors on red zones and
/// freed blocks; syscall parameter checking; leak detection; error
/// deduplication and suppressions; and the ShadowMap substrate itself.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "guestlib/GuestLib.h"
#include "shadow/ShadowMemory.h"
#include "tools/Memcheck.h"

#include <gtest/gtest.h>

using namespace vg;
using namespace vg::vg1;

namespace {

constexpr uint32_t CodeBase = 0x1000;
constexpr uint32_t DataBase = 0x100000;

GuestImage buildProgram(
    const std::function<void(Assembler &, Assembler &, GuestLibLabels &)>
        &Body) {
  Assembler Code(CodeBase);
  Assembler Data(DataBase);
  GuestLibLabels Lib = emitGuestLib(Code, Data);
  Label Main = Code.newLabel();
  uint32_t Entry = emitStart(Code, Main);
  Code.bind(Main);
  Code.symbol("main");
  Body(Code, Data, Lib);
  return GuestImageBuilder().addCode(Code).addData(Data).entry(Entry).build();
}

/// Runs under Memcheck; returns (report, #unique errors of each kind seen
/// in the tool output).
struct McRun {
  RunReport R;
  std::string Output;
  bool has(const char *Needle) const {
    return Output.find(Needle) != std::string::npos;
  }
};

McRun runMc(const GuestImage &Img,
            const std::vector<std::string> &Opts = {}) {
  Memcheck T;
  McRun M;
  M.R = runUnderCore(Img, &T, Opts);
  M.Output = M.R.ToolOutput;
  return M;
}

//===----------------------------------------------------------------------===//
// ShadowMap substrate
//===----------------------------------------------------------------------===//

TEST(ShadowMap, DefaultIsNoAccess) {
  ShadowMap SM;
  uint32_t Bad;
  EXPECT_FALSE(SM.isAddressable(0x1000, 4, Bad));
  EXPECT_EQ(Bad, 0x1000u);
  EXPECT_EQ(SM.chunksMaterialised(), 0u);
}

TEST(ShadowMap, RangeTransitions) {
  ShadowMap SM;
  SM.makeUndefined(0x1000, 64);
  uint32_t Bad;
  bool Unaddr;
  EXPECT_TRUE(SM.isAddressable(0x1000, 64, Bad));
  EXPECT_FALSE(SM.isDefined(0x1000, 64, Bad, Unaddr));
  EXPECT_FALSE(Unaddr);
  SM.makeDefined(0x1000, 64);
  EXPECT_TRUE(SM.isDefined(0x1000, 64, Bad, Unaddr));
  SM.makeNoAccess(0x1010, 8);
  EXPECT_FALSE(SM.isAddressable(0x1000, 64, Bad));
  EXPECT_EQ(Bad, 0x1010u);
  // Bytes around the hole unaffected.
  EXPECT_TRUE(SM.isDefined(0x1000, 16, Bad, Unaddr));
  EXPECT_TRUE(SM.isDefined(0x1018, 0x40 - 0x18, Bad, Unaddr));
}

TEST(ShadowMap, WholeChunkOpsStayDistinguished) {
  ShadowMap SM;
  // Chunk-aligned makeDefined uses the shared secondary: no materialise.
  SM.makeDefined(0x30000, ShadowMap::ChunkSize);
  EXPECT_EQ(SM.chunksMaterialised(), 0u);
  uint32_t Bad;
  bool Unaddr;
  EXPECT_TRUE(SM.isDefined(0x30000, ShadowMap::ChunkSize, Bad, Unaddr));
  // A partial write materialises exactly one chunk.
  SM.makeUndefined(0x30010, 4);
  EXPECT_EQ(SM.chunksMaterialised(), 1u);
}

TEST(ShadowMap, LoadStoreVbitsRoundTrip) {
  ShadowMap SM;
  SM.makeUndefined(0x2000, 16);
  AddrCheck Check;
  EXPECT_EQ(SM.loadV(0x2000, 4, Check), 0xFFFFFFFFull);
  EXPECT_TRUE(Check.Ok);
  SM.storeV(0x2000, 4, 0x00FF00FF, Check);
  EXPECT_TRUE(Check.Ok);
  AddrCheck C2;
  EXPECT_EQ(SM.loadV(0x2000, 4, C2), 0x00FF00FFull);
  // Partially unaddressable load: flags the first bad byte, reads 0xFF.
  SM.makeNoAccess(0x2002, 1);
  AddrCheck C3;
  uint64_t V = SM.loadV(0x2000, 4, C3);
  EXPECT_FALSE(C3.Ok);
  EXPECT_EQ(C3.FirstBad, 0x2002u);
  EXPECT_EQ((V >> 16) & 0xFF, 0xFFull);
}

TEST(ShadowMap, CopyRangeMovesBothPlanes) {
  ShadowMap SM;
  SM.makeUndefined(0x1000, 8);
  AddrCheck Check;
  SM.storeV(0x1000, 8, 0x1122334455667788ull, Check);
  SM.makeNoAccess(0x1004, 1);
  SM.copyRange(0x1000, 0x5000, 8);
  EXPECT_EQ(SM.vbyte(0x5001), 0x77);
  EXPECT_FALSE(SM.abit(0x5004));
  EXPECT_TRUE(SM.abit(0x5005));
}

TEST(DirectShadow, WindowSemantics) {
  DirectShadow DS(0x100000, 0x10000);
  EXPECT_TRUE(DS.covers(0x100000, 16));
  EXPECT_FALSE(DS.covers(0xFFFF0, 16));
  DS.makeDefined(0x100100, 64);
  AddrCheck Check;
  EXPECT_EQ(DS.loadV(0x100100, 8, Check), 0ull);
  EXPECT_TRUE(Check.Ok);
  // Outside the window: hard failure (the TaintTrace weakness).
  AddrCheck C2;
  DS.loadV(0x80000, 4, C2);
  EXPECT_FALSE(C2.Ok);
}

//===----------------------------------------------------------------------===//
// Definedness through registers and memory
//===----------------------------------------------------------------------===//

TEST(Memcheck, CleanProgramHasNoErrors) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &) {
    Code.movi(Reg::R1, 1);
    Code.movi(Reg::R2, 2);
    Code.add(Reg::R3, Reg::R1, Reg::R2);
    Code.cmpi(Reg::R3, 3);
    Label L = Code.newLabel();
    Code.beq(L);
    Code.bind(L);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.R.Completed);
  EXPECT_TRUE(M.has("ERROR SUMMARY: 0 errors"));
}

TEST(Memcheck, BranchOnUninitStackLocal) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -16); // allocate locals (undefined)
    Code.ld(Reg::R1, Reg::SP, 4);     // read uninitialised local
    Code.cmpi(Reg::R1, 0);            // flags now undefined
    Label L = Code.newLabel();
    Code.beq(L); // ERROR: conditional jump on uninit value
    Code.bind(L);
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.R.Completed);
  EXPECT_TRUE(M.has("Conditional jump or move depends on uninitialised"))
      << M.Output;
}

TEST(Memcheck, InitialisedLocalIsClean) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -16);
    Code.movi(Reg::R2, 42);
    Code.st(Reg::SP, 4, Reg::R2); // initialise first
    Code.ld(Reg::R1, Reg::SP, 4);
    Code.cmpi(Reg::R1, 0);
    Label L = Code.newLabel();
    Code.beq(L);
    Code.bind(L);
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("ERROR SUMMARY: 0 errors")) << M.Output;
}

TEST(Memcheck, CopyingUninitialisedDataIsNotAnError) {
  // Memcheck's precision claim: merely moving undefined values around is
  // fine; only *dangerous uses* are flagged.
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -32);
    Code.ld(Reg::R1, Reg::SP, 0);  // uninit
    Code.mov(Reg::R2, Reg::R1);    // copy: fine
    Code.add(Reg::R3, Reg::R1, Reg::R2); // arithmetic: fine
    Code.st(Reg::SP, 16, Reg::R3); // store back: fine
    Code.addi(Reg::SP, Reg::SP, 32);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("ERROR SUMMARY: 0 errors")) << M.Output;
}

TEST(Memcheck, UninitTrackedThroughRegistersAndMemory) {
  // The footnote-1 point: definedness must survive a round trip through
  // registers and memory, then fire exactly at the eventual use.
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &Data,
                                  GuestLibLabels &) {
    Label Cell = Data.boundLabel();
    Data.emitZeros(8);
    Code.addi(Reg::SP, Reg::SP, -16);
    Code.ld(Reg::R1, Reg::SP, 0);          // uninit
    Code.shli(Reg::R2, Reg::R1, 4);        // derived: still uninit
    Code.movi(Reg::R3, Data.labelAddr(Cell));
    Code.st(Reg::R3, 0, Reg::R2);          // park in (defined) data cell
    Code.ld(Reg::R4, Reg::R3, 0);          // reload: uninit again
    Code.cmpi(Reg::R4, 7);
    Label L = Code.newLabel();
    Code.bne(L); // ERROR here, and only here
    Code.bind(L);
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Conditional jump or move")) << M.Output;
  EXPECT_TRUE(M.has("ERROR SUMMARY: 1 errors from 1 contexts")) << M.Output;
}

TEST(Memcheck, UninitAddressUse) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -16);
    Code.ld(Reg::R1, Reg::SP, 0); // uninit
    // Mask it into a mapped data range so the access itself succeeds: the
    // *definedness of the address* is the error.
    Code.andi(Reg::R1, Reg::R1, 0xFFC);
    Code.addi(Reg::R1, Reg::R1, DataBase);
    Code.ld(Reg::R2, Reg::R1, 0); // ERROR: address depends on uninit
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Use of uninitialised value")) << M.Output;
}

//===----------------------------------------------------------------------===//
// Heap errors (R8)
//===----------------------------------------------------------------------===//

TEST(Memcheck, MallocMemoryIsUndefinedCallocIsDefined) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    // calloc: branch on contents is fine.
    Code.movi(Reg::R1, 8);
    Code.movi(Reg::R2, 4);
    Code.call(Lib.Calloc);
    Code.mov(Reg::R7, Reg::R0); // keep for the free below
    Code.ld(Reg::R3, Reg::R0, 0);
    Code.cmpi(Reg::R3, 0);
    Label L1 = Code.newLabel();
    Code.beq(L1);
    Code.bind(L1);
    // malloc: branch on contents errors.
    Code.movi(Reg::R1, 32);
    Code.call(Lib.Malloc);
    Code.ld(Reg::R3, Reg::R0, 0);
    Code.cmpi(Reg::R3, 0);
    Label L2 = Code.newLabel();
    Code.beq(L2);
    Code.bind(L2);
    Code.mov(Reg::R1, Reg::R0);
    Code.call(Lib.Free);
    Code.mov(Reg::R1, Reg::R7);
    Code.call(Lib.Free);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Conditional jump or move")) << M.Output;
  EXPECT_TRUE(M.has("ERROR SUMMARY: 1 errors")) << M.Output;
}

TEST(Memcheck, HeapOverrunHitsRedZone) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 16);
    Code.call(Lib.Malloc);
    Code.movi(Reg::R2, 1);
    Code.st(Reg::R0, 16, Reg::R2); // one past the end: red zone
    Code.ld(Reg::R3, Reg::R0, -4); // one before the start
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Invalid write of size 4")) << M.Output;
  EXPECT_TRUE(M.has("Invalid read of size 4")) << M.Output;
}

TEST(Memcheck, UseAfterFree) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 64);
    Code.call(Lib.Malloc);
    Code.mov(Reg::R6, Reg::R0);
    Code.movi(Reg::R2, 9);
    Code.st(Reg::R6, 0, Reg::R2);
    Code.mov(Reg::R1, Reg::R6);
    Code.call(Lib.Free);
    Code.ld(Reg::R3, Reg::R6, 0); // ERROR: read of freed block
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Invalid read")) << M.Output;
}

TEST(Memcheck, DoubleFreeAndWildFree) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 16);
    Code.call(Lib.Malloc);
    Code.mov(Reg::R6, Reg::R0);
    Code.mov(Reg::R1, Reg::R6);
    Code.call(Lib.Free);
    Code.mov(Reg::R1, Reg::R6);
    Code.call(Lib.Free); // ERROR: double free
    Code.movi(Reg::R1, DataBase + 128);
    Code.call(Lib.Free); // ERROR: never allocated
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Invalid free")) << M.Output;
  EXPECT_TRUE(M.has("ERROR SUMMARY: 2 errors from 2 contexts")) << M.Output;
}

TEST(Memcheck, ReallocPreservesDefinedness) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 8);
    Code.call(Lib.Malloc);
    Code.mov(Reg::R6, Reg::R0);
    Code.movi(Reg::R2, 5);
    Code.st(Reg::R6, 0, Reg::R2); // first word defined
    Code.mov(Reg::R1, Reg::R6);
    Code.movi(Reg::R2, 64);
    Code.call(Lib.Realloc);
    Code.mov(Reg::R6, Reg::R0);
    Code.ld(Reg::R3, Reg::R6, 0); // copied word: defined, branch OK
    Code.cmpi(Reg::R3, 5);
    Label L1 = Code.newLabel();
    Code.beq(L1);
    Code.bind(L1);
    Code.ld(Reg::R4, Reg::R6, 32); // fresh tail: undefined
    Code.cmpi(Reg::R4, 0);
    Label L2 = Code.newLabel();
    Code.beq(L2); // ERROR
    Code.bind(L2);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("ERROR SUMMARY: 1 errors")) << M.Output;
}

//===----------------------------------------------------------------------===//
// Leaks
//===----------------------------------------------------------------------===//

TEST(Memcheck, LeakDetected) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 100);
    Code.call(Lib.Malloc);
    Code.movi(Reg::R0, 0); // drop the only pointer
    Code.ret();
  }));
  EXPECT_TRUE(M.has("definitely lost: 100 bytes in 1 blocks")) << M.Output;
}

TEST(Memcheck, ReachableBlockNotLeaked) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &Data,
                                  GuestLibLabels &Lib) {
    Label Global = Data.boundLabel();
    Data.emitZeros(4);
    Code.movi(Reg::R1, 100);
    Code.call(Lib.Malloc);
    Code.movi(Reg::R3, Data.labelAddr(Global));
    Code.st(Reg::R3, 0, Reg::R0); // keep the pointer in a global
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("definitely lost: 0 bytes in 0 blocks")) << M.Output;
}

TEST(Memcheck, LeakCheckCanBeDisabled) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
                    Code.movi(Reg::R1, 100);
                    Code.call(Lib.Malloc);
                    Code.movi(Reg::R0, 0);
                    Code.ret();
                  }),
                  {"--leak-check=no"});
  EXPECT_FALSE(M.has("LEAK SUMMARY"));
  EXPECT_TRUE(M.has("in use at exit: 100 bytes in 1 blocks")) << M.Output;
}

/// Zeroes R0-R13 so no register holds a heap pointer at exit (SP and LR
/// point at the stack and code).
void clearRegs(Assembler &Code) {
  for (unsigned R = 0; R != 14; ++R)
    Code.movi(static_cast<Reg>(R), 0);
}

TEST(Memcheck, BlockReachableThroughHeapChainNotLeaked) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &Data,
                                  GuestLibLabels &Lib) {
    Label Global = Data.boundLabel();
    Data.emitZeros(4);
    Code.movi(Reg::R1, 16);
    Code.call(Lib.Malloc);
    Code.movi(Reg::R3, Data.labelAddr(Global));
    Code.st(Reg::R3, 0, Reg::R0); // global -> A
    Code.mov(Reg::R6, Reg::R0);
    Code.movi(Reg::R1, 100);
    Code.call(Lib.Malloc);
    Code.st(Reg::R6, 0, Reg::R0); // A -> B: B's only pointer
    clearRegs(Code);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("in use at exit: 116 bytes in 2 blocks")) << M.Output;
  EXPECT_TRUE(M.has("definitely lost: 0 bytes in 0 blocks")) << M.Output;
}

TEST(Memcheck, InteriorPointerKeepsBlock) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &Data,
                                  GuestLibLabels &Lib) {
    Label Global = Data.boundLabel();
    Data.emitZeros(4);
    Code.movi(Reg::R1, 100);
    Code.call(Lib.Malloc);
    Code.addi(Reg::R0, Reg::R0, 40);
    Code.movi(Reg::R3, Data.labelAddr(Global));
    Code.st(Reg::R3, 0, Reg::R0); // only an interior pointer survives
    clearRegs(Code);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("definitely lost: 0 bytes in 0 blocks")) << M.Output;
}

TEST(Memcheck, PointerInRegisterAtExitKeepsBlock) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 100);
    Code.call(Lib.Malloc);
    Code.mov(Reg::R9, Reg::R0); // the only copy, in a register
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("definitely lost: 0 bytes in 0 blocks")) << M.Output;
}

TEST(Memcheck, PointerInsideFreedBlockDoesNotKeepTarget) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 16);
    Code.call(Lib.Malloc);
    Code.mov(Reg::R6, Reg::R0); // A
    Code.movi(Reg::R1, 100);
    Code.call(Lib.Malloc);
    Code.st(Reg::R6, 0, Reg::R0); // A -> B
    Code.mov(Reg::R1, Reg::R6);
    Code.call(Lib.Free); // A's words become unaddressable
    clearRegs(Code);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("in use at exit: 100 bytes in 1 blocks")) << M.Output;
  EXPECT_TRUE(M.has("definitely lost: 100 bytes in 1 blocks")) << M.Output;
}

TEST(Memcheck, PointerPastFirstArenaChunkIsScanned) {
  // A 68KB block spans the first two 64KB shadow chunks of the heap arena;
  // B's only pointer sits in A's second chunk, and C (never stored) lies
  // past the first chunk too.
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &Data,
                                  GuestLibLabels &Lib) {
    Label Global = Data.boundLabel();
    Data.emitZeros(4);
    Code.movi(Reg::R1, 0x11000);
    Code.call(Lib.Malloc);
    Code.movi(Reg::R3, Data.labelAddr(Global));
    Code.st(Reg::R3, 0, Reg::R0); // global -> A
    Code.mov(Reg::R6, Reg::R0);
    Code.movi(Reg::R1, 100);
    Code.call(Lib.Malloc);
    Code.movi(Reg::R2, 0x10800);
    Code.add(Reg::R2, Reg::R6, Reg::R2);
    Code.st(Reg::R2, 0, Reg::R0); // A + 66KB -> B
    Code.movi(Reg::R1, 48);
    Code.call(Lib.Malloc); // C: lost
    clearRegs(Code);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("in use at exit: 69780 bytes in 3 blocks")) << M.Output;
  EXPECT_TRUE(M.has("definitely lost: 48 bytes in 1 blocks")) << M.Output;
}

TEST(Memcheck, EveryOtherOfFortyBlocksLost) {
  // Block i has 16 + 4i bytes. The even blocks' start pointers are kept;
  // the odd blocks keep only one-past-the-end pointers, which point into
  // their red zones and must not keep them (nor their neighbours).
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &Data,
                                  GuestLibLabels &Lib) {
    Label Kept = Data.boundLabel();
    Data.emitZeros(20 * 4);
    Label Ends = Data.boundLabel();
    Data.emitZeros(20 * 4);
    Code.movi(Reg::R6, Data.labelAddr(Kept));
    Code.movi(Reg::R8, Data.labelAddr(Ends));
    Code.movi(Reg::R7, 0); // i
    Label Loop = Code.boundLabel();
    Code.add(Reg::R9, Reg::R7, Reg::R7);
    Code.add(Reg::R9, Reg::R9, Reg::R9);
    Code.addi(Reg::R9, Reg::R9, 16); // size = 16 + 4i
    Code.mov(Reg::R1, Reg::R9);
    Code.call(Lib.Malloc);
    Code.andi(Reg::R2, Reg::R7, 1);
    Code.cmpi(Reg::R2, 0);
    Label Odd = Code.newLabel(), Next = Code.newLabel();
    Code.bne(Odd);
    Code.st(Reg::R6, 0, Reg::R0);
    Code.addi(Reg::R6, Reg::R6, 4);
    Code.jmp(Next);
    Code.bind(Odd);
    Code.add(Reg::R3, Reg::R0, Reg::R9);
    Code.st(Reg::R8, 0, Reg::R3);
    Code.addi(Reg::R8, Reg::R8, 4);
    Code.bind(Next);
    Code.addi(Reg::R7, Reg::R7, 1);
    Code.cmpi(Reg::R7, 40);
    Code.blt(Loop);
    clearRegs(Code);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("in use at exit: 3760 bytes in 40 blocks")) << M.Output;
  EXPECT_TRUE(M.has("definitely lost: 1920 bytes in 20 blocks")) << M.Output;
}

/// Memcheck that records the shadow map's secondary-cache lookups just
/// before and just after its exit-time work (heap summary and leak scan).
class FiniCountingMemcheck : public Memcheck {
public:
  uint64_t LookupsBefore = 0, LookupsAfter = 0;
  void fini(int ExitCode) override {
    LookupsBefore = lookups();
    Memcheck::fini(ExitCode);
    LookupsAfter = lookups();
  }

private:
  uint64_t lookups() {
    const ShadowStats &St = shadow().stats();
    return St.SecCacheHits + St.SecCacheMisses;
  }
};

TEST(Memcheck, LeakScanWorkIsBoundedByLiveShadow) {
  // The replacement heap reserves a 64MB arena; the leak scan must not
  // probe the shadow map once per word of it (~16.8M lookups) when only a
  // couple of blocks live there.
  FiniCountingMemcheck T;
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &Lib) {
    Label Global = Data.boundLabel();
    Data.emitZeros(4);
    Code.movi(Reg::R1, 64);
    Code.call(Lib.Malloc);
    Code.movi(Reg::R3, Data.labelAddr(Global));
    Code.st(Reg::R3, 0, Reg::R0);
    Code.movi(Reg::R1, 32);
    Code.call(Lib.Malloc); // lost
    clearRegs(Code);
    Code.ret();
  });
  RunReport R = runUnderCore(Img, &T, {});
  ASSERT_TRUE(R.Completed);
  EXPECT_NE(R.ToolOutput.find("definitely lost: 32 bytes in 1 blocks"),
            std::string::npos)
      << R.ToolOutput;
  EXPECT_LT(T.LookupsAfter - T.LookupsBefore, 65536u);
}

//===----------------------------------------------------------------------===//
// Syscall checking (R4) and client requests
//===----------------------------------------------------------------------===//

TEST(Memcheck, SyscallReadingUninitBufferReported) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    Code.movi(Reg::R1, 24);
    Code.call(Lib.Malloc);
    // write(1, uninit_buf, 8): the wrapper's pre_mem_read fires.
    Code.mov(Reg::R2, Reg::R0);
    Code.movi(Reg::R0, SysWrite);
    Code.movi(Reg::R1, 1);
    Code.movi(Reg::R3, 8);
    Code.sys();
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Syscall parameter write(buf)")) << M.Output;
  EXPECT_TRUE(M.has("uninitialised")) << M.Output;
}

TEST(Memcheck, SyscallUninitArgumentRegister) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -16);
    Code.ld(Reg::R1, Reg::SP, 0); // uninit value...
    Code.movi(Reg::R0, SysNanosleep);
    Code.sys(); // ...passed as a syscall argument register
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("Syscall parameter")) << M.Output;
}

TEST(Memcheck, ClientRequestsManipulateShadowState) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &Data,
                                  GuestLibLabels &) {
    Label Cell = Data.boundLabel();
    Data.emitZeros(16);
    uint32_t CAddr = Data.labelAddr(Cell);
    // Make a defined global undefined, then branch on it: error.
    Code.movi(Reg::R0, McMakeMemUndefined);
    Code.movi(Reg::R1, CAddr);
    Code.movi(Reg::R2, 4);
    Code.clreq();
    // CHECK_MEM_IS_DEFINED reports the first bad address.
    Code.movi(Reg::R0, McCheckMemIsDefined);
    Code.movi(Reg::R1, CAddr);
    Code.movi(Reg::R2, 4);
    Code.clreq();
    Code.movi(Reg::R2, CAddr);
    Code.cmp(Reg::R0, Reg::R2);
    Label Bad = Code.newLabel();
    Code.bne(Bad);
    // Re-define it; check passes (returns 0).
    Code.movi(Reg::R0, McMakeMemDefined);
    Code.movi(Reg::R1, CAddr);
    Code.movi(Reg::R2, 4);
    Code.clreq();
    Code.movi(Reg::R0, McCheckMemIsDefined);
    Code.movi(Reg::R1, CAddr);
    Code.movi(Reg::R2, 4);
    Code.clreq();
    Code.ret(); // r0 == 0 on success
    Code.bind(Bad);
    Code.movi(Reg::R0, 1);
    Code.ret();
  }));
  EXPECT_TRUE(M.R.Completed);
  EXPECT_EQ(M.R.ExitCode, 0) << M.Output;
}

//===----------------------------------------------------------------------===//
// JIT-inlined shadow fast path
//===----------------------------------------------------------------------===//

TEST(Memcheck, InlineFastPathServicesAlignedWordTraffic) {
  // A loop of aligned, defined 4-byte loads and stores: the SHPROBE fast
  // path should absorb almost all of the shadow traffic, with identical
  // results (no errors, correct data flow).
  Memcheck T;
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label Buf = Data.boundLabel();
    Data.emitZeros(64); // defined data
    Code.movi(Reg::R6, Data.labelAddr(Buf));
    Code.movi(Reg::R7, 0); // i
    Code.movi(Reg::R8, 0); // sum
    Label Loop = Code.boundLabel();
    Code.ld(Reg::R1, Reg::R6, 0);       // aligned defined load
    Code.add(Reg::R8, Reg::R8, Reg::R1);
    Code.addi(Reg::R1, Reg::R1, 1);
    Code.st(Reg::R6, 0, Reg::R1);       // aligned defined store
    Code.addi(Reg::R7, Reg::R7, 1);
    Code.cmpi(Reg::R7, 100);
    Code.blt(Loop);
    // sum = 0+1+...+99 = 4950; exit 0 if correct.
    Code.cmpi(Reg::R8, 4950);
    Label Ok = Code.newLabel();
    Code.beq(Ok);
    Code.movi(Reg::R0, 1);
    Code.ret();
    Code.bind(Ok);
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  RunReport R = runUnderCore(Img, &T, {});
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 0) << R.ToolOutput;
  EXPECT_NE(R.ToolOutput.find("ERROR SUMMARY: 0 errors"), std::string::npos)
      << R.ToolOutput;
  const ShadowStats &St = T.shadow().stats();
  EXPECT_GE(St.FastLoads, 100u) << "probe loads did not take the fast path";
  EXPECT_GE(St.FastStores, 100u) << "probe stores did not take the fast path";
}

TEST(Memcheck, FastPathDoesNotSwallowUndefinedLoads) {
  // The probe must punt on partially/fully undefined words so the helper
  // still returns exact V-bits and the eventual use still errors.
  Memcheck T;
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -16);
    Code.ld(Reg::R1, Reg::SP, 0); // aligned but undefined: probe punts
    Code.cmpi(Reg::R1, 0);
    Label L = Code.newLabel();
    Code.beq(L); // ERROR: branch on uninit
    Code.bind(L);
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  RunReport R = runUnderCore(Img, &T, {});
  EXPECT_TRUE(R.Completed);
  EXPECT_NE(R.ToolOutput.find("Conditional jump or move"), std::string::npos)
      << R.ToolOutput;
  EXPECT_GE(T.shadow().stats().SlowLoads, 1u);
}

//===----------------------------------------------------------------------===//
// Error management
//===----------------------------------------------------------------------===//

TEST(Memcheck, RepeatedErrorsDeduplicated) {
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -16);
    Code.movi(Reg::R6, 0);
    Label Loop = Code.boundLabel();
    Code.ld(Reg::R1, Reg::SP, 0);
    Code.cmpi(Reg::R1, 0); // same uninit branch, 50 times
    Label L = Code.newLabel();
    Code.beq(L);
    Code.bind(L);
    Code.addi(Reg::R6, Reg::R6, 1);
    Code.cmpi(Reg::R6, 50);
    Code.blt(Loop);
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.has("ERROR SUMMARY: 50 errors from 1 contexts")) << M.Output;
}

TEST(Memcheck, SuppressionsSilenceErrors) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Code.addi(Reg::SP, Reg::SP, -16);
    Code.ld(Reg::R1, Reg::SP, 0);
    Code.cmpi(Reg::R1, 0);
    Label L = Code.newLabel();
    Code.beq(L);
    Code.bind(L);
    Code.addi(Reg::SP, Reg::SP, 16);
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  McRun M = runMc(Img, {"--suppressions=UninitCondition"});
  EXPECT_TRUE(M.has("ERROR SUMMARY: 0 errors from 0 contexts (suppressed: 1)"))
      << M.Output;
}

TEST(Memcheck, CleanHeapProgramFullyClean) {
  // A real little program: build a linked list, walk it, free it.
  McRun M = runMc(buildProgram([](Assembler &Code, Assembler &,
                                  GuestLibLabels &Lib) {
    // list head in r6; nodes: [value][next]
    Code.movi(Reg::R6, 0);
    Code.movi(Reg::R7, 0); // i
    Label Build = Code.boundLabel();
    Code.movi(Reg::R1, 8);
    Code.call(Lib.Malloc);
    Code.st(Reg::R0, 0, Reg::R7); // value = i
    Code.st(Reg::R0, 4, Reg::R6); // next = head
    Code.mov(Reg::R6, Reg::R0);
    Code.addi(Reg::R7, Reg::R7, 1);
    Code.cmpi(Reg::R7, 20);
    Code.blt(Build);
    // sum values
    Code.movi(Reg::R8, 0);
    Code.mov(Reg::R2, Reg::R6);
    Label Walk = Code.boundLabel();
    Code.cmpi(Reg::R2, 0);
    Label DoneWalk = Code.newLabel();
    Code.beq(DoneWalk);
    Code.ld(Reg::R3, Reg::R2, 0);
    Code.add(Reg::R8, Reg::R8, Reg::R3);
    Code.ld(Reg::R2, Reg::R2, 4);
    Code.jmp(Walk);
    Code.bind(DoneWalk);
    // free all
    Label FreeLoop = Code.boundLabel();
    Code.cmpi(Reg::R6, 0);
    Label DoneFree = Code.newLabel();
    Code.beq(DoneFree);
    Code.ld(Reg::R7, Reg::R6, 4); // next
    Code.mov(Reg::R1, Reg::R6);
    Code.call(Lib.Free);
    Code.mov(Reg::R6, Reg::R7);
    Code.jmp(FreeLoop);
    Code.bind(DoneFree);
    Code.cmpi(Reg::R8, 190); // sum 0..19
    Label Ok = Code.newLabel();
    Code.beq(Ok);
    Code.movi(Reg::R0, 1);
    Code.ret();
    Code.bind(Ok);
    Code.movi(Reg::R0, 0);
    Code.ret();
  }));
  EXPECT_TRUE(M.R.Completed);
  EXPECT_EQ(M.R.ExitCode, 0);
  EXPECT_TRUE(M.has("ERROR SUMMARY: 0 errors")) << M.Output;
  EXPECT_TRUE(M.has("in use at exit: 0 bytes in 0 blocks")) << M.Output;
}

} // namespace
