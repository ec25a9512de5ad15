//===-- tests/ClientRequestTests.cpp - Client-request surface tests -------==//
///
/// \file
/// The tool plug-in surface opened by the engine split: namespaced client
/// requests (tagged encoding + legacy-code compatibility), unknown-request
/// accounting, RefInterp-vs-JIT agreement, function wrapping ordering, the
/// Loopgrind tool end to end (golden report), and client requests hammered
/// from four guest threads under the sharded scheduler.
///
/// Regenerate the Loopgrind golden after an intentional report change:
///
///   UPDATE_GOLDENS=1 ./build/tests/test_clientrequest
///
//===----------------------------------------------------------------------===//

#include "core/ClientRequests.h"
#include "core/Launcher.h"
#include "guestlib/GuestLib.h"
#include "kernel/SimKernel.h"
#include "tools/Loopgrind.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "tools/TaintGrind.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

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
  return GuestImageBuilder()
      .addCode(Code)
      .addData(Data)
      .entry(Entry)
      .build();
}

//===----------------------------------------------------------------------===//
// Encoding: (tag << 16) | code, with the legacy flat space still accepted
//===----------------------------------------------------------------------===//

// The canonical values are ABI: guest binaries embed them as immediates.
static_assert(CrCoreTag == 0x4352u, "'C','R'");
static_assert(CrDiscardTranslations == 0x43520001u);
static_assert(CrStackRegister == 0x43520002u);
static_assert(CrPrint == 0x43520005u);
static_assert(CrRunningOnValgrind == 0x43520006u);
static_assert(CrMalloc == 0x43520101u);
static_assert(CrRealloc == 0x43520104u);
static_assert(McTag == 0x4D43u, "'M','C'");
static_assert(McMakeMemDefined == 0x4D430001u);
static_assert(McCountErrors == 0x4D430006u);
static_assert(TgTag == 0x5447u, "'T','G'");
static_assert(TgTaint == 0x54470001u);
static_assert(LgTag == 0x4C47u, "'L','G'");
static_assert(LgStart == 0x4C470001u);
static_assert(vgRequestTag(McMakeMemDefined) == McTag);
static_assert(vgRequestTag(CrLegacyPrint) == 0, "legacy codes are untagged");

// Normalisation: every legacy core/allocator code maps to its canonical
// equivalent; everything else passes through untouched.
static_assert(vgNormalizeRequest(CrLegacyDiscardTranslations) ==
              CrDiscardTranslations);
static_assert(vgNormalizeRequest(CrLegacyStackRegister) == CrStackRegister);
static_assert(vgNormalizeRequest(CrLegacyStackDeregister) ==
              CrStackDeregister);
static_assert(vgNormalizeRequest(CrLegacyStackChange) == CrStackChange);
static_assert(vgNormalizeRequest(CrLegacyPrint) == CrPrint);
static_assert(vgNormalizeRequest(CrLegacyRunningOnValgrind) ==
              CrRunningOnValgrind);
static_assert(vgNormalizeRequest(CrLegacyMalloc) == CrMalloc);
static_assert(vgNormalizeRequest(CrLegacyFree) == CrFree);
static_assert(vgNormalizeRequest(CrLegacyCalloc) == CrCalloc);
static_assert(vgNormalizeRequest(CrLegacyRealloc) == CrRealloc);
static_assert(vgNormalizeRequest(CrRunningOnValgrind) ==
              CrRunningOnValgrind);
static_assert(vgNormalizeRequest(McMakeMemDefined) == McMakeMemDefined);
static_assert(vgNormalizeRequest(0) == 0);
static_assert(vgNormalizeRequest(0x5A5A1234u) == 0x5A5A1234u);

// Tool legacy aliases keep their historical flat values.
static_assert(McLegacyMakeMemDefined == CrToolBase + 1);
static_assert(TgLegacyTaint == CrToolBase + 0x100);

TEST(Encoding, TagBuilderMatchesHandRolledValues) {
  EXPECT_EQ(vgToolTag('Z', 'Z'), 0x5A5Au);
  EXPECT_EQ(vgRequest(vgToolTag('Z', 'Z'), 0x42), 0x5A5A0042u);
  EXPECT_EQ(vgRequestTag(vgRequest(vgToolTag('Z', 'Z'), 0x42)), 0x5A5Au);
}

//===----------------------------------------------------------------------===//
// Core requests: legacy and canonical encodings agree end to end
//===----------------------------------------------------------------------===//

TEST(CoreRequests, LegacyAndCanonicalRunningOnValgrindBothAnswerOne) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    emitClientRequest(Code, CrRunningOnValgrind);
    Code.mov(Reg::R6, Reg::R0);
    emitClientRequest(Code, CrLegacyRunningOnValgrind);
    Code.add(Reg::R0, Reg::R0, Reg::R6); // canonical + legacy == 2
    Code.ret();
  });
  Nulgrind T;
  RunReport R = runUnderCore(Img, &T);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 2);
}

TEST(CoreRequests, LegacyAllocatorCodesStillReachTheReplacementHeap) {
  // malloc(64) then free through the legacy flat codes; a heap-tracking
  // tool must see the block come and go with no error.
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Code.movi(Reg::R0, CrLegacyMalloc);
    Code.movi(Reg::R1, 64);
    Code.clreq();
    Code.mov(Reg::R6, Reg::R0);
    Code.cmpi(Reg::R6, 0);
    Label Fail = Code.newLabel();
    Code.beq(Fail);
    Code.movi(Reg::R0, CrLegacyFree);
    Code.mov(Reg::R1, Reg::R6);
    Code.clreq();
    Code.movi(Reg::R0, 0);
    Code.ret();
    Code.bind(Fail);
    Code.movi(Reg::R0, 1);
    Code.ret();
  });
  Memcheck T;
  RunReport R = runUnderCore(Img, &T, {"--leak-check=no"});
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(T.uniqueErrors(), 0u);
}

TEST(CoreRequests, UnknownTagReturnsZeroAndIsCounted) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    // Two unclaimed 'Z','Z' requests plus the all-zero code: every one
    // must come back 0 (exit code accumulates any nonzero result).
    emitClientRequest(Code, vgRequest(vgToolTag('Z', 'Z'), 1), 7, 8, 9, 10);
    Code.mov(Reg::R6, Reg::R0);
    emitClientRequest(Code, vgRequest(vgToolTag('Z', 'Z'), 0xFFFF));
    Code.add(Reg::R6, Reg::R6, Reg::R0);
    emitClientRequest(Code, 0);
    Code.add(Reg::R0, Reg::R6, Reg::R0);
    Code.ret();
  });
  Nulgrind T;
  Core C(&T);
  C.output().useBuffer();
  C.applyOptions();
  C.loadImage(Img);
  CoreExit E = C.run(~0ull);
  EXPECT_EQ(E.K, CoreExit::Kind::Exited);
  EXPECT_EQ(E.Code, 0);
  EXPECT_EQ(C.clientRequests().unknownRequests(), 3u);
}

TEST(CoreRequests, RefInterpAndJitAgreeOnRequestResults) {
  // The same request-bearing program through the oracle and the JIT at
  // several tier configurations: every guest-visible observation must
  // match (CLREQ is a native no-op returning 0, and these codes return 0
  // under the core too).
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &Lib) {
    Label Msg = Data.boundLabel();
    Data.emitString("creq\n");
    Code.movi(Reg::R6, 0); // result accumulator
    Code.movi(Reg::R7, 0); // loop counter
    Label Loop = Code.boundLabel();
    emitClientRequest(Code, vgRequest(vgToolTag('Z', 'Z'), 3), 1, 2, 3, 4);
    Code.add(Reg::R6, Reg::R6, Reg::R0);
    emitClientRequest(Code, 0);
    Code.add(Reg::R6, Reg::R6, Reg::R0);
    Code.addi(Reg::R7, Reg::R7, 1);
    Code.cmpi(Reg::R7, 30); // enough laps to cross the hot threshold
    Code.blt(Loop);
    Code.movi(Reg::R1, Data.labelAddr(Msg));
    Code.call(Lib.Print);
    Code.mov(Reg::R0, Reg::R6);
    Code.ret();
  });
  RunReport Oracle = runNative(Img);
  ASSERT_TRUE(Oracle.Completed);
  ASSERT_EQ(Oracle.ExitCode, 0);
  const std::vector<std::vector<std::string>> Configs = {
      {},
      {"--no-iropt"},
      {"--chaining=yes"},
      {"--chaining=yes", "--hot-threshold=2", "--trace-tier=yes"},
  };
  for (const auto &Opts : Configs) {
    Nulgrind T;
    RunReport R = runUnderCore(Img, &T, Opts);
    ASSERT_TRUE(R.Completed);
    EXPECT_EQ(R.ExitCode, Oracle.ExitCode);
    EXPECT_EQ(R.Stdout, Oracle.Stdout);
  }
}

//===----------------------------------------------------------------------===//
// Function wrapping: Pre -> original -> Post, result rewriting
//===----------------------------------------------------------------------===//

TEST(Wrap, PreOriginalPostOrderWithResultRewrite) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Label Victim = Code.newLabel();
    Code.movi(Reg::R1, 5);
    Code.call(Victim);
    Code.ret(); // main returns the (wrapped) victim's result
    Code.bind(Victim);
    Code.symbol("victim");
    Code.addi(Reg::R0, Reg::R1, 100); // original: arg + 100
    Code.ret();
  });
  std::vector<std::string> Order;
  uint32_t PreArg = 0, PostResult = 0;
  WrapHooks H;
  H.Pre = [&](Core &, ThreadState &TS) {
    Order.push_back("pre");
    PreArg = TS.gpr(1);
  };
  H.Post = [&](Core &, ThreadState &, uint32_t &Result) {
    Order.push_back("post");
    PostResult = Result; // the original's untouched result
    Result += 1000;      // rewrite what the caller sees
  };
  // The same run under the serial scheduler and under two shards: the
  // original's blocks, run through callGuest, count towards
  // BlocksDispatched either way.
  std::vector<uint64_t> Blocks;
  for (const char *Sched : {"--sched-threads=1", "--sched-threads=2"}) {
    Order.clear();
    Nulgrind T;
    RunReport R = runUnderCoreWith(Img, &T, {Sched}, "", ~0ull, [&](Core &C) {
      C.wrapSymbolFunction("victim", H);
    });
    ASSERT_TRUE(R.Completed) << Sched;
    ASSERT_EQ(Order, (std::vector<std::string>{"pre", "post"})) << Sched;
    EXPECT_EQ(PreArg, 5u);
    EXPECT_EQ(PostResult, 105u); // the original really ran between the hooks
    EXPECT_EQ(R.ExitCode, 1105); // and the caller saw the rewritten result
    Blocks.push_back(R.Stats.BlocksDispatched);
  }
  EXPECT_EQ(Blocks[1], Blocks[0]);
}

// A wrapped original that yields must still run to its return: the
// nested dispatch callGuest starts ends at the return sentinel, not at the
// yield, and Post sees the original's real result. The yield still ends
// the caller's quantum once the wrapper returns.
TEST(Wrap, OriginalThatYieldsRunsToItsReturn) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Label Victim = Code.newLabel();
    Code.movi(Reg::R1, 5);
    Code.call(Victim);
    Code.ret(); // main returns the victim's result
    Code.bind(Victim);
    Code.symbol("victim");
    Code.mov(Reg::R6, Reg::R1);
    Code.movi(Reg::R0, SysYield);
    Code.sys();
    Code.addi(Reg::R0, Reg::R6, 100); // original: arg + 100, after a yield
    Code.ret();
  });
  for (const char *Sched : {"--sched-threads=1", "--sched-threads=2"}) {
    uint32_t PostResult = 0;
    WrapHooks H;
    H.Post = [&](Core &, ThreadState &, uint32_t &Result) {
      PostResult = Result;
    };
    Nulgrind T;
    RunReport R = runUnderCoreWith(Img, &T, {Sched}, "", ~0ull, [&](Core &C) {
      C.wrapSymbolFunction("victim", H);
    });
    ASSERT_TRUE(R.Completed) << Sched;
    EXPECT_EQ(PostResult, 105u) << Sched;
    EXPECT_EQ(R.ExitCode, 105) << Sched;
  }
}

TEST(Wrap, WrapFunctionByAddressFiresOnEveryCall) {
  // Two calls through the wrapper: the one-shot bypass must re-arm per
  // call, so both calls run Pre -> original -> Post.
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Label Victim = Code.newLabel();
    Code.movi(Reg::R1, 3);
    Code.call(Victim);
    Code.mov(Reg::R6, Reg::R0);
    Code.movi(Reg::R1, 4);
    Code.call(Victim);
    Code.add(Reg::R0, Reg::R0, Reg::R6);
    Code.ret();
    Code.bind(Victim);
    Code.symbol("victim");
    Code.shli(Reg::R0, Reg::R1, 1); // original: arg * 2
    Code.ret();
  });
  Nulgrind T;
  uint32_t VictimAddr = Img.symbol("victim");
  ASSERT_NE(VictimAddr, 0u);
  int PreCount = 0, PostCount = 0;
  WrapHooks H;
  H.Pre = [&](Core &, ThreadState &) { ++PreCount; };
  H.Post = [&](Core &, ThreadState &, uint32_t &Result) {
    ++PostCount;
    Result += 1; // 3*2+1 and 4*2+1
  };
  RunReport R = runUnderCoreWith(Img, &T, {}, "", ~0ull, [&](Core &C) {
    C.wrapFunction(VictimAddr, H);
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(PreCount, 2);
  EXPECT_EQ(PostCount, 2);
  EXPECT_EQ(R.ExitCode, 16); // (3*2+1) + (4*2+1)
}

TEST(Wrap, PreOnlyWrapObservesWithoutChangingBehaviour) {
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &,
                                   GuestLibLabels &) {
    Label Victim = Code.newLabel();
    Code.movi(Reg::R1, 9);
    Code.call(Victim);
    Code.ret();
    Code.bind(Victim);
    Code.symbol("victim");
    Code.addi(Reg::R0, Reg::R1, 1);
    Code.ret();
  });
  Nulgrind T;
  uint32_t Seen = 0;
  WrapHooks H;
  H.Pre = [&](Core &, ThreadState &TS) { Seen = TS.gpr(1); };
  RunReport R = runUnderCoreWith(Img, &T, {}, "", ~0ull, [&](Core &C) {
    C.wrapSymbolFunction("victim", H);
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(Seen, 9u);
  EXPECT_EQ(R.ExitCode, 10); // behaviour unchanged
}

//===----------------------------------------------------------------------===//
// Loopgrind end to end
//===----------------------------------------------------------------------===//

#ifndef VG_TEST_GOLDEN_DIR
#error "VG_TEST_GOLDEN_DIR must point at tests/goldens"
#endif

void checkGolden(const std::string &Name, const std::string &Actual) {
  std::string Path = std::string(VG_TEST_GOLDEN_DIR) + "/" + Name + ".txt";
  if (std::getenv("UPDATE_GOLDENS")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In) << "missing golden " << Path
                  << " (run with UPDATE_GOLDENS=1 to create)";
  std::ostringstream SS;
  SS << In.rdbuf();
  EXPECT_EQ(SS.str(), Actual)
      << "(UPDATE_GOLDENS=1 regenerates " << Path << ")";
}

TEST(Loopgrind, GoldenReportForNestedLoops) {
  // Two loops with known shapes: an inner loop of 8 trips entered 3 times
  // by an outer loop of 3 trips, and LG_ANNOTATE labelling the inner head.
  // The whole run is deterministic, so the report is pinned as a golden.
  GuestImage Img = buildProgram([](Assembler &Code, Assembler &Data,
                                   GuestLibLabels &) {
    Label Name = Data.boundLabel();
    Data.emitString("inner-loop");
    Code.movi(Reg::R6, 0); // outer counter
    Label Outer = Code.boundLabel();
    Code.movi(Reg::R7, 0); // inner counter
    Label Inner = Code.boundLabel();
    Code.addi(Reg::R7, Reg::R7, 1);
    Code.cmpi(Reg::R7, 8);
    Code.blt(Inner);
    Code.addi(Reg::R6, Reg::R6, 1);
    Code.cmpi(Reg::R6, 3);
    Code.blt(Outer);
    // Annotate the inner head now that the label is bound.
    emitClientRequest(Code, LgAnnotate, Code.labelAddr(Inner),
                      Data.labelAddr(Name));
    Code.movi(Reg::R0, 0);
    Code.ret();
  });
  Loopgrind T;
  RunReport R = runUnderCore(Img, &T, {"--chaining=yes"});
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_GT(T.backEdges(), 0u);
  checkGolden("loopgrind_nested", R.ToolOutput);
}

TEST(Loopgrind, StartStopGateCollection) {
  // The same loop runs twice, but collection is off for the first pass:
  // only the second pass's iterations may be counted.
  auto build = [](bool StopFirst) {
    return buildProgram([StopFirst](Assembler &Code, Assembler &,
                                    GuestLibLabels &) {
      if (StopFirst)
        emitClientRequest(Code, LgStop);
      Code.movi(Reg::R7, 0);
      Label L1 = Code.boundLabel();
      Code.addi(Reg::R7, Reg::R7, 1);
      Code.cmpi(Reg::R7, 50);
      Code.blt(L1);
      emitClientRequest(Code, LgStart);
      Code.movi(Reg::R7, 0);
      Label L2 = Code.boundLabel();
      Code.addi(Reg::R7, Reg::R7, 1);
      Code.cmpi(Reg::R7, 50);
      Code.blt(L2);
      Code.movi(Reg::R0, 0);
      Code.ret();
    });
  };
  Loopgrind Gated;
  RunReport R1 = runUnderCore(build(true), &Gated);
  ASSERT_TRUE(R1.Completed);
  Loopgrind Free;
  RunReport R2 = runUnderCore(build(false), &Free);
  ASSERT_TRUE(R2.Completed);
  EXPECT_LT(Gated.backEdges(), Free.backEdges());
  EXPECT_GT(Gated.backEdges(), 0u);
}

//===----------------------------------------------------------------------===//
// Client requests from four concurrent guest threads (sharded scheduler)
//===----------------------------------------------------------------------===//

TEST(MtClientRequests, FourThreadsHammerRequestsUnderShardedScheduler) {
  // Four cloned threads each issue a mix of canonical, legacy, and
  // unknown-tag requests in a loop; every request takes the world lock
  // exactly like a syscall, so results must be correct under --sched-
  // threads=4 and the run must be TSan-clean (this test carries the
  // concurrency label). Each thread accumulates wrong answers into an
  // error word; main sums them into the exit code.
  constexpr int NThreads = 4;
  constexpr uint32_t DoneBase = DataBase;     // 4 done flags
  constexpr uint32_t ErrBase = DataBase + 16; // 4 error words
  GuestImage Img = buildProgram([&](Assembler &Code, Assembler &Data,
                                    GuestLibLabels &) {
    Data.emitZeros(32);
    Label Worker = Code.newLabel();
    // Spawn the workers.
    for (int I = 0; I != NThreads; ++I) {
      Code.movi(Reg::R0, SysMmap);
      Code.movi(Reg::R1, 0);
      Code.movi(Reg::R2, 65536);
      Code.movi(Reg::R3, 3);
      Code.movi(Reg::R4, 0);
      Code.sys();
      Code.addi(Reg::R2, Reg::R0, 65536);
      Code.movi(Reg::R0, SysClone);
      Code.leai(Reg::R1, Worker);
      Code.movi(Reg::R3, I);
      Code.sys();
    }
    // Wait for all done flags.
    Label Wait = Code.boundLabel();
    Code.movi(Reg::R0, SysYield);
    Code.sys();
    Code.movi(Reg::R6, 0);
    for (int I = 0; I != NThreads; ++I) {
      Code.movi(Reg::R3, DoneBase + 4 * I);
      Code.ld(Reg::R4, Reg::R3, 0);
      Code.add(Reg::R6, Reg::R6, Reg::R4);
    }
    Code.cmpi(Reg::R6, NThreads);
    Code.blt(Wait);
    // Sum the error words into the exit code.
    Code.movi(Reg::R6, 0);
    for (int I = 0; I != NThreads; ++I) {
      Code.movi(Reg::R3, ErrBase + 4 * I);
      Code.ld(Reg::R4, Reg::R3, 0);
      Code.add(Reg::R6, Reg::R6, Reg::R4);
    }
    Code.mov(Reg::R0, Reg::R6);
    Code.ret();
    // Worker (arg in r1 = index): 200 laps of three requests.
    Code.bind(Worker);
    Code.mov(Reg::R6, Reg::R1);
    Code.movi(Reg::R7, 0); // errors
    Code.movi(Reg::R8, 0); // laps
    Label Loop = Code.boundLabel();
    Code.movi(Reg::R0, CrRunningOnValgrind);
    Code.clreq();
    Code.cmpi(Reg::R0, 1);
    Label Ok1 = Code.newLabel();
    Code.beq(Ok1);
    Code.addi(Reg::R7, Reg::R7, 1);
    Code.bind(Ok1);
    Code.movi(Reg::R0, CrLegacyRunningOnValgrind);
    Code.clreq();
    Code.cmpi(Reg::R0, 1);
    Label Ok2 = Code.newLabel();
    Code.beq(Ok2);
    Code.addi(Reg::R7, Reg::R7, 1);
    Code.bind(Ok2);
    Code.movi(Reg::R0, vgRequest(vgToolTag('Z', 'Z'), 9));
    Code.clreq();
    Code.cmpi(Reg::R0, 0);
    Label Ok3 = Code.newLabel();
    Code.beq(Ok3);
    Code.addi(Reg::R7, Reg::R7, 1);
    Code.bind(Ok3);
    Code.addi(Reg::R8, Reg::R8, 1);
    Code.cmpi(Reg::R8, 200);
    Code.blt(Loop);
    // err[i] = r7; done[i] = 1; exit_thread.
    Code.shli(Reg::R4, Reg::R6, 2);
    Code.movi(Reg::R3, ErrBase);
    Code.add(Reg::R3, Reg::R3, Reg::R4);
    Code.st(Reg::R3, 0, Reg::R7);
    Code.movi(Reg::R3, DoneBase);
    Code.add(Reg::R3, Reg::R3, Reg::R4);
    Code.movi(Reg::R5, 1);
    Code.st(Reg::R3, 0, Reg::R5);
    Code.movi(Reg::R0, SysExitThread);
    Code.movi(Reg::R1, 0);
    Code.sys();
  });
  Nulgrind T;
  RunReport R = runUnderCore(Img, &T, {"--sched-threads=4"});
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.ExitCode, 0) << "a request returned a wrong result under MT";
}

} // namespace
