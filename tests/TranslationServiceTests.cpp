//===-- tests/TranslationServiceTests.cpp - Tiered translation tests ------==//
///
/// \file
/// Tests for the TranslationService: the synchronous pipeline (cold
/// blocks, hot superblocks, traces), hot promotions served from the
/// persistent cache, the end-to-end determinism of a tiered run under a
/// full Core, and the trace-tier accounting identity.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "core/TranslationService.h"
#include "guestlib/GuestLib.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include <unistd.h>

using namespace vg;
using namespace vg::vg1;

namespace {

//===----------------------------------------------------------------------===//
// Service-level harness: a stub host and a bank of tiny guest blocks
//===----------------------------------------------------------------------===//

constexpr uint32_t CodeBase = 0x1000;

/// Minimal host: counts the callbacks.
struct StubHost : TranslationHost {
  bool MarkCacheable = false; ///< mimic the Core's no-SMC-prelude decision
  unsigned Notes = 0;
  unsigned Installs = 0;
  Translation *LastInstalled = nullptr;

  void setupTranslation(TranslationOptions &, uint32_t, bool,
                        Translation *Raw) override {
    Raw->Cacheable = MarkCacheable;
  }
  void noteTranslation(uint32_t, const Translation &, double) override {
    ++Notes;
  }
  void traceInstalled(Translation *T, uint64_t) override {
    ++Installs;
    LastInstalled = T;
  }
};

/// GuestMemory pre-loaded with \p NBlocks independent blocks
/// ("movi r0, i; ret"), each a complete translation unit.
struct ServiceFixture {
  GuestMemory Mem;
  StubHost Host;
  TranslationService XS;
  std::vector<uint32_t> Blocks;

  explicit ServiceFixture(unsigned NBlocks = 8, size_t TTCap = 1u << 8)
      : XS(Host, Mem, TTCap) {
    Assembler Code(CodeBase);
    for (unsigned I = 0; I != NBlocks; ++I) {
      Blocks.push_back(Code.here());
      Code.movi(Reg::R0, I);
      Code.ret();
    }
    GuestImage Img = GuestImageBuilder().addCode(Code).entry(CodeBase).build();
    for (const ImageSegment &S : Img.Segments) {
      Mem.map(S.Base, static_cast<uint32_t>(S.Bytes.size()), S.Perms);
      Mem.write(S.Base, S.Bytes.data(), static_cast<uint32_t>(S.Bytes.size()),
                /*IgnorePerms=*/true);
    }
  }
};

//===----------------------------------------------------------------------===//
// The synchronous pipeline
//===----------------------------------------------------------------------===//

TEST(TranslationService, SyncTranslateInsertsAndAccounts) {
  ServiceFixture F;
  Translation *T = F.XS.translateSync(F.Blocks[0], /*Hot=*/false);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(F.XS.transTab().find(F.Blocks[0]), T);
  EXPECT_EQ(T->Tier, 0u);
  EXPECT_EQ(F.Host.Notes, 1u);

  // A hot retranslation replaces the cold block in place.
  Translation *T2 = F.XS.translateSync(F.Blocks[0], /*Hot=*/true);
  EXPECT_EQ(F.XS.transTab().find(F.Blocks[0]), T2);
  EXPECT_EQ(T2->Tier, 1u);
  EXPECT_EQ(F.Host.Notes, 2u);
  EXPECT_EQ(F.Host.Installs, 0u); // the trace hook is for traces only
}

//===----------------------------------------------------------------------===//
// Traces (tier 2)
//===----------------------------------------------------------------------===//

/// Two superblocks that chain A -> B (A ends at a BCC whose fall-through
/// is B), so a TraceSpec{A, B} is a real stitchable path.
struct TraceFixture {
  GuestMemory Mem;
  StubHost Host;
  TranslationService XS;
  uint32_t A = 0, B = 0;
  TraceSpec Spec;

  TraceFixture() : XS(Host, Mem, 1u << 8) {
    Assembler Code(CodeBase);
    Label Done = Code.newLabel();
    A = Code.here();
    Code.cmpi(Reg::R1, 0);
    Code.beq(Done); // unlikely side exit; superblock A ends here
    B = Code.here();
    Code.addi(Reg::R0, Reg::R0, 1);
    Code.ret();
    Code.bind(Done);
    Code.ret();
    GuestImage Img = GuestImageBuilder().addCode(Code).entry(CodeBase).build();
    for (const ImageSegment &S : Img.Segments) {
      Mem.map(S.Base, static_cast<uint32_t>(S.Bytes.size()), S.Perms);
      Mem.write(S.Base, S.Bytes.data(), static_cast<uint32_t>(S.Bytes.size()),
                /*IgnorePerms=*/true);
    }
    Spec.Entries = {A, B};
  }
};

// translateTrace installs the stitched trace over the head immediately,
// tells the host, and leaves the tail constituent resident for side exits.
TEST(TranslationService, SyncTranslateTraceInstallsImmediately) {
  TraceFixture F;
  F.XS.translateSync(F.A, /*Hot=*/true);
  F.XS.translateSync(F.B, /*Hot=*/true);
  Translation *Tr = F.XS.translateTrace(F.Spec);
  ASSERT_NE(Tr, nullptr);
  EXPECT_EQ(Tr->Tier, 2u);
  EXPECT_EQ(Tr->TraceEntries, (std::vector<uint32_t>{F.A, F.B}));
  EXPECT_EQ(F.XS.transTab().find(F.A), Tr);
  EXPECT_EQ(F.Host.Installs, 1u);
  EXPECT_EQ(F.Host.LastInstalled, Tr);
  ASSERT_NE(F.XS.transTab().find(F.B), nullptr);
  EXPECT_EQ(F.XS.transTab().find(F.B)->Tier, 1u);
  EXPECT_EQ(F.XS.jitStats().TraceRequests, 1u);
  EXPECT_EQ(F.XS.jitStats().TraceInstalled, 1u);
  EXPECT_EQ(F.XS.jitStats().TraceAborts, 0u);
}

//===----------------------------------------------------------------------===//
// End to end under a full Core
//===----------------------------------------------------------------------===//

constexpr uint32_t ProgCodeBase = 0x1000;
constexpr uint32_t ProgDataBase = 0x100000;

GuestImage loopProgram() {
  Assembler Code(ProgCodeBase);
  Assembler Data(ProgDataBase);
  GuestLibLabels Lib = emitGuestLib(Code, Data);
  Label Main = Code.newLabel();
  uint32_t Entry = emitStart(Code, Main);
  Code.bind(Main);
  Code.symbol("main");
  Label Str = Data.boundLabel();
  Data.emitString("done\n");
  // Nested loops: the inner body and the outer body both cross any small
  // hot threshold, producing several hot promotions.
  Code.movi(Reg::R1, 0);
  Label Outer = Code.boundLabel();
  Code.movi(Reg::R2, 0);
  Label Inner = Code.boundLabel();
  Code.addi(Reg::R2, Reg::R2, 1);
  Code.cmpi(Reg::R2, 50);
  Code.blt(Inner);
  Code.addi(Reg::R1, Reg::R1, 1);
  Code.cmpi(Reg::R1, 400);
  Code.blt(Outer);
  Code.movi(Reg::R1, Data.labelAddr(Str));
  Code.call(Lib.Print);
  Code.movi(Reg::R0, 5);
  Code.ret();
  return GuestImageBuilder()
      .addCode(Code)
      .addData(Data)
      .entry(Entry)
      .build();
}

std::string extractTrace(const std::string &Output) {
  size_t Begin = Output.find("=== event trace");
  if (Begin == std::string::npos)
    return "";
  const char *EndMark = "=== end event trace ===";
  size_t End = Output.find(EndMark, Begin);
  if (End == std::string::npos)
    return "";
  return Output.substr(Begin, End + std::string(EndMark).size() - Begin);
}

// A tiered run must stay byte-identical run after run: same stdout, same
// recorded event trace.
TEST(TranslationService, TieredRunIsDeterministic) {
  GuestImage Img = loopProgram();
  std::vector<std::string> Opts = {"--chaining=yes", "--hot-threshold=3",
                                   "--trace-events=yes", "--trace-dump=yes"};

  Nulgrind T1, T2;
  RunReport A = runUnderCore(Img, &T1, Opts);
  RunReport B = runUnderCore(Img, &T2, Opts);
  ASSERT_TRUE(A.Completed);
  ASSERT_TRUE(B.Completed);
  EXPECT_EQ(A.ExitCode, 5);
  EXPECT_EQ(A.Stdout, "done\n");
  EXPECT_EQ(A.Stdout, B.Stdout);

  std::string TA = extractTrace(A.ToolOutput);
  ASSERT_FALSE(TA.empty());
  EXPECT_EQ(TA, extractTrace(B.ToolOutput)) << "replay must be identical";
  EXPECT_GT(A.Stats.HotPromotions, 0u);
  EXPECT_EQ(A.Stats.HotPromotions, B.Stats.HotPromotions);
}

// Every trace entry the dispatcher counts must include the entry that
// first runs a freshly formed trace: a side exit is an exit *from* a trace
// execution, so side exits can never outnumber executions. Checked on the
// serial and the sharded dispatch loop, on two of the workloads whose
// traces side-exit most.
TEST(TranslationService, TraceSideExitsNeverExceedTraceExecs) {
  for (const char *Name : {"swim", "applu"}) {
    GuestImage Img = buildWorkload(Name, 4);
    for (const char *Sched : {"--sched-threads=1", "--sched-threads=4"}) {
      Nulgrind T;
      RunReport R = runUnderCore(Img, &T,
                                 {"--chaining=yes", "--hot-threshold=50",
                                  "--trace-tier=yes", Sched});
      ASSERT_TRUE(R.Completed) << Name << " " << Sched;
      EXPECT_GT(R.Stats.TracesFormed, 0u) << Name << " " << Sched;
      EXPECT_GT(R.Stats.TraceExecs, 0u) << Name << " " << Sched;
      EXPECT_LE(R.Stats.TraceSideExits, R.Stats.TraceExecs)
          << Name << " " << Sched;
    }
  }
}

//===----------------------------------------------------------------------===//
// The persistent cache on the service's paths (accounting audit)
//===----------------------------------------------------------------------===//

/// Scratch --tt-cache directory, removed on scope exit.
struct CacheDir {
  std::filesystem::path Path;
  CacheDir() {
    static int Counter = 0;
    Path = std::filesystem::temp_directory_path() /
           ("vgxs-cache-" + std::to_string(getpid()) + "-" +
            std::to_string(Counter++));
    std::filesystem::remove_all(Path);
  }
  ~CacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

// A hot promotion whose superblock is on disk installs straight from the
// cache through the synchronous path, replacing the resident tier-1 block.
TEST(TranslationService, HotPromotionServedFromCache) {
  CacheDir Dir;
  {
    ServiceFixture A;
    A.Host.MarkCacheable = true;
    A.XS.attachCache(std::make_unique<TransCache>(Dir.str(), 0, /*CH=*/1));
    A.XS.translateSync(A.Blocks[0], /*Hot=*/true); // seeds the hot entry
    EXPECT_EQ(A.XS.jitStats().CacheWrites, 1u);
  }
  ServiceFixture B;
  B.Host.MarkCacheable = true;
  B.XS.attachCache(std::make_unique<TransCache>(Dir.str(), 0, /*CH=*/1));
  Translation *Cold = B.XS.translateSync(B.Blocks[0], false);
  ASSERT_NE(Cold, nullptr);
  EXPECT_EQ(B.XS.jitStats().CacheMisses, 1u);

  Translation *Hot = B.XS.translateSync(B.Blocks[0], /*Hot=*/true);
  ASSERT_NE(Hot, nullptr);
  EXPECT_EQ(Hot->Tier, 1u);
  EXPECT_EQ(B.XS.transTab().find(B.Blocks[0]), Hot);
  const JitStats &J = B.XS.jitStats();
  EXPECT_EQ(J.CacheHits, 1u);
  EXPECT_EQ(J.CacheMisses, 1u);
  EXPECT_EQ(J.CacheRejects, 0u);
  EXPECT_EQ(J.CacheWrites, 1u); // the cold miss; hits are not re-written
  EXPECT_EQ(B.Host.Notes, 2u);  // both installs were accounted
}

} // namespace
