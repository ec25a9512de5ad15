//===-- tests/TranslationServiceTests.cpp - Tiered translation tests ------==//
///
/// \file
/// Tests for the TranslationService: the synchronous pipeline (baseline
/// blocks and traces), the end-to-end determinism of a tiered run under a
/// full Core, the two-tier invariant (no translation between baseline and
/// trace), and the trace-tier accounting identity.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "core/TranslationService.h"
#include "fuzz/ProgramGen.h"
#include "guestlib/GuestLib.h"
#include "ir/IRPrinter.h"
#include "tools/ICnt.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

using namespace vg;
using namespace vg::vg1;

namespace {

//===----------------------------------------------------------------------===//
// Service-level harness: a stub host and a bank of tiny guest blocks
//===----------------------------------------------------------------------===//

constexpr uint32_t CodeBase = 0x1000;

/// Minimal host: counts the callbacks.
struct StubHost : TranslationHost {
  unsigned Notes = 0;

  void setupTranslation(TranslationOptions &, uint32_t,
                        Translation *) override {}
  void noteTranslation(uint32_t, const Translation &, double) override {
    ++Notes;
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
  Translation *T = F.XS.translateSync(F.Blocks[0]);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(F.XS.transTab().find(F.Blocks[0]), T);
  EXPECT_EQ(T->Tier, 0u);
  EXPECT_EQ(F.Host.Notes, 1u);
  EXPECT_EQ(F.XS.jitStats().TraceInstalled, 0u); // traces only
}

//===----------------------------------------------------------------------===//
// Guest-byte access at page boundaries
//===----------------------------------------------------------------------===//

/// Reference fetch: one byte at a time, stopping at the first byte that
/// is not executable.
FetchFn bytewiseFetch(const GuestMemory &Mem) {
  return [&Mem](uint32_t Addr, uint8_t *Buf, uint32_t MaxLen) -> uint32_t {
    uint32_t N = 0;
    while (N < MaxLen && !Mem.fetch(Addr + N, Buf + N, 1).Faulted)
      ++N;
    return N;
  };
}

// Straight-line code running off the end of an executable page into an
// unmapped page, or into a mapped page without execute permission: the
// block ends at the first instruction not wholly on the executable page,
// with a NoDecode exit, exactly as a byte-at-a-time fetch decides.
TEST(TranslationService, BlockAtPageEndStopsWhereBytewiseFetchDoes) {
  constexpr uint32_t Page = GuestMemory::PageSize;
  constexpr uint32_t ExecPage = 0x20000, PageEnd = ExecPage + Page;
  for (uint32_t Lead : {40u, 41u, 43u}) {
    for (bool NextMapped : {false, true}) {
      Assembler Code(PageEnd - Lead);
      uint32_t Stop = 0;
      for (uint32_t I = 0; I != 24; ++I) {
        uint32_t At = Code.here();
        if (I % 2)
          Code.movi(Reg::R1, 0x12345678 + I);
        else
          Code.addi(Reg::R2, Reg::R2, I);
        if (!Stop && Code.here() > PageEnd)
          Stop = At;
      }
      ASSERT_NE(Stop, 0u);
      std::vector<uint8_t> Bytes = Code.finalize();

      GuestMemory Mem;
      Mem.map(ExecPage, Page, PermRX);
      if (NextMapped)
        Mem.map(PageEnd, Page, PermRW);
      uint32_t Len = NextMapped ? static_cast<uint32_t>(Bytes.size()) : Lead;
      Mem.write(PageEnd - Lead, Bytes.data(), Len, /*IgnorePerms=*/true);

      StubHost Host;
      TranslationService XS(Host, Mem, 1u << 4);
      Translation *T = XS.translateSync(PageEnd - Lead);
      ASSERT_NE(T, nullptr);
      ASSERT_EQ(T->Extents.size(), 1u);
      EXPECT_EQ(T->Extents[0].second, Stop) << Lead << " " << NextMapped;

      DisasmResult Ref = disassembleSB(PageEnd - Lead, bytewiseFetch(Mem));
      EXPECT_TRUE(Ref.DecodeFailed);
      EXPECT_EQ(Ref.SB->endJumpKind(), ir::JumpKind::NoDecode);
      EXPECT_EQ(Ref.Extents, T->Extents);
      EXPECT_EQ(Ref.NumInsns, T->NumInsns);
      TranslatedBlock RefTB = translateBlock(
          PageEnd - Lead, bytewiseFetch(Mem), TranslationOptions());
      EXPECT_EQ(RefTB.Blob.Bytes, T->Blob.Bytes);
    }
  }
}

// hashLive reads whole page runs; over extents that cross an unmapped
// page, a mapped page without permissions and page edges it must equal
// the byte-at-a-time hash in which unmapped bytes count as 0.
TEST(TranslationService, HashLiveMatchesBytewiseAcrossUnmappedPage) {
  constexpr uint32_t Page = GuestMemory::PageSize;
  constexpr uint32_t P0 = 0x40000, P1 = P0 + Page, P2 = P1 + Page,
                     P3 = P2 + Page;
  GuestMemory Mem;
  Mem.map(P0, Page, PermRX);
  Mem.map(P2, Page, PermNone);
  Mem.map(P3, Page, PermRW); // P1 stays unmapped
  for (uint32_t PageBase : {P0, P2, P3})
    for (uint32_t A = PageBase; A != PageBase + Page; ++A) {
      uint8_t B = static_cast<uint8_t>((A * 131) >> 3) | 1;
      Mem.write(A, &B, 1, /*IgnorePerms=*/true);
    }
  std::vector<std::pair<uint32_t, uint32_t>> Extents = {
      {P0 + 4000, P2 + 100}, // RX tail, all of unmapped P1, into P2
      {P2 + 4090, P3 + 50},  // across a page edge
      {P1 + 10, P1 + 20},    // wholly unmapped
      {P0 + 5, P0 + 5},      // empty
      {P0, P0 + Page}};      // exactly one page

  uint64_t Ref = 0xcbf29ce484222325ULL;
  for (auto [Lo, Hi] : Extents)
    for (uint32_t A = Lo; A != Hi; ++A) {
      uint8_t B = 0;
      Mem.read(A, &B, 1, /*IgnorePerms=*/true);
      Ref ^= B;
      Ref *= 0x100000001b3ULL;
    }

  StubHost Host;
  TranslationService XS(Host, Mem, 1u << 4);
  EXPECT_EQ(XS.hashLive(Extents), Ref);
}

//===----------------------------------------------------------------------===//
// Traces (tier 2)
//===----------------------------------------------------------------------===//

/// Two baseline blocks that chain A -> B (A ends at a BCC whose
/// fall-through is B), so a TraceSpec{A, B} is a real stitchable path.
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
    Code.beq(Done); // unlikely side exit; block A ends here
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
// counts it, and leaves the tail constituent resident for side exits.
TEST(TranslationService, SyncTranslateTraceInstallsImmediately) {
  TraceFixture F;
  F.XS.translateSync(F.A);
  F.XS.translateSync(F.B);
  Translation *Tr = F.XS.translateTrace(F.Spec);
  ASSERT_NE(Tr, nullptr);
  EXPECT_EQ(Tr->Tier, 2u);
  EXPECT_EQ(Tr->TraceEntries, (std::vector<uint32_t>{F.A, F.B}));
  EXPECT_EQ(F.XS.transTab().find(F.A), Tr);
  ASSERT_NE(F.XS.transTab().find(F.B), nullptr);
  EXPECT_EQ(F.XS.transTab().find(F.B)->Tier, 0u);
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
  // trace-head threshold, so several heads are walked for traces.
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
                                   "--trace-tier=yes", "--trace-events=yes",
                                   "--trace-dump=yes"};

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
// execution, so side exits can never outnumber executions. Checked under the
// serial and the sharded scheduler, on two of the workloads whose
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
// Pinned pipeline output
//===----------------------------------------------------------------------===//

constexpr uint64_t FnvBasis = 0xcbf29ce484222325ULL;

void fnv(uint64_t &H, const void *P, size_t N) {
  const uint8_t *B = static_cast<const uint8_t *>(P);
  for (size_t I = 0; I != N; ++I) {
    H ^= B[I];
    H *= 0x100000001b3ULL;
  }
}

/// FNV-1a over one translation's address, tier, blob bytes, spill-slot
/// count and chain-slot count. CALL instructions embed a host pointer to
/// their Callee; the digest hashes the callee's name in its place so the
/// value does not depend on where the process was loaded.
uint64_t translationDigest(const Translation &T) {
  std::vector<uint8_t> Bytes = T.Blob.Bytes;
  std::vector<uint32_t> Slots;
  EXPECT_TRUE(hvm::findCalleeSlots(Bytes, Slots));
  uint64_t H = FnvBasis;
  for (uint32_t Off : Slots) {
    const ir::Callee *C;
    std::memcpy(&C, Bytes.data() + Off, sizeof(C));
    uint64_t NameHash = FnvBasis;
    fnv(NameHash, C->Name, std::strlen(C->Name));
    std::memcpy(Bytes.data() + Off, &NameHash, sizeof(NameHash));
  }
  fnv(H, &T.Addr, sizeof(T.Addr));
  fnv(H, &T.Tier, sizeof(T.Tier));
  fnv(H, Bytes.data(), Bytes.size());
  fnv(H, &T.Blob.NumSpillSlots, sizeof(T.Blob.NumSpillSlots));
  fnv(H, &T.Blob.NumChainSlots, sizeof(T.Blob.NumChainSlots));
  return H;
}

/// Per-translation digests keyed by insertion order: translations the
/// table retires mid-run (trace installs, SMC, eviction) arrive through
/// the retire hook, the survivors are collected at fini.
struct DigestLog {
  std::vector<std::pair<uint64_t, uint64_t>> SeqDigest;
  std::array<size_t, 256> TierCounts{}; ///< translations made, by tier
  /// Each translation's entry and, for a trace, its constituents.
  std::vector<std::pair<uint32_t, std::vector<uint32_t>>> Blocks;
  void add(const Translation &T) {
    SeqDigest.push_back({T.Seq, translationDigest(T)});
    ++TierCounts[T.Tier];
    Blocks.push_back({T.Addr, T.TraceEntries});
  }
  uint64_t fold() {
    std::sort(SeqDigest.begin(), SeqDigest.end());
    uint64_t H = FnvBasis;
    for (auto [Seq, D] : SeqDigest)
      fnv(H, &D, sizeof(D));
    return H;
  }
};

/// The tool under test, extended to log every resident translation just
/// before the core tears down.
template <class T> class Digesting final : public T {
public:
  template <class... Args>
  explicit Digesting(DigestLog &Log, Args &&...A)
      : T(std::forward<Args>(A)...), Log(Log) {}
  void init(Core &C) override {
    TheCore = &C;
    T::init(C);
  }
  void fini(int ExitCode) override {
    TheCore->transTab().forEach([this](const Translation &Tr) { Log.add(Tr); });
    T::fini(ExitCode);
  }

private:
  DigestLog &Log;
  Core *TheCore = nullptr;
};

enum class DigestTool { Nulgrind, ICntInline, ICntCCall, Memcheck };

/// Runs \p Img under \p Kind, logging every translation the run made.
RunReport runLogged(const GuestImage &Img, const std::string &Stdin,
                    DigestTool Kind, const std::vector<std::string> &Opts,
                    DigestLog &Log) {
  std::unique_ptr<Tool> T;
  switch (Kind) {
  case DigestTool::Nulgrind:
    T = std::make_unique<Digesting<Nulgrind>>(Log);
    break;
  case DigestTool::ICntInline:
    T = std::make_unique<Digesting<ICnt>>(Log, ICnt::Mode::Inline);
    break;
  case DigestTool::ICntCCall:
    T = std::make_unique<Digesting<ICnt>>(Log, ICnt::Mode::CCall);
    break;
  case DigestTool::Memcheck:
    T = std::make_unique<Digesting<Memcheck>>(Log);
    break;
  }
  return runUnderCoreWith(
      Img, T.get(), Opts, Stdin, ~0ull, [&Log](Core &C) {
        C.transTab().setRetireHook(
            [&Log](std::unique_ptr<Translation> Tr) { Log.add(*Tr); });
      });
}

struct DigestCfg {
  DigestTool Kind;
  std::vector<std::string> Opts;
};

struct DigestProg {
  GuestImage Img;
  std::string Stdin;
};

/// crafty, mcf and gcc at scale 1, plus six seeded fuzz programs.
std::vector<DigestProg> digestPrograms() {
  std::vector<DigestProg> Progs;
  for (const char *Name : {"crafty", "mcf", "gcc"})
    Progs.push_back({buildWorkload(Name, 1), ""});
  for (uint64_t Seed = 1; Seed != 7; ++Seed) {
    fuzz::GenOptions GO;
    GO.MinBodyAtoms = GO.MaxBodyAtoms = 100 + 80 * static_cast<unsigned>(Seed);
    fuzz::FuzzProgram P = fuzz::generate(Seed * 7919, GO);
    Progs.push_back({fuzz::render(P), P.StdinData});
  }
  return Progs;
}

/// Every block the digest programs execute, translated under each of
/// \p Cfgs: one FNV-1a value over the per-run digests, and the number of
/// translations in \p N.
uint64_t pipelineDigest(const std::vector<DigestCfg> &Cfgs, size_t &N) {
  const std::vector<DigestProg> Progs = digestPrograms();
  uint64_t H = FnvBasis;
  for (const DigestCfg &C : Cfgs)
    for (const DigestProg &P : Progs) {
      DigestLog Log;
      RunReport R = runLogged(P.Img, P.Stdin, C.Kind, C.Opts, Log);
      EXPECT_TRUE(R.Completed);
      N += Log.SeqDigest.size();
      uint64_t D = Log.fold();
      fnv(H, &D, sizeof(D));
    }
  return H;
}

// The generated code of the four untiered tool configurations must not
// move. A change to the pipeline's data structures keeps this value; a
// change to what it emits must update it deliberately (and say why).
TEST(TranslationService, UntieredPipelineOutputDigestIsPinned) {
  size_t N = 0;
  uint64_t H = pipelineDigest({{DigestTool::Nulgrind, {}},
                               {DigestTool::ICntInline, {}},
                               {DigestTool::ICntCCall, {}},
                               {DigestTool::Memcheck, {}}},
                              N);
  EXPECT_GT(N, 1000u);
  EXPECT_EQ(H, 0xfe7b35f24cf62eeeULL) << "translations digested: " << N;
}

// The same for tiered Memcheck: besides the emitted code, this pins which
// blocks the trace tier chooses to stitch.
TEST(TranslationService, TieredPipelineOutputDigestIsPinned) {
  size_t N = 0;
  uint64_t H = pipelineDigest(
      {{DigestTool::Memcheck,
        {"--chaining=yes", "--hot-threshold=50", "--trace-tier=yes"}}},
      N);
  EXPECT_GT(N, 500u);
  EXPECT_EQ(H, 0xc5ee9b5613913facULL) << "translations digested: " << N;
}

// The same for tiered Nulgrind, whose blocks no instrumentation touches:
// Phase 4 skips optimisation 2 on most of them, and its baseline blocks
// and traces must still encode exactly as when it ran everywhere.
TEST(TranslationService, TieredNulgrindPipelineOutputDigestIsPinned) {
  size_t N = 0;
  uint64_t H = pipelineDigest(
      {{DigestTool::Nulgrind,
        {"--chaining=yes", "--hot-threshold=50", "--trace-tier=yes"}}},
      N);
  EXPECT_GT(N, 500u);
  EXPECT_EQ(H, 0xa753841442ff67c7ULL) << "translations digested: " << N;
}

/// Reads \p Img's segments as the loader maps them.
FetchFn fetchFromImage(const GuestImage &Img) {
  return [&Img](uint32_t Addr, uint8_t *Buf, uint32_t MaxLen) -> uint32_t {
    for (const ImageSegment &Seg : Img.Segments)
      if (Addr >= Seg.Base && Addr - Seg.Base < Seg.Bytes.size()) {
        uint32_t N = std::min<uint32_t>(
            MaxLen, static_cast<uint32_t>(Seg.Bytes.size() - (Addr - Seg.Base)));
        std::memcpy(Buf, Seg.Bytes.data() + (Addr - Seg.Base), N);
        return N;
      }
    return 0;
  };
}

// Phase 4's skip rule (IROpt.h): where optimisation 1 reports its last
// round settled, optimisation 2 on the same uninstrumented block changes
// nothing. Checked on every block and trace the digest programs translate
// under untiered and tiered Nulgrind, with Phases 1 and 2 rerun by hand
// as translateBlock runs them. The tiered runs use the lowest hot
// threshold, so that these short programs form about 160 traces.
TEST(TranslationService, Optimise2ChangesNothingWhereOptimise1Settled) {
  const ir::SpecFn Spec = vg1SpecFn();
  size_t Blocks = 0, Traces = 0, Settled = 0;
  for (const DigestProg &P : digestPrograms()) {
    FetchFn Fetch = fetchFromImage(P.Img);
    for (bool Tiered : {false, true}) {
      DigestLog Log;
      std::vector<std::string> Opts;
      if (Tiered)
        Opts = {"--chaining=yes", "--hot-threshold=1", "--trace-tier=yes"};
      ASSERT_TRUE(
          runLogged(P.Img, P.Stdin, DigestTool::Nulgrind, Opts, Log).Completed);
      for (const auto &[Addr, Entries] : Log.Blocks) {
        // A trace is checked with both endings the core may ask for.
        for (uint32_t Final : {~0u, Addr}) {
          if (Entries.empty() && Final != ~0u)
            continue;
          DisasmResult Dis;
          ir::TraceOptConfig Cfg;
          if (Entries.empty()) {
            Dis = disassembleSB(Addr, Fetch);
          } else {
            // The core's trace limits (Core::setupTranslation).
            FrontendConfig FC;
            FC.MaxInsns = static_cast<uint32_t>(
                std::min<size_t>(200 * Entries.size(), 1200));
            FC.MaxChases = static_cast<uint32_t>(
                std::min<size_t>(16 * Entries.size(), 64));
            Dis = disassembleTrace({Entries, Final}, Fetch, FC);
            Cfg = traceOptConfig(*Dis.SB, Fetch, Dis.Extents);
            ++Traces;
          }
          ++Blocks;
          const ir::TraceOptConfig *TC = Entries.empty() ? nullptr : &Cfg;
          std::unique_ptr<ir::IRSB> SB = ir::flatten(*Dis.SB);
          if (!ir::optimise1(*SB, Spec, {}, TC).Settled)
            continue;
          ++Settled;
          std::string Before = ir::toString(*SB);
          ir::optimise2(*SB, Spec, {}, TC);
          ASSERT_EQ(ir::toString(*SB), Before)
              << "block 0x" << std::hex << Addr << " trace of "
              << std::dec << Entries.size();
        }
      }
    }
  }
  EXPECT_GT(Traces, 0u);
  EXPECT_GT(Settled, Blocks * 9 / 10) << Settled << " of " << Blocks;
}

// Two tiers: under the tiered configuration every translation a run makes
// is a baseline block or a trace, and traces still form. Checked on the
// Table 2 programs with the most and the least biased traces.
TEST(TranslationService, TieredRunsMakeOnlyBaselineBlocksAndTraces) {
  for (const char *Name : {"vortex", "swim"}) {
    GuestImage Img = buildWorkload(Name, 2);
    for (DigestTool Kind : {DigestTool::Nulgrind, DigestTool::Memcheck}) {
      SCOPED_TRACE(std::string(Name) +
                   (Kind == DigestTool::Memcheck ? " memcheck" : " nulgrind"));
      DigestLog Log;
      RunReport R = runLogged(
          Img, "", Kind,
          {"--chaining=yes", "--hot-threshold=50", "--trace-tier=yes"}, Log);
      ASSERT_TRUE(R.Completed);
      EXPECT_GT(Log.TierCounts[0], 0u);
      EXPECT_GT(Log.TierCounts[2], 0u);
      EXPECT_EQ(Log.TierCounts[0] + Log.TierCounts[2], Log.SeqDigest.size());
      EXPECT_GT(R.Stats.TracesFormed, 0u);
      EXPECT_GE(R.Stats.HotPromotions, R.Stats.TracesFormed);
    }
  }
}

} // namespace
