//===-- tests/MtSchedTests.cpp - Sharded-scheduler concurrency tests ------==//
///
/// \file
/// Hammer tests for --sched-threads=N true parallel guest execution
/// (Section 3.14): multi-threaded CPU-bound and signal-heavy guests must
/// produce the same stdout under the sharded scheduler as under the
/// serialised one, with Memcheck staying error-clean and printing the same
/// heap and leak summaries; --sched-threads=1
/// must replay byte-identically against a run that never mentions the
/// option at all (same scheduling decisions, same --trace-events stream);
/// and the formerly racy Translation::EdgeExecs counters are pinned as
/// atomics by a cross-thread increment hammer. The whole file carries the
/// "concurrency" label so the TSan preset sweeps it.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "core/TransTab.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace vg;

namespace {

/// The "=== event trace ... ===" block of a run's tool output.
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

RunReport runNul(const GuestImage &Img, std::vector<std::string> Opts) {
  Nulgrind T;
  return runUnderCore(Img, &T, Opts);
}

RunReport runMc(const GuestImage &Img, std::vector<std::string> Opts) {
  Memcheck T;
  return runUnderCore(Img, &T, Opts);
}

/// The HEAP SUMMARY and LEAK SUMMARY lines of a Memcheck run's output.
std::string heapAndLeakLines(const std::string &Output) {
  std::string Out;
  size_t Pos = 0;
  while (Pos < Output.size()) {
    size_t End = Output.find('\n', Pos);
    if (End == std::string::npos)
      End = Output.size();
    std::string Line = Output.substr(Pos, End - Pos);
    if (Line.find("HEAP SUMMARY") != std::string::npos ||
        Line.find("LEAK SUMMARY") != std::string::npos)
      Out += Line + "\n";
    Pos = End + 1;
  }
  return Out;
}

void expectClean(const RunReport &R) {
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.FatalSignal, 0);
  EXPECT_EQ(R.ExitCode, 0);
}

} // namespace

// Four CPU-bound guest threads under four host shards, plain dispatch:
// the parallel run must print exactly what the serial run prints.
TEST(MtSched, CpuHammerMatchesSerial) {
  GuestImage Img = buildWorkload("mtcpu", 8);
  RunReport Serial = runNul(Img, {});
  expectClean(Serial);
  EXPECT_FALSE(Serial.Stdout.empty()); // the workload prints its checksum

  for (int Round = 0; Round != 3; ++Round) {
    RunReport Mt = runNul(Img, {"--sched-threads=4"});
    expectClean(Mt);
    EXPECT_EQ(Mt.Stdout, Serial.Stdout) << "round " << Round;
  }
}

// Same hammer with the tiered JIT lit up: chaining, hot promotion, and
// trace formation under the world lock, with four shards racing through
// the lock-free chain thunks.
TEST(MtSched, CpuHammerWithChainingAndTraces) {
  GuestImage Img = buildWorkload("mtcpu", 8);
  RunReport Serial = runNul(Img, {});
  expectClean(Serial);

  for (int Round = 0; Round != 3; ++Round) {
    RunReport Mt = runNul(Img, {"--sched-threads=4", "--chaining=yes",
                                "--hot-threshold=20", "--trace-tier=yes"});
    expectClean(Mt);
    EXPECT_EQ(Mt.Stdout, Serial.Stdout) << "round " << Round;
  }
}

// The signal-heavy multi-thread workload: cross-thread kills, handlers,
// and yields under the sharded scheduler.
TEST(MtSched, SignalHammerMatchesSerial) {
  GuestImage Img = buildWorkload("sigmt", 4);
  RunReport Serial = runNul(Img, {});
  expectClean(Serial);

  for (int Round = 0; Round != 3; ++Round) {
    RunReport Mt = runNul(Img, {"--sched-threads=4", "--chaining=yes"});
    expectClean(Mt);
    EXPECT_EQ(Mt.Stdout, Serial.Stdout) << "round " << Round;
  }
}

// Memcheck's shadow machinery under real concurrency: per-thread shadow
// loads/stores, the striped secondary maps, and the error funnel. The
// guest is race-free, so Memcheck must report zero errors and the same
// checksum as its serial self.
TEST(MtSched, MemcheckParallelCleanAndDeterministicOutput) {
  GuestImage Img = buildWorkload("mtcpu", 8);
  RunReport Serial = runMc(Img, {});
  expectClean(Serial);
  EXPECT_NE(Serial.ToolOutput.find("ERROR SUMMARY: 0 errors"),
            std::string::npos)
      << Serial.ToolOutput;

  RunReport Mt = runMc(Img, {"--sched-threads=4", "--chaining=yes",
                             "--hot-threshold=20", "--trace-tier=yes"});
  expectClean(Mt);
  EXPECT_EQ(Mt.Stdout, Serial.Stdout);
  EXPECT_NE(Mt.ToolOutput.find("ERROR SUMMARY: 0 errors"), std::string::npos)
      << Mt.ToolOutput;
  EXPECT_EQ(heapAndLeakLines(Mt.ToolOutput),
            heapAndLeakLines(Serial.ToolOutput));

  // mtcpu ends with an empty heap, so the exit-time leak scan (a walk of
  // the shadow map after the shards stop) runs on art, which keeps blocks
  // live to the end.
  GuestImage Heap = buildWorkload("art", 1);
  RunReport HeapSerial = runMc(Heap, {});
  expectClean(HeapSerial);
  RunReport HeapMt = runMc(Heap, {"--sched-threads=4"});
  expectClean(HeapMt);
  EXPECT_EQ(HeapMt.Stdout, HeapSerial.Stdout);
  std::string Summary = heapAndLeakLines(HeapSerial.ToolOutput);
  EXPECT_NE(Summary.find("LEAK SUMMARY"), std::string::npos)
      << HeapSerial.ToolOutput;
  EXPECT_EQ(heapAndLeakLines(HeapMt.ToolOutput), Summary);
}

// --sched-threads=1 must be byte-identical to a run that never passes the
// option: same stdout, and the same fault-injection event trace — the
// strongest observable statement that N=1 takes the legacy scheduler's
// exact decision sequence.
TEST(MtSched, SchedThreadsOneIsByteIdenticalToDefault) {
  GuestImage Img = buildWorkload("sigmt", 3);
  std::vector<std::string> Base = {"--fault-inject=all,seed=7",
                                   "--trace-events=yes", "--trace-dump=yes"};
  RunReport Default = runNul(Img, Base);
  expectClean(Default);

  std::vector<std::string> WithOpt = Base;
  WithOpt.push_back("--sched-threads=1");
  RunReport One = runNul(Img, WithOpt);
  expectClean(One);

  EXPECT_EQ(One.Stdout, Default.Stdout);
  std::string TraceDefault = extractTrace(Default.ToolOutput);
  std::string TraceOne = extractTrace(One.ToolOutput);
  ASSERT_FALSE(TraceDefault.empty());
  EXPECT_EQ(TraceOne, TraceDefault);
}

/// The value of "Key=N" on the first --profile line of \p Output that
/// starts with \p Line (several lines share keys such as "hits").
uint64_t profileCounter(const std::string &Output, const std::string &Line,
                        const std::string &Key) {
  size_t Pos = Output.find("\n" + Line);
  EXPECT_NE(Pos, std::string::npos) << "no profile line '" << Line << "'";
  if (Pos == std::string::npos)
    return 0;
  size_t End = Output.find('\n', Pos + 1);
  std::string Text = Output.substr(Pos, End - Pos);
  size_t K = Text.find(" " + Key + "=");
  if (K == std::string::npos)
    K = Text.find("\n" + Key + "=");
  EXPECT_NE(K, std::string::npos) << "no '" << Key << "' in '" << Text << "'";
  if (K == std::string::npos)
    return 0;
  return std::stoull(Text.substr(K + Key.size() + 2));
}

// Every accounting identity the --profile report prints, under both tools,
// with the tiers off and on, serially and across four shards (whose
// dispatch counters are folded in when the run ends), on the 4-thread CPU
// workload and on a Table 2 program:
//   fast-cache hits + misses == table lookups == blocks - chained
//   side-exits <= trace-execs
//   optimisation 2 runs + optimise2-skipped == translations
TEST(MtSched, ProfileAccountingIdentitiesHold) {
  const std::vector<std::string> Tiers = {"--chaining=yes",
                                          "--hot-threshold=50",
                                          "--trace-tier=yes"};
  for (const char *Name : {"mtcpu", "swim"}) {
    GuestImage Img = buildWorkload(Name, 2);
    for (bool Memcheck : {false, true})
      for (bool Tiered : {false, true})
        for (const char *Sched : {"--sched-threads=1", "--sched-threads=4"}) {
          std::vector<std::string> Opts = {"--profile=yes", Sched};
          if (Tiered)
            Opts.insert(Opts.end(), Tiers.begin(), Tiers.end());
          RunReport R = Memcheck ? runMc(Img, Opts) : runNul(Img, Opts);
          SCOPED_TRACE(std::string(Name) + (Memcheck ? " memcheck " : " nulgrind ") +
                       (Tiered ? "tiered " : "") + Sched);
          expectClean(R);
          const std::string &Out = R.ToolOutput;
          uint64_t Blocks = profileCounter(Out, "blocks=", "blocks");
          uint64_t Chained = profileCounter(Out, "blocks=", "chained");
          uint64_t Hits = profileCounter(Out, "fast-cache ", "hits");
          uint64_t Misses = profileCounter(Out, "fast-cache ", "misses");
          uint64_t Lookups = profileCounter(Out, "table ", "lookups");
          EXPECT_GT(Blocks, 0u);
          EXPECT_EQ(Blocks, R.Stats.BlocksDispatched);
          EXPECT_EQ(Hits + Misses, Lookups);
          EXPECT_EQ(Lookups, Blocks - Chained);
          EXPECT_EQ(Chained > 0, Tiered);
          // Phase 4 runs or is skipped once per translation, and is never
          // skipped on an instrumented (Memcheck) block.
          uint64_t Translations =
              profileCounter(Out, "translations=", "translations");
          uint64_t Skipped =
              profileCounter(Out, "translations=", "optimise2-skipped");
          const std::string Opt2Row = "\n4 optimisation 2";
          size_t Row = Out.find(Opt2Row);
          ASSERT_NE(Row, std::string::npos);
          EXPECT_EQ(std::stoull(Out.substr(Row + Opt2Row.size())) + Skipped,
                    Translations);
          EXPECT_EQ(Skipped > 0, !Memcheck);
          if (Tiered) {
            uint64_t Execs = profileCounter(Out, "trace-execs=", "trace-execs");
            uint64_t SideExits =
                profileCounter(Out, "trace-execs=", "side-exits");
            EXPECT_LE(SideExits, Execs);
          }
        }
  }
}

// Pin Translation::EdgeExecs as an atomic: four threads hammer the same
// slots the way four shards' chain thunks do. TSan validates the absence
// of a data race; the count validates no lost increments.
TEST(MtSched, EdgeExecsIncrementsAreAtomic) {
  Translation T;
  T.EdgeExecs = std::vector<std::atomic<uint64_t>>(4);
  constexpr int Threads = 4;
  constexpr uint64_t PerThread = 50000;

  std::vector<std::thread> Workers;
  for (int W = 0; W != Threads; ++W)
    Workers.emplace_back([&T] {
      for (uint64_t I = 0; I != PerThread; ++I)
        T.EdgeExecs[I % 4].fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &W : Workers)
    W.join();

  uint64_t Total = 0;
  for (const std::atomic<uint64_t> &E : T.EdgeExecs)
    Total += E.load();
  EXPECT_EQ(Total, uint64_t(Threads) * PerThread);
}

// The capability gate: a tool that does not declare parallel support gets
// the scheduler clamped back to one shard rather than racing through an
// unprepared tool. ICnt-style tools are absent here; use the base-class
// default via a minimal Tool subclass.
namespace {
struct SerialOnlyTool : Nulgrind {
  bool supportsParallelGuests() const override { return false; }
};
} // namespace

TEST(MtSched, UnsupportedToolClampsToOneShard) {
  GuestImage Img = buildWorkload("mtcpu", 2);
  SerialOnlyTool T;
  RunReport R = runUnderCore(Img, &T, {"--sched-threads=4"});
  expectClean(R);
  RunReport Serial = runNul(Img, {});
  EXPECT_EQ(R.Stdout, Serial.Stdout);
}
