//===-- fuzz/DiffRunner.cpp - Oracle-vs-JIT differential executor ---------==//

#include "fuzz/DiffRunner.h"

#include "tools/Cachegrind.h"
#include "tools/ICnt.h"
#include "tools/Loopgrind.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "tools/TaintGrind.h"

#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>

#include <unistd.h>

using namespace vg;
using namespace vg::fuzz;

namespace {

// Generous for hygienic programs (well under 100k retired instructions),
// tight enough that a miscompiled loop surfaces as a "completed" divergence
// in well under a second.
constexpr uint64_t OracleMaxInsns = 20'000'000;
constexpr uint64_t CoreMaxBlocks = 300'000;

std::unique_ptr<Tool> makeTool(const std::string &Name) {
  if (Name == "nulgrind")
    return std::make_unique<Nulgrind>();
  if (Name == "icnt")
    return std::make_unique<ICnt>(ICnt::Mode::Inline);
  if (Name == "icntc")
    return std::make_unique<ICnt>(ICnt::Mode::CCall);
  if (Name == "memcheck")
    return std::make_unique<Memcheck>();
  if (Name == "cachegrind")
    return std::make_unique<Cachegrind>();
  if (Name == "taintgrind")
    return std::make_unique<TaintGrind>();
  if (Name == "loopgrind")
    return std::make_unique<Loopgrind>();
  return nullptr;
}

std::string brief(const std::string &S) {
  if (S.size() <= 96)
    return S;
  return S.substr(0, 96) + "...(" + std::to_string(S.size()) + "B)";
}

void compareReports(const RunReport &Oracle, const RunReport &Got,
                    const FuzzConfig &C, const ICnt *Counter,
                    const Memcheck *Mc, bool Smc, bool Signals,
                    std::vector<Divergence> &Out) {
  auto div = [&](const char *Field, std::string E, std::string G) {
    Out.push_back({C.Name, Field, std::move(E), std::move(G)});
  };
  if (Oracle.Completed != Got.Completed)
    div("completed", Oracle.Completed ? "completed" : "did-not-complete",
        Got.Completed ? "completed" : "did-not-complete");
  if (Oracle.FatalSignal != Got.FatalSignal)
    div("fatalsig", std::to_string(Oracle.FatalSignal),
        std::to_string(Got.FatalSignal));
  if (Oracle.ExitCode != Got.ExitCode)
    div("exit", std::to_string(Oracle.ExitCode),
        std::to_string(Got.ExitCode));
  if (Oracle.Stdout != Got.Stdout)
    div("stdout", brief(Oracle.Stdout), brief(Got.Stdout));

  // Tool invariants — only meaningful when both runs completed.
  if (!Oracle.Completed || !Got.Completed)
    return;
  if (C.CheckInsnCount && Counter && !Signals) {
    // Signal programs execute handler instructions only under the core, so
    // the equality only holds for signal-free programs.
    if (Counter->count() != Oracle.NativeInsns)
      div("icnt", std::to_string(Oracle.NativeInsns),
          std::to_string(Counter->count()));
  }
  if (C.CheckMemcheckClean && Mc && Mc->uniqueErrors() != 0)
    div("mc-errors", "0", std::to_string(Mc->uniqueErrors()));
  if (Smc && C.CheckSmcRetrans && Got.Stats.SmcRetranslations == 0)
    div("smc", ">=1 retranslation", "0");
}

} // namespace

std::vector<FuzzConfig> vg::fuzz::defaultMatrix(const FuzzProgram &P) {
  std::vector<FuzzConfig> M;
  M.push_back({"nulgrind", "nulgrind", {}, false, false});
  M.push_back({"nulgrind-noopt", "nulgrind", {"--no-iropt"}, false, false});
  M.push_back({"nulgrind-chain", "nulgrind", {"--chaining=yes"}, false,
               false});
  M.push_back({"nulgrind-verify", "nulgrind", {"--verify-ir"}, false, false});
  {
    // Scheduler fuzzing: only observation-neutral fault kinds (preempts,
    // translation-table flushes, and signal storms when handlers exist —
    // anything else perturbs guest-visible results by design).
    std::ostringstream Spec;
    Spec << "--fault-inject=preempt:20,ttflush:50"; // rates are 1-in-N
    if (P.Signals)
      Spec << ",sigstorm:20";
    Spec << ",seed=" << (P.Seed ^ 0xFA01Du);
    // No SMC-retranslation assertion here: an injected ttflush between the
    // patch and the re-execution retranslates from the patched bytes, so
    // the SmcFail path (correctly) never fires.
    M.push_back({"nulgrind-fault", "nulgrind", {Spec.str()}, false, false,
                 /*CheckSmcRetrans=*/false});
  }
  // Trace tier: an aggressive threshold (heads at 8 executions) so
  // fuzz-sized loops actually stitch traces. SMC waiver: a trace formed
  // after the patch was translated from the patched bytes, so SmcFail may
  // legitimately never fire.
  M.push_back({"nulgrind-traces",
               "nulgrind",
               {"--chaining=yes", "--hot-threshold=2", "--trace-tier=yes"},
               false,
               false,
               /*CheckSmcRetrans=*/false});
  // Sharded scheduler: the fuzz programs are single-threaded, so all but
  // one shard park — but the dispatch path, fast-cache policy, chain
  // publication, and epoch-based translation reclaim are the MT ones, and
  // every guest-visible observation must still match the serial oracle.
  // The SMC waiver matches the other retranslation-perturbing cells.
  M.push_back({"nulgrind-mt",
               "nulgrind",
               {"--sched-threads=4"},
               false,
               false,
               /*CheckSmcRetrans=*/false});
  M.push_back({"icnt", "icnt", {}, true, false});
  M.push_back({"icntc", "icntc", {"--chaining=yes"}, true, false});
  M.push_back({"memcheck", "memcheck", {"--chaining=yes"}, false, true});
  M.push_back({"memcheck-traces",
               "memcheck",
               {"--chaining=yes", "--hot-threshold=2", "--trace-tier=yes"},
               false,
               true,
               /*CheckSmcRetrans=*/false});
  // Memcheck under the sharded scheduler with the JIT lit up: shadow
  // memory, error recording, and a trace replacing a live block all take
  // their MT paths.
  M.push_back({"memcheck-mt",
               "memcheck",
               {"--chaining=yes", "--hot-threshold=2", "--trace-tier=yes",
                "--sched-threads=4"},
               false,
               true,
               /*CheckSmcRetrans=*/false});
  M.push_back({"cachegrind", "cachegrind", {}, false, false});
  M.push_back({"taintgrind", "taintgrind", {}, false, false});
  // Client-request cell: requests end blocks with JumpKind::ClientReq, and
  // the ClReq/ClReqCore/ClReqTool atoms put them in every program, so this
  // cell drives them across every tier boundary at once — chained blocks
  // and trace stitching. The JIT and the RefInterp oracle must agree on
  // every request's result.
  M.push_back({"nulgrind-creq",
               "nulgrind",
               {"--chaining=yes", "--hot-threshold=2", "--trace-tier=yes"},
               false,
               false,
               /*CheckSmcRetrans=*/false});
  // Loopgrind: its entry dirty call rides inside every translation, and
  // the LG-tagged atoms flip collection on and off mid-program. Guest-
  // visible state must be bit-identical to the oracle regardless.
  M.push_back({"loopgrind",
               "loopgrind",
               {"--chaining=yes", "--hot-threshold=2", "--trace-tier=yes"},
               false,
               false,
               /*CheckSmcRetrans=*/false});
  // Persistent translation cache: cold run writes, warm run installs the
  // deserialized translations — both must match the oracle bit for bit.
  // (SMC programs get --smc-check=all below, which marks every block
  // non-cacheable; the cells then degenerate to plain double runs, still
  // divergence-checked.)
  M.push_back({"nulgrind-cache", "nulgrind", {"--chaining=yes"}, false, false,
               /*CheckSmcRetrans=*/true, /*CacheTwice=*/true});
  M.push_back({"memcheck-cache", "memcheck", {"--chaining=yes"}, false, true,
               /*CheckSmcRetrans=*/true, /*CacheTwice=*/true});
  if (P.Smc)
    for (FuzzConfig &C : M)
      C.Opts.push_back("--smc-check=all");
  return M;
}

/// A unique scratch directory per cache cell: fuzz processes run in
/// parallel under ctest, so the name carries the pid, and diffRun is
/// re-entered per iteration, so it also carries a process-wide counter.
static std::string freshCacheDir() {
  static std::atomic<uint64_t> Counter{0};
  std::filesystem::path P =
      std::filesystem::temp_directory_path() /
      ("vgfuzz-ttc-" + std::to_string(getpid()) + "-" +
       std::to_string(Counter.fetch_add(1)));
  return P.string();
}

static void runOne(const FuzzProgram &P, const GuestImage &Img,
                   const RunReport &Oracle, const FuzzConfig &C,
                   std::vector<Divergence> &Out) {
  std::string CacheDir;
  auto runAs = [&](const FuzzConfig &Cell) {
    std::unique_ptr<Tool> T = makeTool(Cell.ToolName);
    if (!T) {
      Out.push_back({Cell.Name, "config", "known tool", Cell.ToolName});
      return;
    }
    std::vector<std::string> Opts = Cell.Opts;
    if (!CacheDir.empty())
      Opts.push_back("--tt-cache=" + CacheDir);
    RunReport Got =
        runUnderCore(Img, T.get(), Opts, P.StdinData, CoreMaxBlocks);
    const ICnt *Counter = dynamic_cast<const ICnt *>(T.get());
    const Memcheck *Mc = dynamic_cast<const Memcheck *>(T.get());
    compareReports(Oracle, Got, Cell, Counter, Mc, P.Smc, P.Signals, Out);
  };
  if (!C.CacheTwice) {
    runAs(C);
    return;
  }
  CacheDir = freshCacheDir();
  runAs(C); // cold: populates the cache
  FuzzConfig Warm = C;
  Warm.Name += "-warm";
  runAs(Warm); // warm: installs from it
  std::error_code EC;
  std::filesystem::remove_all(CacheDir, EC);
}

DiffResult vg::fuzz::diffRun(const FuzzProgram &P,
                             const std::vector<FuzzConfig> &M) {
  DiffResult R;
  GuestImage Img = render(P);
  RunReport Oracle = runNative(Img, P.StdinData, OracleMaxInsns);
  if (!Oracle.Completed) {
    // The oracle itself must always terminate cleanly — anything else is a
    // generator-hygiene bug worth shrinking and reporting the same way.
    R.Divs.push_back({"oracle", "completed", "completed",
                      Oracle.FatalSignal
                          ? "fatal signal " + std::to_string(Oracle.FatalSignal)
                          : "did-not-complete"});
    return R;
  }
  for (const FuzzConfig &C : M)
    runOne(P, Img, Oracle, C, R.Divs);
  return R;
}

DiffResult vg::fuzz::diffRunOne(const FuzzProgram &P, const FuzzConfig &C) {
  DiffResult R;
  GuestImage Img = render(P);
  RunReport Oracle = runNative(Img, P.StdinData, OracleMaxInsns);
  if (!Oracle.Completed) {
    R.Divs.push_back({"oracle", "completed", "completed", "did-not-complete"});
    return R;
  }
  runOne(P, Img, Oracle, C, R.Divs);
  return R;
}
