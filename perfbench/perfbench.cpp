//===-- perfbench/perfbench.cpp - The repository benchmark ----------------==//
///
/// \file
/// Measures how much slower each tool makes a guest program (the paper's
/// Table 2), driving only the library's public entry points:
/// buildWorkload, fuzz::generate and render, runNative, and Core +
/// loadImage + run. Every run's guest stdout and exit code are checked
/// against the reference interpreter's.
///
/// Usage:
///   perfbench --workload table2|testsuite --seed N --seconds S --trace 0|1
///             [--spans FILE]
///
/// Workloads (the programs see only the generated images):
///   table2     the fourteen SPEC-like programs at a fixed scale: long
///              steady-state runs where the work is generated code,
///              dispatch, helper calls and shadow memory.
///   testsuite  seeded fuzz-generated programs of hundreds to a few
///              thousand atoms that loop one to three times: most code runs
///              once, so translation and tool start-up/exit dominate.
///
/// Both run natively and under the same six tool configurations, so every
/// end-to-end metric is defined on both. A round runs every program under
/// every configuration; the seed picks the testsuite programs and the order
/// programs and configurations run in, and --seconds the number of rounds.
///
/// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
/// metrics: untraced and traced rounds alternate; the traced ones wrap each
/// call into a module in a span and replay every installed translation
/// through the pipeline phases. A no-tool run per program and a serial-
/// versus-sharded mtcpu probe follow. The spans go to --spans. The last
/// stdout line is one JSON object {correct, attempted, failed, metrics}.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "core/Launcher.h"
#include "fuzz/ProgramGen.h"
#include "hvm/HostVM.h"
#include "hvm/ISel.h"
#include "ir/IROpt.h"
#include "tools/ICnt.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace vg;
using perfbench::now;
using perfbench::ScopedSpan;
using perfbench::SpanLog;

namespace {

/// table2 program scale: translation is about 1% of a round, and three
/// rounds fit a 45-second budget.
constexpr uint32_t Table2Scale = 4;
/// testsuite size: body sizes are spread evenly over [SuiteMinAtoms,
/// SuiteMaxAtoms], so every seed gets the same size profile and only the
/// program contents change.
constexpr unsigned SuitePrograms = 40;
constexpr unsigned SuiteMinAtoms = 300, SuiteMaxAtoms = 3000;
/// Nominal seconds of one round on a 4-thread x86-64 host. The round count
/// is --seconds divided by this, fixed per workload rather than read off the
/// clock, so every run of a workload takes the same number of samples.
constexpr double Table2RoundSeconds = 13;
constexpr double SuiteRoundSeconds = 22;
/// Native runs per visit. They are short, so several samples per round keep
/// the slow-down denominators as steady as the tool columns.
constexpr int NativeReps = 5;
/// mtcpu probe (traced run): scale and serial/sharded pairs.
constexpr uint32_t MtScale = 100;
constexpr int MtPairs = 3;

// --- programs and configurations -------------------------------------------

struct Program {
  std::string Name;
  GuestImage Img;
  std::string Stdin;
};

std::vector<Program> buildPrograms(const std::string &Workload,
                                   uint64_t Seed) {
  std::vector<Program> Out;
  if (Workload == "table2") {
    for (const WorkloadInfo &W : allWorkloads())
      Out.push_back({W.Name, buildWorkload(W.Name, Table2Scale), ""});
    return Out;
  }
  fuzz::GenOptions GO;
  GO.MaxLoop = 3;
  GO.Signals = 0;
  GO.Smc = 0;
  fuzz::Rng R(Seed ^ 0x5EED5017EULL);
  for (unsigned I = 0; I != SuitePrograms; ++I) {
    GO.MinBodyAtoms = GO.MaxBodyAtoms =
        SuiteMinAtoms +
        I * (SuiteMaxAtoms - SuiteMinAtoms) / (SuitePrograms - 1);
    fuzz::FuzzProgram P = fuzz::generate(R.next(), GO);
    P.LoopCount = 1 + I % 3; // the same loop-count mix for every seed
    Out.push_back({"fuzz" + std::to_string(I), fuzz::render(P),
                   P.StdinData});
  }
  return Out;
}

/// Native runs on the reference interpreter; None is the core with no tool.
enum class ToolKind { Native, None, Nulgrind, ICntInline, ICntCCall, Memcheck };

struct Config {
  const char *Name;
  ToolKind Kind;
  std::vector<std::string> Opts;
};

/// Index 0 is the native baseline; the rest are the tool columns.
std::vector<Config> configsFor(const std::string &Workload) {
  // Table 2 turns the leak scan off, as in the paper; the test suite keeps
  // Memcheck's defaults, exit-time leak scan included.
  std::vector<std::string> Mc;
  if (Workload == "table2")
    Mc.push_back("--leak-check=no");
  std::vector<std::string> Tiered = {"--chaining=yes", "--hot-threshold=50",
                                     "--trace-tier=yes"};
  std::vector<std::string> McTiered = Mc;
  McTiered.insert(McTiered.end(), Tiered.begin(), Tiered.end());
  return {{"native", ToolKind::Native, {}},
          {"nulgrind", ToolKind::Nulgrind, {}},
          {"icnt_inline", ToolKind::ICntInline, {}},
          {"icnt_ccall", ToolKind::ICntCCall, {}},
          {"memcheck", ToolKind::Memcheck, Mc},
          {"nulgrind_tiered", ToolKind::Nulgrind, Tiered},
          {"memcheck_tiered", ToolKind::Memcheck, McTiered}};
}

// --- tools -------------------------------------------------------------------

/// Whether a Timed tool records its instrument() spans; off while the
/// benchmark replays translations after the run.
struct TimingSwitch {
  bool Timing = true;
};

/// A tool that times its instrument() and fini() hooks as spans. It derives
/// from the concrete tool rather than wrapping it, because tool helpers
/// downcast ExecContext::Tool to their own class.
template <class T> class Timed final : public T, public TimingSwitch {
public:
  template <class... Args>
  explicit Timed(SpanLog &Log, Args &&...A)
      : T(std::forward<Args>(A)...), Log(Log) {}

  void instrument(ir::IRSB &SB) override {
    ScopedSpan S(Timing ? &Log : nullptr, "tools.instrument");
    T::instrument(SB);
  }
  void fini(int ExitCode) override {
    ScopedSpan S(&Log, "tools.fini");
    T::fini(ExitCode);
  }

private:
  SpanLog &Log;
};

template <class T, class... Args>
std::unique_ptr<Tool> makeTool(SpanLog *Log, Args &&...A) {
  if (Log)
    return std::make_unique<Timed<T>>(*Log, std::forward<Args>(A)...);
  return std::make_unique<T>(std::forward<Args>(A)...);
}

std::unique_ptr<Tool> makeTool(ToolKind K, SpanLog *Log) {
  switch (K) {
  case ToolKind::Nulgrind:
    return makeTool<Nulgrind>(Log);
  case ToolKind::ICntInline:
    return makeTool<ICnt>(Log, ICnt::Mode::Inline);
  case ToolKind::ICntCCall:
    return makeTool<ICnt>(Log, ICnt::Mode::CCall);
  case ToolKind::Memcheck:
    return makeTool<Memcheck>(Log);
  case ToolKind::Native:
  case ToolKind::None:
    break;
  }
  return nullptr;
}

void setTiming(Tool *T, bool On) {
  if (auto *S = dynamic_cast<TimingSwitch *>(T))
    S->Timing = On;
}

// --- runs --------------------------------------------------------------------

struct Reference {
  bool Completed = false;
  int ExitCode = 0;
  std::string Stdout;
};

/// Totals of the translation replay (traced run only).
struct ReplayTotals {
  uint64_t Blocks = 0;
  uint64_t StmtsAfterInstrument = 0;
  uint64_t StmtsAfterOptimise2 = 0;
  uint64_t CodeBytes = 0;
  uint64_t SizeMismatches = 0; ///< superblocks whose replayed code differs
};

/// Everything one tool run reports.
struct RunResult {
  bool Ok = false;   ///< completed and matched the reference
  bool Completed = false;
  int ExitCode = 0;
  double Seconds = 0; ///< Core construction to run() return
  CoreStats Stats;
  uint64_t Syscalls = 0;
  uint64_t Errors = 0; ///< error occurrences (Memcheck)
  uint64_t FastAccesses = 0, SlowAccesses = 0;
  uint64_t SecHits = 0, SecMisses = 0, ChunksHighWater = 0;
  std::string Stdout;
};

/// Replays every installed translation through the pipeline phases as
/// translateBlock runs them, phase by phase over all translations, with
/// one span per phase. Traces go through disassembleTrace without the
/// cross-seam passes (those need the run's chain profile), so only
/// superblocks are checked against the installed code size.
void replayTranslations(Core &C, SpanLog &Log, ReplayTotals &Tot) {
  ScopedSpan Root(&Log, "replay");
  setTiming(C.tool(), false);
  FetchFn Fetch = [&C](uint32_t Addr, uint8_t *Buf, uint32_t Max) {
    uint32_t N = 0;
    while (N < Max && !C.memory().fetch(Addr + N, Buf + N, 1).Faulted)
      ++N;
    return N;
  };
  struct Item {
    const Translation *T;
    Translation Scratch; ///< setupTranslation's target; not installed
    TranslationOptions TO;
    DisasmResult Dis;
    std::unique_ptr<ir::IRSB> SB;
    hvm::HostCode Host;
  };
  std::vector<std::unique_ptr<Item>> Items;
  C.transTab().forEach([&](const Translation &T) {
    auto I = std::make_unique<Item>();
    I->T = &T;
    if (T.Tier == 2)
      I->TO.Trace.Entries = T.TraceEntries;
    C.setupTranslation(I->TO, T.Addr, T.Tier >= 1, &I->Scratch);
    I->TO.Prof = nullptr;
    Items.push_back(std::move(I));
  });

  auto phase = [&](const char *Name, const auto &Fn) {
    ScopedSpan S(&Log, Name);
    for (auto &I : Items)
      Fn(*I);
  };
  phase("frontend.disasm", [&](Item &I) {
    I.Dis = I.T->Tier == 2
                ? disassembleTrace(I.TO.Trace, Fetch, I.TO.Frontend)
                : disassembleSB(I.T->Addr, Fetch, I.TO.Frontend);
  });
  phase("ir.optimise1", [](Item &I) {
    I.SB = ir::flatten(*I.Dis.SB);
    I.Dis.SB.reset();
    if (I.TO.RunOptimise1)
      ir::optimise1(*I.SB, I.TO.Spec, I.TO.Preserve);
  });
  phase("replay.instrument", [](Item &I) { I.TO.Instrument(*I.SB); });
  for (auto &I : Items)
    Tot.StmtsAfterInstrument += I->SB->stmts().size();
  phase("ir.optimise2", [](Item &I) {
    if (I.TO.RunOptimise2)
      ir::optimise2(*I.SB, I.TO.Spec, I.TO.Preserve);
  });
  for (auto &I : Items)
    Tot.StmtsAfterOptimise2 += I->SB->stmts().size();
  phase("ir.tree_build", [](Item &I) { ir::buildTrees(*I.SB); });
  phase("hvm.isel", [](Item &I) {
    I.Host = hvm::selectInstructions(*I.SB);
    I.SB.reset();
  });
  phase("hvm.regalloc", [](Item &I) { hvm::allocateRegisters(I.Host); });
  // A trace too big for the executor frame is dropped, as the run did.
  phase("hvm.encode", [&](Item &I) {
    if (I.Host.NumSpillSlots > hvm::Executor::MaxSpillSlots)
      return;
    std::vector<uint8_t> Bytes = hvm::encode(I.Host);
    ++Tot.Blocks;
    Tot.CodeBytes += Bytes.size();
    if (I.T->Tier != 2 && Bytes.size() != I.T->Blob.Bytes.size())
      ++Tot.SizeMismatches;
  });
  setTiming(C.tool(), true);
}

bool matches(const Reference &Ref, bool Completed, int ExitCode,
             const std::string &Stdout) {
  return Ref.Completed && Completed && ExitCode == Ref.ExitCode &&
         Stdout == Ref.Stdout;
}

/// Runs \p P under the core with \p Kind (None = no tool at all).
RunResult runCore(const Program &P, ToolKind Kind,
                  const std::vector<std::string> &Opts, const Reference &Ref,
                  SpanLog *Log, ReplayTotals *Replay) {
  RunResult R;
  std::unique_ptr<Tool> T = makeTool(Kind, Log);
  double T0 = now();
  Core C(T.get());
  CoreExit E;
  {
    ScopedSpan S(Log, "core.setup");
    C.output().useBuffer();
    std::vector<std::string> Unknown = C.options().parse(Opts);
    if (!Unknown.empty()) {
      std::fprintf(stderr, "perfbench: unknown option %s\n",
                   Unknown[0].c_str());
      std::exit(2);
    }
    C.applyOptions();
    C.kernel().provideStdin(P.Stdin);
    C.loadImage(P.Img);
  }
  {
    ScopedSpan S(Log, "core.run");
    E = C.run();
  }
  R.Seconds = now() - T0;
  R.Completed = E.K == CoreExit::Kind::Exited;
  R.ExitCode = E.Code;
  R.Stdout = C.kernel().stdoutText();
  R.Ok = matches(Ref, R.Completed, R.ExitCode, R.Stdout);
  R.Stats = C.stats();
  R.Syscalls = C.kernel().syscallCount();
  if (Kind == ToolKind::Memcheck) {
    R.Errors = C.errors().totalOccurrences();
    const ShadowStats &SS = static_cast<Memcheck *>(T.get())->shadow().stats();
    R.FastAccesses = SS.FastLoads + SS.FastStores;
    R.SlowAccesses = SS.SlowLoads + SS.SlowStores;
    R.SecHits = SS.SecCacheHits;
    R.SecMisses = SS.SecCacheMisses;
    R.ChunksHighWater = SS.HighWater;
  }
  if (Log && Replay)
    replayTranslations(C, *Log, *Replay);
  return R;
}

/// Times the whole runNative call, image mapping included, so the native
/// column is measured the same way as the tool columns.
RunResult runNativeTimed(const Program &P, const Reference &Ref,
                         SpanLog *Log) {
  RunResult R;
  double T0 = now();
  RunReport N;
  {
    ScopedSpan S(Log, "guest.native");
    N = runNative(P.Img, P.Stdin);
  }
  R.Seconds = now() - T0;
  R.Ok = matches(Ref, N.Completed, N.ExitCode, N.Stdout);
  R.Syscalls = N.Syscalls;
  return R;
}

// --- statistics ------------------------------------------------------------

/// Median of the non-NaN values; NaN when there are none.
double median(std::vector<double> V) {
  V.erase(std::remove_if(V.begin(), V.end(),
                         [](double X) { return std::isnan(X); }),
          V.end());
  if (V.empty())
    return NAN;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The highest percentile with at least ten samples beyond it: the value
/// with exactly ten larger samples (the maximum when there are fewer than
/// eleven), ignoring NaN. \p Pct receives its percentile.
double tail(std::vector<double> V, double &Pct) {
  V.erase(std::remove_if(V.begin(), V.end(),
                         [](double X) { return std::isnan(X); }),
          V.end());
  Pct = 0;
  if (V.empty())
    return NAN;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  size_t Idx = N > 10 ? N - 11 : N - 1;
  Pct = 100.0 * static_cast<double>(Idx + 1) / static_cast<double>(N);
  return V[Idx];
}

template <class T> void shuffle(std::vector<T> &V, fuzz::Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// Prints the metrics table and the result line. A metric that could not
/// be computed (every run of a cell failed) prints as 0 and makes the
/// result incorrect.
void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms) {
    std::printf("%-32s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit);
    Correct = Correct && std::isfinite(M.Value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I != Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(),
                std::isfinite(Ms[I].Value) ? Ms[I].Value : 0.0, Ms[I].Unit);
  std::printf("}}\n");
}

// --- the benchmark ---------------------------------------------------------

struct Bench {
  std::string Workload;
  uint64_t Seed = 0;
  std::vector<Program> Progs;
  std::vector<Config> Cfgs;
  std::vector<Reference> Refs;
  fuzz::Rng Order{0};
  uint64_t Attempted = 0, Failed = 0;
  /// Samples[program][config][round] = wall seconds of that visit (the
  /// median of its runs for native), NaN when a run did not match.
  std::vector<std::vector<std::vector<double>>> Samples;
  /// Wall seconds of each timed build of all the workload's images.
  std::vector<double> SetupTimes;

  /// Builds every image of the workload and times it. The first build
  /// supplies the images; later ones are timed and dropped. Builds are
  /// spread over the run (one before each program visit) because host
  /// speed drifts within a second, and setup_s is their median.
  void setUp() {
    double T0 = now();
    std::vector<Program> Built = buildPrograms(Workload, Seed);
    SetupTimes.push_back(now() - T0);
    if (Progs.empty())
      Progs = std::move(Built);
  }

  /// One round: every program under every configuration, in seeded order.
  /// With \p Log set the tool runs are traced and their translations
  /// replayed; \p Runs collects (program, config, result) when non-null.
  double round(SpanLog *Log, ReplayTotals *Replay,
               std::vector<std::tuple<size_t, size_t, RunResult>> *Runs) {
    double ToolSeconds = 0;
    std::vector<size_t> PI(Progs.size());
    for (size_t I = 0; I != PI.size(); ++I)
      PI[I] = I;
    shuffle(PI, Order);
    for (size_t P : PI) {
      if (!Log)
        setUp();
      std::vector<size_t> CI(Cfgs.size());
      for (size_t I = 0; I != CI.size(); ++I)
        CI[I] = I;
      shuffle(CI, Order);
      for (size_t Ci : CI) {
        const Config &Cfg = Cfgs[Ci];
        bool Native = Cfg.Kind == ToolKind::Native;
        std::vector<double> Visit;
        for (int Rep = 0; Rep != (Native ? NativeReps : 1); ++Rep) {
          ScopedSpan S(Log, "program");
          RunResult R = Native ? runNativeTimed(Progs[P], Refs[P], Log)
                               : runCore(Progs[P], Cfg.Kind, Cfg.Opts,
                                         Refs[P], Log, Replay);
          ++Attempted;
          if (!R.Ok) {
            ++Failed;
            std::fprintf(stderr, "perfbench: %s under %s: wrong output\n",
                         Progs[P].Name.c_str(), Cfg.Name);
          }
          Visit.push_back(R.Ok ? R.Seconds : NAN);
          if (!Native)
            ToolSeconds += R.Seconds;
          if (Runs)
            Runs->emplace_back(P, Ci, std::move(R));
        }
        Samples[P][Ci].push_back(median(Visit));
      }
    }
    return ToolSeconds;
  }

  /// Per-visit slow-downs of configuration \p Ci: each round's tool time
  /// over the native time of the same round, per program. Pairing by round
  /// keeps host speed drift between rounds out of the ratio.
  std::vector<std::vector<double>> visitRatios(size_t Ci) const {
    std::vector<std::vector<double>> Out;
    for (const auto &Row : Samples) {
      Out.emplace_back();
      for (size_t R = 0; R != Row[Ci].size(); ++R)
        Out.back().push_back(Row[Ci][R] / Row[0][R]);
    }
    return Out;
  }

  /// Geometric mean over programs of each program's median slow-down.
  double slowdown(size_t Ci) const {
    double LogSum = 0;
    int N = 0;
    for (const std::vector<double> &Ratios : visitRatios(Ci)) {
      double M = median(Ratios);
      if (M > 0) {
        LogSum += std::log(M);
        ++N;
      }
    }
    return N ? std::exp(LogSum / N) : NAN;
  }

  size_t configIndex(const char *Name) const {
    for (size_t I = 0; I != Cfgs.size(); ++I)
      if (std::strcmp(Cfgs[I].Name, Name) == 0)
        return I;
    std::abort();
  }
};

/// serial wall / sharded wall for mtcpu under Nulgrind with chaining, the
/// median of MtPairs alternating pairs. mtcpu needs a threaded kernel, so
/// the reference interpreter cannot run it: an untimed serial run is the
/// reference instead.
double mtSpeedup(SpanLog &Log, uint64_t &Attempted, uint64_t &Failed) {
  ScopedSpan Root(&Log, "mt_probe");
  Program P{"mtcpu", buildWorkload("mtcpu", MtScale), ""};
  unsigned Shards =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  auto opts = [](unsigned N) {
    return std::vector<std::string>{"--chaining=yes", "--hot-threshold=64",
                                    "--sched-threads=" + std::to_string(N)};
  };
  Reference Ref;
  RunResult First = runCore(P, ToolKind::Nulgrind, opts(1), Ref, nullptr,
                            nullptr);
  Ref = {First.Completed, First.ExitCode, First.Stdout};
  std::vector<double> Serial, Sharded;
  for (int I = 0; I != MtPairs; ++I)
    for (unsigned N : {1u, Shards}) {
      RunResult R =
          runCore(P, ToolKind::Nulgrind, opts(N), Ref, nullptr, nullptr);
      ++Attempted;
      if (!R.Ok)
        ++Failed;
      else
        (N == 1 ? Serial : Sharded).push_back(R.Seconds);
    }
  double S = median(Serial), M = median(Sharded);
  return M > 0 ? S / M : 0;
}

int usage() {
  std::fprintf(stderr, "usage: perfbench --workload table2|testsuite "
                       "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Bench B;
  int Trace = -1;
  std::string SpansPath;
  double Budget = -1;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string K = argv[I], V = argv[I + 1];
    if (K == "--workload")
      B.Workload = V;
    else if (K == "--seed")
      B.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      Budget = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      Trace = std::atoi(V.c_str());
    else if (K == "--spans")
      SpansPath = V;
    else
      return usage();
  }
  if ((B.Workload != "table2" && B.Workload != "testsuite") ||
      Budget <= 0 || (Trace != 0 && Trace != 1) || argc % 2 != 1)
    return usage();

  B.setUp();
  B.Cfgs = configsFor(B.Workload);
  B.Order = fuzz::Rng(B.Seed * 0x9E3779B97F4A7C15ull + 1);
  B.Samples.assign(B.Progs.size(),
                   std::vector<std::vector<double>>(B.Cfgs.size()));

  // References: one native run per program, outside the timed rounds.
  bool RefsOk = true;
  for (const Program &P : B.Progs) {
    RunReport N = runNative(P.Img, P.Stdin);
    RefsOk = RefsOk && N.Completed;
    B.Refs.push_back({N.Completed, N.ExitCode, N.Stdout});
  }

  double Nominal =
      B.Workload == "table2" ? Table2RoundSeconds : SuiteRoundSeconds;
  std::vector<Metric> Ms;
  if (Trace == 0) {
    int Rounds = std::max(1, static_cast<int>(Budget / Nominal));
    for (int I = 0; I != Rounds; ++I)
      B.round(nullptr, nullptr, nullptr);
    std::printf("workload=%s seed=%llu rounds=%d programs=%zu\n",
                B.Workload.c_str(), static_cast<unsigned long long>(B.Seed),
                Rounds, B.Progs.size());
    Ms.push_back({"setup_s", median(B.SetupTimes), "s"});
    for (size_t Ci = 1; Ci != B.Cfgs.size(); ++Ci)
      Ms.push_back({std::string(B.Cfgs[Ci].Name) + "_slowdown",
                    B.slowdown(Ci), "x"});
    for (const char *Tl : {"nulgrind", "memcheck"}) {
      std::vector<double> V;
      for (const auto &Ratios : B.visitRatios(B.configIndex(Tl)))
        V.insert(V.end(), Ratios.begin(), Ratios.end());
      double Pct = 0;
      double Tail = tail(V, Pct);
      std::printf("%s_slowdown_tail: n=%zu, p%.1f\n", Tl, V.size(), Pct);
      Ms.push_back({std::string(Tl) + "_slowdown_tail", Tail, "x"});
    }
    Ms.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  } else {
    SpanLog Log;
    double Untraced = 0, Traced = 0;
    // Untraced and traced rounds alternate; the budget covers both.
    int Rounds = std::max(1, static_cast<int>(Budget / (2 * Nominal)));
    ReplayTotals Replay;
    std::vector<std::tuple<size_t, size_t, RunResult>> Runs;
    std::vector<double> NoTool(B.Progs.size()),
        NoToolTranslate(B.Progs.size());
    for (int I = 0; I != Rounds; ++I) {
      Untraced += B.round(nullptr, nullptr, nullptr);
      Traced += B.round(&Log, &Replay, &Runs);
    }
    // A run with no tool at all per program: the base that tools.analysis_s
    // and hvm.exec_s subtract.
    for (size_t P = 0; P != B.Progs.size(); ++P) {
      RunResult R = runCore(B.Progs[P], ToolKind::None, {}, B.Refs[P],
                            nullptr, nullptr);
      ++B.Attempted;
      B.Failed += !R.Ok;
      NoTool[P] = R.Seconds;
      NoToolTranslate[P] = R.Stats.TranslateSeconds;
    }
    double MtSpeedup = mtSpeedup(Log, B.Attempted, B.Failed);

    // Aggregate the traced runs. Sums are reported per round: each program
    // once under each configuration.
    CoreStats Sum;
    uint64_t Syscalls = 0, Fast = 0, Slow = 0, SecHits = 0, SecMisses = 0,
             HighWater = 0, McErrors = 0;
    double Analysis = 0, Exec = 0;
    size_t McIdx = B.configIndex("memcheck");
    std::vector<uint64_t> ErrorsPerProgram(B.Progs.size());
    for (auto &[P, Ci, R] : Runs) {
      if (B.Cfgs[Ci].Kind == ToolKind::Native)
        continue;
      const CoreStats &S = R.Stats;
      Sum.BlocksDispatched += S.BlocksDispatched;
      Sum.FastCacheHits += S.FastCacheHits;
      Sum.FastCacheMisses += S.FastCacheMisses;
      Sum.Translations += S.Translations;
      Sum.ChainedTransfers += S.ChainedTransfers;
      Sum.HotPromotions += S.HotPromotions;
      Sum.TracesFormed += S.TracesFormed;
      Sum.TraceExecs += S.TraceExecs;
      Sum.TraceSideExits += S.TraceSideExits;
      Sum.TranslateSeconds += S.TranslateSeconds;
      Syscalls += R.Syscalls;
      Fast += R.FastAccesses;
      Slow += R.SlowAccesses;
      SecHits += R.SecHits;
      SecMisses += R.SecMisses;
      HighWater = std::max(HighWater, R.ChunksHighWater);
      Analysis += R.Seconds - NoTool[P];
      if (Ci == McIdx)
        ErrorsPerProgram[P] = R.Errors; // the same in every round
    }
    for (size_t P = 0; P != B.Progs.size(); ++P) {
      Exec += NoTool[P] - NoToolTranslate[P];
      McErrors += ErrorsPerProgram[P];
    }

    std::map<std::string, double> Self = Log.selfTimes();
    std::printf("workload=%s seed=%llu rounds=%d spans=%zu "
                "replayed=%llu size-mismatches=%llu\n",
                B.Workload.c_str(), static_cast<unsigned long long>(B.Seed),
                Rounds, Log.size(),
                static_cast<unsigned long long>(Replay.Blocks),
                static_cast<unsigned long long>(Replay.SizeMismatches));
    std::printf("self time per span:\n");
    for (const auto &[Name, Secs] : Self)
      std::printf("  %-24s %12.6f s\n", Name.c_str(), Secs);
    std::printf("memcheck errors per program:");
    for (size_t P = 0; P != B.Progs.size(); ++P)
      if (ErrorsPerProgram[P])
        std::printf(" %s=%llu", B.Progs[P].Name.c_str(),
                    static_cast<unsigned long long>(ErrorsPerProgram[P]));
    std::printf("\n");
    if (!SpansPath.empty() && !Log.write(SpansPath))
      std::fprintf(stderr, "perfbench: cannot write %s\n", SpansPath.c_str());

    auto perRound = [&](double X) { return X / Rounds; };
    auto self = [&](const char *N) {
      auto It = Self.find(N);
      return It == Self.end() ? 0.0 : perRound(It->second);
    };
    auto count = [&](uint64_t N) { return perRound(static_cast<double>(N)); };
    auto ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
    double Blocks = static_cast<double>(Sum.BlocksDispatched);
    Ms = {
        {"frontend.disasm_s", self("frontend.disasm"), "s"},
        {"ir.optimise1_s", self("ir.optimise1"), "s"},
        {"ir.optimise2_s", self("ir.optimise2"), "s"},
        {"ir.tree_build_s", self("ir.tree_build"), "s"},
        {"hvm.isel_s", self("hvm.isel"), "s"},
        {"hvm.regalloc_s", self("hvm.regalloc"), "s"},
        {"hvm.encode_s", self("hvm.encode"), "s"},
        {"ir.stmts_after_instrument", count(Replay.StmtsAfterInstrument),
         "count"},
        {"ir.stmts_after_optimise2", count(Replay.StmtsAfterOptimise2),
         "count"},
        {"hvm.code_bytes", count(Replay.CodeBytes), "bytes"},
        {"tools.instrument_s", self("tools.instrument"), "s"},
        {"tools.fini_s", self("tools.fini"), "s"},
        {"tools.analysis_s", perRound(Analysis), "s"},
        {"tools.memcheck_errors", static_cast<double>(McErrors), "count"},
        {"hvm.exec_s", Exec, "s"},
        {"core.setup_s", self("core.setup"), "s"},
        {"core.run_self_s", self("core.run"), "s"},
        {"core.translate_s", perRound(Sum.TranslateSeconds), "s"},
        {"core.translations", count(Sum.Translations), "count"},
        {"core.blocks_dispatched", perRound(Blocks), "count"},
        {"core.fast_cache_hit_ratio",
         ratio(static_cast<double>(Sum.FastCacheHits),
               static_cast<double>(Sum.FastCacheHits + Sum.FastCacheMisses)),
         "ratio"},
        {"core.chained_ratio",
         ratio(static_cast<double>(Sum.ChainedTransfers), Blocks), "ratio"},
        {"core.hot_promotions", count(Sum.HotPromotions), "count"},
        {"core.traces_formed", count(Sum.TracesFormed), "count"},
        // Raw: the side-exit counter is known to exceed executions.
        {"core.trace_side_exit_ratio",
         ratio(static_cast<double>(Sum.TraceSideExits),
               static_cast<double>(Sum.TraceExecs)),
         "ratio"},
        {"core.mt_speedup", MtSpeedup, "x"},
        {"shadow.fast_ratio",
         ratio(static_cast<double>(Fast), static_cast<double>(Fast + Slow)),
         "ratio"},
        {"shadow.slow_accesses", count(Slow), "count"},
        {"shadow.sec_cache_hit_ratio",
         ratio(static_cast<double>(SecHits),
               static_cast<double>(SecHits + SecMisses)),
         "ratio"},
        {"shadow.chunks_high_water", static_cast<double>(HighWater), "count"},
        {"guest.native_s", self("guest.native"), "s"},
        {"kernel.syscalls", count(Syscalls), "count"},
        {"trace.overhead_ratio", ratio(Traced, Untraced), "x"},
    };
  }
  std::printf("failed_share=%.6f (%llu of %llu runs)\n",
              B.Attempted ? static_cast<double>(B.Failed) / B.Attempted : 0.0,
              static_cast<unsigned long long>(B.Failed),
              static_cast<unsigned long long>(B.Attempted));
  printResult(RefsOk && B.Failed == 0, B.Attempted, B.Failed, Ms);
  return 0;
}
