//===-- bench/table2_slowdown.cpp - Reproduces Table 2 --------------------==//
///
/// \file
/// The paper's headline evaluation (Section 5.4, Table 2): slow-down
/// factors of four tools — Nulgrind (no instrumentation), ICntI (inline
/// instruction counter), ICntC (C-call instruction counter), and Memcheck —
/// relative to native execution, on the SPEC-like workload suite, with
/// per-column geometric means. A fifth column runs Nulgrind with chaining
/// on (--chaining=yes) to show its effect on the headline slow-down, and
/// two more run Nulgrind and Memcheck with the trace tier stacked on top of
/// that (--hot-threshold=50 --trace-tier=yes) to show the second tier's.
///
/// "Native" is the reference interpreter (see DESIGN.md: the substitution
/// for direct hardware execution). Expected shape, as in the paper:
/// Nulgrind < ICntI < ICntC << Memcheck, with Memcheck in the tens.
///
/// Environment: VG_BENCH_SCALE multiplies workload size (default 1).
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "tools/ICnt.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>

using namespace vg;

namespace {

uint32_t benchScale() {
  if (const char *E = std::getenv("VG_BENCH_SCALE"))
    return static_cast<uint32_t>(std::max(1L, std::strtol(E, nullptr, 10)));
  return 1;
}

struct Row {
  std::string Name;
  double NativeSec = 0;
  // nulgrind, icnt-i, icnt-c, memcheck, nulgrind+chaining,
  // nulgrind+traces, memcheck+traces
  double Factor[7] = {0, 0, 0, 0, 0, 0, 0};
};

} // namespace

int main() {
  uint32_t Scale = benchScale();
  std::printf("== Table 2: tool slow-down factors vs native (scale %u) ==\n",
              Scale);
  std::printf("%-10s %10s %9s %9s %9s %9s %9s %9s %9s\n", "Program",
              "Nat.(s)", "Nulg.", "ICntI", "ICntC", "Memc.", "Nulg.+c",
              "Nulg.+t", "Memc.+t");

  std::vector<Row> Rows;
  double GeoSum[7] = {0, 0, 0, 0, 0, 0, 0};
  int GeoN = 0;

  for (const WorkloadInfo &W : allWorkloads()) {
    GuestImage Img = buildWorkload(W.Name, Scale);
    // Min-of-3 native runs: the baseline is fast enough that scheduler
    // noise would otherwise dominate the factors.
    RunReport Native = runNative(Img);
    for (int Rep = 0; Rep != 2 && Native.Completed; ++Rep) {
      RunReport Again = runNative(Img);
      if (Again.Completed && Again.Seconds < Native.Seconds)
        Native = Again;
    }
    if (!Native.Completed) {
      std::printf("%-10s  FAILED natively\n", W.Name.c_str());
      continue;
    }
    Row R;
    R.Name = W.Name;
    R.NativeSec = Native.Seconds;

    for (int T = 0; T != 7; ++T) {
      std::unique_ptr<Tool> Tool;
      std::vector<std::string> Opts = {"--smc-check=none"};
      switch (T) {
      case 0:
        Tool = std::make_unique<Nulgrind>();
        break;
      case 1:
        Tool = std::make_unique<ICnt>(ICnt::Mode::Inline);
        break;
      case 2:
        Tool = std::make_unique<ICnt>(ICnt::Mode::CCall);
        break;
      case 3:
        Tool = std::make_unique<Memcheck>();
        Opts.push_back("--leak-check=no"); // as in the paper's Table 2 runs
        break;
      case 4:
        Tool = std::make_unique<Nulgrind>();
        Opts.push_back("--chaining=yes");
        break;
      case 5:
        Tool = std::make_unique<Nulgrind>();
        Opts.push_back("--chaining=yes");
        Opts.push_back("--hot-threshold=50");
        Opts.push_back("--trace-tier=yes");
        break;
      case 6:
        Tool = std::make_unique<Memcheck>();
        Opts.push_back("--leak-check=no");
        Opts.push_back("--chaining=yes");
        Opts.push_back("--hot-threshold=50");
        Opts.push_back("--trace-tier=yes");
        break;
      }
      RunReport Rep = runUnderCore(Img, Tool.get(), Opts);
      {
        // Min-of-2 for the tool runs as well.
        RunReport Again = runUnderCore(Img, Tool.get(), Opts);
        if (Again.Completed && Again.Seconds < Rep.Seconds)
          Rep = Again;
      }
      bool Ok = Rep.Completed && Rep.Stdout == Native.Stdout;
      R.Factor[T] = Ok && Native.Seconds > 0
                        ? Rep.Seconds / Native.Seconds
                        : -1;
    }
    std::printf("%-10s %10.3f %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f\n",
                R.Name.c_str(), R.NativeSec, R.Factor[0], R.Factor[1],
                R.Factor[2], R.Factor[3], R.Factor[4], R.Factor[5],
                R.Factor[6]);
    bool AllOk = true;
    for (double F : R.Factor)
      AllOk = AllOk && F > 0;
    if (AllOk) {
      for (int T = 0; T != 7; ++T)
        GeoSum[T] += std::log(R.Factor[T]);
      ++GeoN;
    }
    Rows.push_back(R);
  }

  if (GeoN) {
    std::printf("%-10s %10s", "geo. mean", "");
    for (int T = 0; T != 7; ++T)
      std::printf(" %9.1f", std::exp(GeoSum[T] / GeoN));
    std::printf("\n");
    std::printf("\n(paper, SPEC CPU2000 on real hardware: Nulgrind 4.3x, "
                "ICntI 8.8x, ICntC 13.5x, Memcheck 22.1x;\n the expected "
                "*shape* — Nulgrind < ICntI < ICntC << Memcheck — is the "
                "reproduction target.)\n");
  }

  // Machine-readable copy of the table for regression tracking.
  {
    static const char *ToolNames[7] = {"nulgrind",     "icnt_inline",
                                       "icnt_ccall",   "memcheck",
                                       "nulgrind_chain", "nulgrind_traces",
                                       "memcheck_traces"};
    std::ofstream F("BENCH_table2.json");
    F << "{\n  \"bench\": \"table2_slowdown\",\n  \"scale\": " << Scale
      << ",\n  \"unit\": \"slowdown_factor_vs_native\",\n  \"rows\": [\n";
    for (size_t I = 0; I != Rows.size(); ++I) {
      const Row &R = Rows[I];
      F << "    {\"program\": \"" << R.Name
        << "\", \"native_sec\": " << R.NativeSec;
      for (int T = 0; T != 7; ++T)
        F << ", \"" << ToolNames[T] << "\": " << R.Factor[T];
      F << "}" << (I + 1 != Rows.size() ? "," : "") << "\n";
    }
    F << "  ],\n  \"geo_mean\": {";
    for (int T = 0; T != 7; ++T)
      F << (T ? ", " : "") << "\"" << ToolNames[T] << "\": "
        << (GeoN ? std::exp(GeoSum[T] / GeoN) : -1.0);
    F << "}\n}\n";
    std::printf("(wrote BENCH_table2.json)\n");
  }
  return 0;
}
