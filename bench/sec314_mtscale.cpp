//===-- bench/sec314_mtscale.cpp - Section 3.14: parallel scaling ---------==//
///
/// \file
/// Measures what breaking the big lock buys: the "mtcpu" workload — four
/// cloned guest threads, each CPU-bound over a private buffer — runs under
/// Nulgrind with chaining at --sched-threads=1, 2, and 4, and the bench
/// reports wall-clock speedup over the serialised scheduler. Correctness
/// is asserted unconditionally (every configuration must complete with
/// exit 0 and print the same checksum); the speedup target (>= 1.5x at
/// --sched-threads=4) is asserted only when the host actually has >= 4
/// hardware threads — on a smaller host the sharded scheduler cannot
/// physically run guests in parallel and the bench degrades to a
/// correctness + overhead report.
///
/// VG_MTSCALE_QUICK=1 shrinks the workload for use as a smoke test.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

using namespace vg;

namespace {

struct Sample {
  bool Ok = false;
  double Seconds = 0;
  std::string Stdout;
  uint64_t Blocks = 0;
};

Sample runOnce(const GuestImage &Img, unsigned SchedThreads) {
  Nulgrind T;
  char Opt[48];
  std::snprintf(Opt, sizeof Opt, "--sched-threads=%u", SchedThreads);
  RunReport R = runUnderCore(Img, &T, {Opt, "--chaining=yes"});
  Sample S;
  S.Ok = R.Completed && !R.FatalSignal && R.ExitCode == 0;
  S.Seconds = R.Seconds;
  S.Stdout = R.Stdout;
  S.Blocks = R.Stats.BlocksDispatched;
  return S;
}

/// Best of \p Reps runs (wall-clock benches on shared machines need the
/// minimum, not the mean).
Sample best(const GuestImage &Img, unsigned SchedThreads, int Reps) {
  Sample B;
  for (int I = 0; I != Reps; ++I) {
    Sample S = runOnce(Img, SchedThreads);
    if (!S.Ok)
      return S;
    if (!B.Ok || S.Seconds < B.Seconds)
      B = S;
  }
  return B;
}

} // namespace

int main() {
  bool Quick = std::getenv("VG_MTSCALE_QUICK") != nullptr;
  uint32_t Scale = Quick ? 20 : 400;
  int Reps = Quick ? 1 : 3;
  unsigned HostThreads = std::thread::hardware_concurrency();

  std::printf("== Section 3.14: parallel guest execution scaling ==\n");
  std::printf("workload=mtcpu (4 guest threads) scale=%u tool=nulgrind "
              "host-threads=%u\n",
              Scale, HostThreads);

  GuestImage Img = buildWorkload("mtcpu", Scale);

  const unsigned Configs[] = {1, 2, 4};
  Sample S[3];
  for (int I = 0; I != 3; ++I) {
    S[I] = best(Img, Configs[I], Reps);
    if (!S[I].Ok) {
      std::printf("FAIL: --sched-threads=%u did not complete cleanly\n",
                  Configs[I]);
      return 1;
    }
  }

  std::printf("%-16s %10s %12s %9s\n", "config", "seconds", "blocks",
              "speedup");
  for (int I = 0; I != 3; ++I)
    std::printf("sched-threads=%-2u %10.3f %12llu %8.2fx\n", Configs[I],
                S[I].Seconds,
                static_cast<unsigned long long>(S[I].Blocks),
                S[I].Seconds > 0 ? S[0].Seconds / S[I].Seconds : 0.0);

  for (int I = 1; I != 3; ++I) {
    if (S[I].Stdout != S[0].Stdout) {
      std::printf("FAIL: --sched-threads=%u checksum diverged from the "
                  "serialised scheduler\n",
                  Configs[I]);
      return 1;
    }
  }

  double Speedup4 = S[2].Seconds > 0 ? S[0].Seconds / S[2].Seconds : 0.0;
  if (HostThreads >= 4) {
    if (Speedup4 < 1.5) {
      std::printf("FAIL: speedup at --sched-threads=4 is %.2fx "
                  "(target >= 1.5x on a >=4-thread host)\n",
                  Speedup4);
      return 1;
    }
    std::printf("RESULT: %.2fx at --sched-threads=4, checksums identical\n",
                Speedup4);
  } else {
    std::printf("RESULT: host has %u hardware thread(s); speedup target "
                "not applicable — checksums identical, overhead %.1f%%\n",
                HostThreads,
                S[0].Seconds > 0
                    ? 100.0 * (S[2].Seconds - S[0].Seconds) / S[0].Seconds
                    : 0.0);
  }
  return 0;
}
