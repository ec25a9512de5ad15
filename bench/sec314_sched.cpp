//===-- bench/sec314_sched.cpp - Sections 3.14/3.15: scheduler soak -------==//
///
/// \file
/// Soak-tests the thread scheduler and signal machinery (Sections 3.14 and
/// 3.15) under deterministic fault injection. For each seed the "sigmt"
/// workload — two cloned children storming each other and the main thread
/// with signals — runs under Nulgrind and Memcheck with every fault kind
/// enabled, and must:
///  - exit cleanly (status 0, no fatal signal) whatever the fault plan;
///  - produce zero Memcheck errors (no false positives from signal
///    frames, partial transfers, or failed syscalls);
///  - reproduce a byte-identical --trace-events dump when the same seed
///    is replayed.
///
/// VG_SOAK_QUICK=1 in the environment shrinks the run from 50 seeds to 5
/// for use as a smoke test (scripts/verify.sh).
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "tools/Memcheck.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace vg;

namespace {

/// Extracts the "=== event trace ... === end event trace ===" block from a
/// run's tool-output channel; empty if no dump was found.
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

/// True if the Memcheck ERROR SUMMARY line reports zero errors.
bool zeroMemcheckErrors(const std::string &Output) {
  size_t Pos = Output.find("ERROR SUMMARY: ");
  if (Pos == std::string::npos)
    return false;
  return Output.compare(Pos, 22, "ERROR SUMMARY: 0 error") == 0;
}

std::vector<std::string> soakOptions(uint64_t Seed) {
  char Spec[64];
  std::snprintf(Spec, sizeof Spec, "--fault-inject=all,seed=%llu",
                static_cast<unsigned long long>(Seed));
  return {Spec, "--trace-events=yes", "--trace-dump=yes", "--chaining=yes"};
}

int Failures = 0;

void fail(uint64_t Seed, const char *Tool, const char *What) {
  std::printf("FAIL seed=%llu tool=%s: %s\n",
              static_cast<unsigned long long>(Seed), Tool, What);
  ++Failures;
}

/// One seed under one tool: run twice, check clean exits and replay.
void soakOne(const GuestImage &Img, uint64_t Seed, bool UseMemcheck) {
  const char *Name = UseMemcheck ? "memcheck" : "nulgrind";
  std::string Trace[2];
  for (int Rep = 0; Rep != 2; ++Rep) {
    Nulgrind Null;
    Memcheck Mc; // fresh per run: tools carry per-run state
    Tool *T = UseMemcheck ? static_cast<Tool *>(&Mc)
                          : static_cast<Tool *>(&Null);
    RunReport R = runUnderCore(Img, T, soakOptions(Seed));
    if (!R.Completed || R.FatalSignal) {
      fail(Seed, Name, "did not run to exit");
      return;
    }
    if (R.ExitCode != 0) {
      fail(Seed, Name, "nonzero exit code");
      return;
    }
    if (UseMemcheck && !zeroMemcheckErrors(R.ToolOutput)) {
      fail(Seed, Name, "Memcheck reported errors (false positives)");
      return;
    }
    Trace[Rep] = extractTrace(R.ToolOutput);
    if (Trace[Rep].empty()) {
      fail(Seed, Name, "no event-trace dump in tool output");
      return;
    }
  }
  if (Trace[0] != Trace[1])
    fail(Seed, Name, "replay trace differs (nondeterminism)");
}

} // namespace

int main() {
  bool Quick = std::getenv("VG_SOAK_QUICK") != nullptr;
  const uint64_t NSeeds = Quick ? 5 : 50;

  std::printf("== Sections 3.14/3.15: scheduler/signal fault-injection "
              "soak ==\n");
  std::printf("workload=sigmt seeds=%llu tools=nulgrind,memcheck "
              "(each seed run twice for replay)\n",
              static_cast<unsigned long long>(NSeeds));

  GuestImage Img = buildWorkload("sigmt", 1);
  for (uint64_t Seed = 1; Seed <= NSeeds; ++Seed) {
    soakOne(Img, Seed, /*UseMemcheck=*/false);
    soakOne(Img, Seed, /*UseMemcheck=*/true);
    if (Seed % 10 == 0 || Seed == NSeeds)
      std::printf("  ... %llu/%llu seeds done\n",
                  static_cast<unsigned long long>(Seed),
                  static_cast<unsigned long long>(NSeeds));
  }

  if (Failures) {
    std::printf("RESULT: %d failure(s)\n", Failures);
    return 1;
  }
  std::printf("RESULT: all %llu seeds clean — deterministic replay, zero "
              "Memcheck errors\n",
              static_cast<unsigned long long>(NSeeds));
  return 0;
}
