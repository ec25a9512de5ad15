//===-- fuzz/DiffRunner.h - Oracle-vs-JIT differential executor -*- C++ -*-==//
///
/// \file
/// Runs one generated program N ways — the reference interpreter as oracle,
/// then the full JIT pipeline across the optimisation/chaining/trace-tier
/// matrix and under each tool — and compares everything the guest can
/// observe about itself: stdout (which carries the register dump, flag
/// probes, FP dump and memory checksum the generator's epilogue emits),
/// exit status, and completion. On top of that it checks per-config
/// invariants the tools define: ICnt's instruction count must equal the
/// oracle's retired-instruction count, Memcheck must be error-free on
/// hygienic programs, and SMC programs must force at least one
/// retranslation.
///
//===----------------------------------------------------------------------===//
#ifndef VG_FUZZ_DIFFRUNNER_H
#define VG_FUZZ_DIFFRUNNER_H

#include "core/Launcher.h"
#include "fuzz/ProgramGen.h"

namespace vg {
namespace fuzz {

/// One cell of the config matrix.
struct FuzzConfig {
  std::string Name;
  std::string ToolName; ///< nulgrind|icnt|icntc|memcheck|cachegrind|
                        ///< taintgrind|loopgrind
  std::vector<std::string> Opts;
  bool CheckInsnCount = false;     ///< ICnt count == oracle instruction count
  bool CheckMemcheckClean = false; ///< zero unique Memcheck errors expected
  /// SMC programs must show >= 1 SmcFail retranslation. Only asserted in
  /// cells that never retranslate a live block for another reason: a trace
  /// formed (or an injected TT flush taken) after the patch is translated
  /// from the already-patched bytes, which is correct behaviour (the guest
  /// sees new code) but never takes the SmcFail path. Data transparency is
  /// still checked everywhere via the stdout comparison.
  bool CheckSmcRetrans = true;
  /// Run the program twice against one fresh --tt-cache directory: the
  /// first (cold) run populates it, the second (warm) run installs from it.
  /// Both runs are diffed against the oracle; warm divergences are reported
  /// under "<name>-warm". Exercises serialize -> deserialize -> install for
  /// every translation the program produces.
  bool CacheTwice = false;
};

/// One observed disagreement between the oracle and a config.
struct Divergence {
  std::string Config; ///< matrix cell name, or "oracle" for oracle failures
  std::string Field;  ///< stdout|exit|completed|fatalsig|icnt|mc-errors|smc
  std::string Expect, Got;

  std::string describe() const {
    return Config + ": " + Field + ": expected [" + Expect + "] got [" + Got +
           "]";
  }
};

struct DiffResult {
  std::vector<Divergence> Divs;
  bool ok() const { return Divs.empty(); }
};

/// The default matrix. Signal/SMC-aware: SMC programs get --smc-check=all
/// everywhere; fault-injection seeds derive from the program seed and only
/// use observation-neutral kinds (preempt/ttflush, + sigstorm when the
/// program installs handlers).
std::vector<FuzzConfig> defaultMatrix(const FuzzProgram &P);

/// Executes the oracle once and every config against it.
DiffResult diffRun(const FuzzProgram &P, const std::vector<FuzzConfig> &M);

/// Executes the oracle plus a single config (the shrinker's predicate).
DiffResult diffRunOne(const FuzzProgram &P, const FuzzConfig &C);

} // namespace fuzz
} // namespace vg

#endif // VG_FUZZ_DIFFRUNNER_H
