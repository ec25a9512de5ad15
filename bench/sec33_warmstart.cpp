//===-- bench/sec33_warmstart.cpp - Persistent-cache warm start -----------==//
///
/// \file
/// Measures what --tt-cache buys on the Table 2 trio: a cold run pays the
/// full eight-phase pipeline for every translation and writes each result
/// back to disk; a warm run of the same binary+tool+options installs the
/// deserialized translations instead. Reports translation time (the
/// guest-thread seconds spent producing installed translations — pipeline
/// time cold, load+validate time warm), hit rates, and end-to-end wall
/// time, and *asserts* the contract: warm stdout byte-identical to cold,
/// zero rejects, and a warm hit rate of at least 70%.
///
/// Emits BENCH_warmstart.json for regression tracking.
///
//===----------------------------------------------------------------------===//

#include "core/Launcher.h"
#include "tools/Nulgrind.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace vg;

namespace {

constexpr int Reps = 3; // best-of, to damp scheduler noise

struct Cell {
  double Seconds = 0;     ///< best end-to-end wall time
  double XlateSeconds = 0; ///< translation time from the best-wall run
  JitStats Jit;
  uint64_t Translations = 0;
  std::string Stdout;
};

int Failures = 0;

void check(bool Ok, const char *What, const std::string &Prog) {
  if (!Ok) {
    std::printf("FAIL [%s]: %s\n", Prog.c_str(), What);
    ++Failures;
  }
}

} // namespace

int main() {
  uint32_t Scale = 1;
  if (const char *E = std::getenv("VG_BENCH_SCALE"))
    Scale = static_cast<uint32_t>(std::atoi(E));

  std::filesystem::path CacheRoot =
      std::filesystem::temp_directory_path() /
      ("vg-warmstart-" + std::to_string(getpid()));
  std::filesystem::remove_all(CacheRoot);

  std::printf("== Section 3.3/3.7: persistent translation cache "
              "(warm start) ==\n");
  std::printf("(xlate = guest-thread translation seconds: pipeline when "
              "cold, load+validate when warm)\n\n");
  std::printf("%-10s %6s %9s %10s %6s %6s %6s %6s %8s\n", "workload",
              "run", "time(s)", "xlate(ms)", "xl8ns", "hits", "miss",
              "wrote", "hit-rate");

  struct Row {
    std::string Name;
    Cell Cold, Warm;
  };
  std::vector<Row> Rows;

  for (const char *Name : {"crafty", "mcf", "gcc"}) {
    GuestImage Img = buildWorkload(Name, Scale);
    Row R;
    R.Name = Name;
    for (int Rep = 0; Rep != Reps; ++Rep) {
      // Fresh directory per rep so every cold run is genuinely cold; the
      // warm run follows it against the directory it just populated.
      std::filesystem::path Dir =
          CacheRoot / (std::string(Name) + "-" + std::to_string(Rep));
      std::vector<std::string> Opts = {
          "--smc-check=none", "--chaining=yes", "--tt-cache=" + Dir.string()};
      Nulgrind T1, T2;
      RunReport Cold = runUnderCore(Img, &T1, Opts);
      RunReport Warm = runUnderCore(Img, &T2, Opts);
      check(Cold.Completed && Warm.Completed, "run did not complete", Name);
      check(Warm.Stdout == Cold.Stdout,
            "warm stdout differs from cold stdout", Name);
      if (Rep == 0 || Cold.Seconds < R.Cold.Seconds) {
        R.Cold = {Cold.Seconds, Cold.Stats.TranslateSeconds, Cold.Jit,
                  Cold.Stats.Translations, Cold.Stdout};
      }
      if (Rep == 0 || Warm.Seconds < R.Warm.Seconds) {
        R.Warm = {Warm.Seconds, Warm.Stats.TranslateSeconds, Warm.Jit,
                  Warm.Stats.Translations, Warm.Stdout};
      }
    }
    for (const auto &[Label, C] :
         {std::pair<const char *, const Cell &>{"cold", R.Cold},
          std::pair<const char *, const Cell &>{"warm", R.Warm}}) {
      uint64_t Lookups =
          C.Jit.CacheHits + C.Jit.CacheMisses + C.Jit.CacheRejects;
      std::printf("%-10s %6s %9.4f %10.3f %6llu %6llu %6llu %6llu %7.1f%%\n",
                  R.Name.c_str(), Label, C.Seconds, 1e3 * C.XlateSeconds,
                  static_cast<unsigned long long>(C.Translations),
                  static_cast<unsigned long long>(C.Jit.CacheHits),
                  static_cast<unsigned long long>(C.Jit.CacheMisses),
                  static_cast<unsigned long long>(C.Jit.CacheWrites),
                  Lookups ? 100.0 * static_cast<double>(C.Jit.CacheHits) /
                                static_cast<double>(Lookups)
                          : 0.0);
    }
    // The acceptance contract.
    uint64_t WarmLookups = R.Warm.Jit.CacheHits + R.Warm.Jit.CacheMisses +
                           R.Warm.Jit.CacheRejects;
    check(R.Cold.Jit.CacheWrites > 0, "cold run wrote no entries", R.Name);
    check(R.Warm.Jit.CacheHits > 0, "warm run had no hits", R.Name);
    check(R.Warm.Jit.CacheRejects == 0, "warm run rejected entries",
          R.Name);
    check(WarmLookups != 0 && 10 * R.Warm.Jit.CacheHits >= 7 * WarmLookups,
          "warm hit rate below 70%", R.Name);
    Rows.push_back(std::move(R));
  }

  double ColdXlate = 0, WarmXlate = 0;
  for (const Row &R : Rows) {
    ColdXlate += R.Cold.XlateSeconds;
    WarmXlate += R.Warm.XlateSeconds;
  }
  std::printf("\ntotal translation time: cold %.3fms, warm %.3fms "
              "(%.1fx)\n",
              1e3 * ColdXlate, 1e3 * WarmXlate,
              WarmXlate > 0 ? ColdXlate / WarmXlate : 0.0);
  std::printf("(expected: warm runs replace eight-phase pipelines with a "
              "read+checksum+hash-check per\n block; output must stay "
              "byte-identical — the cache can change only where\n "
              "translations come from, never what they do.)\n");

  {
    std::ofstream F("BENCH_warmstart.json");
    F << "{\n  \"bench\": \"sec33_warmstart\",\n  \"scale\": " << Scale
      << ",\n  \"unit\": \"seconds\",\n  \"rows\": [\n";
    for (size_t I = 0; I != Rows.size(); ++I) {
      const Row &R = Rows[I];
      uint64_t WarmLookups = R.Warm.Jit.CacheHits + R.Warm.Jit.CacheMisses +
                             R.Warm.Jit.CacheRejects;
      F << "    {\"program\": \"" << R.Name << "\""
        << ", \"cold_sec\": " << R.Cold.Seconds
        << ", \"warm_sec\": " << R.Warm.Seconds
        << ", \"cold_xlate_sec\": " << R.Cold.XlateSeconds
        << ", \"warm_xlate_sec\": " << R.Warm.XlateSeconds
        << ", \"cold_writes\": " << R.Cold.Jit.CacheWrites
        << ", \"warm_hits\": " << R.Warm.Jit.CacheHits
        << ", \"warm_misses\": " << R.Warm.Jit.CacheMisses
        << ", \"warm_rejects\": " << R.Warm.Jit.CacheRejects
        << ", \"warm_hit_rate\": "
        << (WarmLookups ? static_cast<double>(R.Warm.Jit.CacheHits) /
                              static_cast<double>(WarmLookups)
                        : 0.0)
        << ", \"stdout_identical\": true}"
        << (I + 1 != Rows.size() ? "," : "") << "\n";
    }
    F << "  ],\n  \"cold_xlate_total_sec\": " << ColdXlate
      << ",\n  \"warm_xlate_total_sec\": " << WarmXlate << "\n}\n";
    std::printf("(wrote BENCH_warmstart.json)\n");
  }

  std::filesystem::remove_all(CacheRoot);
  if (Failures) {
    std::printf("\n%d contract failure(s)\n", Failures);
    return 1;
  }
  return 0;
}
