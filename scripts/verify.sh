#!/usr/bin/env sh
# Tier-1 verification: configure, build, run the full test suite, then
# smoke-run the dispatcher and slow-down benches (a crash or a hang here
# is a regression even when the unit tests pass), then the sanitizer
# sweeps. Every step runs even when an earlier one fails; the script
# lists the failed steps at the end and exits non-zero if there were any.
#
#   --fuzz-soak   additionally run the full differential-fuzzing soak
#                 (the 2000-iteration acceptance campaign plus forced
#                 signal/SMC variants); minutes, not seconds.
set -u

cd "$(dirname "$0")/.."

FUZZ_SOAK=0
for arg in "$@"; do
  case "$arg" in
    --fuzz-soak) FUZZ_SOAK=1 ;;
    *) echo "verify.sh: unknown option '$arg'" >&2; exit 2 ;;
  esac
done

FAILED=""

# step NAME FUNCTION: runs FUNCTION (a subshell with set -e, so its first
# failing command fails the step) and records NAME if it failed.
step() {
  echo "== $1 =="
  "$2"
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "verify.sh: step '$1' failed (exit $rc)" >&2
    FAILED="$FAILED
  $1"
  fi
}

build() (
  set -e
  cmake -B build -S . >/dev/null
  cmake --build build -j >/dev/null
)

unit_tests() (
  set -e
  ctest --test-dir build --output-on-failure -j
)

sec39_dispatch() (
  set -e
  ./build/bench/sec39_dispatch
)

# A hot multi-block workload with the trace tier on must actually stitch
# traces: the --profile report's trace section is the contract.
trace_tier() (
  set -e
  TF=$(./build/examples/vgrun --tool=nulgrind --chaining=yes \
      --trace-tier=yes --profile=yes vortex 2>&1 \
      | sed -n 's/.*traces-formed=\([0-9]*\).*/\1/p')
  [ "${TF:-0}" -gt 0 ] || {
    echo "trace smoke: expected traces-formed > 0, got '${TF:-none}'" >&2
    exit 1
  }
  echo "traces formed: $TF"
)

table2_slowdown() (
  set -e
  ./build/bench/table2_slowdown
)

# Cold-then-warm runs of the table2 trio against one --tt-cache directory.
# The bench itself enforces the contract: warm hit rate >= 70%, zero
# rejects, and byte-identical stdout between cold and warm.
sec33_warmstart() (
  set -e
  ./build/bench/sec33_warmstart
)

# The demo tool built on the opened plug-in surface must produce a loop
# report on a loopy workload: back-edges and at least one hot loop head.
loopgrind() (
  set -e
  LGOUT=$(./build/examples/vgrun --tool=loopgrind --chaining=yes \
      --loop-top=3 vortex 2>&1)
  echo "$LGOUT" | grep -q '^==loopgrind== blocks entered:' || {
    echo "loopgrind smoke: missing report header" >&2
    exit 1
  }
  LGBE=$(echo "$LGOUT" \
      | sed -n 's/^==loopgrind== blocks entered: [0-9]*, back-edges: \([0-9]*\).*/\1/p')
  [ "${LGBE:-0}" -gt 0 ] || {
    echo "loopgrind smoke: expected back-edges > 0, got '${LGBE:-none}'" >&2
    exit 1
  }
  echo "loopgrind back-edges: $LGBE"
)

# 5 seeds instead of 50; still checks clean exits, zero Memcheck errors,
# and byte-identical trace replay per seed.
sec314_sched() (
  set -e
  VG_SOAK_QUICK=1 ./build/bench/sec314_sched
)

# Correctness always (identical checksums at --sched-threads=1/2/4); the
# >=1.5x speedup target is enforced only on hosts with >=4 hardware
# threads (the bench reports overhead instead on smaller machines).
sec314_mtscale() (
  set -e
  VG_MTSCALE_QUICK=1 ./build/bench/sec314_mtscale
)

# Quick mode: every layout x pattern cell runs and BENCH_shadowmem.json is
# written, but the micro cells use fewer ops and the vortex macro
# comparison is skipped.
sec54_shadowmem() (
  set -e
  VG_SEC54_QUICK=1 ./build/bench/sec54_shadowmem \
      --benchmark_min_time=0.05
)

# Short deterministic campaign + the planted-bug self-test. Honours
# VG_SOAK_QUICK like the scheduler soak: quick mode trims the campaign.
vgfuzz() (
  set -e
  FUZZ_ITERS=200
  [ "${VG_SOAK_QUICK:-0}" = "1" ] && FUZZ_ITERS=50
  ./build/src/vgfuzz --iters="$FUZZ_ITERS" --seed=1 --quiet
  ./build/src/vgfuzz --self-test --seed=1 --quiet
)

# The sharded scheduler (--sched-threads=N), the MT client-request path,
# and concurrent --tt-cache writers under TSan: persistent-cache,
# MT-scheduler, and client-request unit tests (everything carrying the
# `concurrency` ctest label, via the tsan preset).
tsan() (
  set -e
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j \
      --target test_transcache --target test_mtsched \
      --target test_clientrequest >/dev/null
  ctest --preset tsan
)

# The translation pipeline's unit, golden, JIT, property, tool and
# persistent-cache tests (the `pipeline` label: its dense tables are indexed
# by tmp, vreg and guest-state byte offset and reused from pass to pass,
# and the cache decodes bytes read from disk) and
# the dispatch loop with both schedulers (the `dispatch`
# label: the QSBR limbo list frees translations a shard may still hold),
# via the asan preset: any out-of-bounds index, use-after-free or
# undefined behaviour fails the step.
asan() (
  set -e
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j \
      --target test_ir --target test_hvm --target test_irgolden \
      --target test_jit --target test_translationservice \
      --target test_transcache --target test_properties --target test_core \
      --target test_schedsignal --target test_mtsched \
      --target test_tools >/dev/null
  ctest --preset asan
)

fuzz_soak() (
  set -e
  echo "-- 2000-iteration acceptance campaign"
  ./build/src/vgfuzz --iters=2000 --seed=1 --quiet
  echo "-- forced signals"
  ./build/src/vgfuzz --iters=300 --seed=77 --signals=always --quiet
  echo "-- forced self-modifying code"
  ./build/src/vgfuzz --iters=300 --seed=99 --smc=always --quiet
)

step build build
step "unit tests" unit_tests
step "smoke: sec39_dispatch" sec39_dispatch
step "smoke: trace tier (second-tier JIT)" trace_tier
step "smoke: table2_slowdown" table2_slowdown
step "smoke: sec33_warmstart (persistent translation cache)" sec33_warmstart
step "smoke: loopgrind (tool plug-in surface)" loopgrind
step "smoke: sec314_sched (quick soak)" sec314_sched
step "smoke: sec314_mtscale (sharded scheduler)" sec314_mtscale
step "smoke: sec54_shadowmem (quick)" sec54_shadowmem
step "smoke: vgfuzz (differential fuzzing)" vgfuzz
step "ThreadSanitizer (concurrency label)" tsan
step "AddressSanitizer + UBSan (pipeline and dispatch labels)" asan
if [ "$FUZZ_SOAK" = "1" ]; then
  step "fuzz soak" fuzz_soak
fi

if [ -n "$FAILED" ]; then
  echo "verify: FAILED steps:$FAILED" >&2
  exit 1
fi
echo "verify: OK"
