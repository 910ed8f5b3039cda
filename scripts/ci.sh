#!/usr/bin/env bash
# CI pipeline: configure, build, unit tests, aidelint over every app,
# clang-tidy (when installed), and an ASan/UBSan test job.
#
# Environment knobs:
#   AIDE_CI_SKIP_SANITIZE=1   skip the sanitizer job (slowest stage)
#   AIDE_CI_SKIP_TIDY=1       skip clang-tidy even if installed
#   AIDE_CI_JOBS=N            parallelism (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${AIDE_CI_JOBS:-$(nproc)}"

step() { printf '\n==== %s ====\n' "$*"; }

step "configure + build (build-ci)"
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build build-ci -j "$JOBS"

step "unit + integration tests"
ctest --test-dir build-ci --output-on-failure -j "$JOBS"

step "CRC-32 kernels (Crc32* must run, not skip, on a CPU with PCLMULQDQ)"
# The carry-less-multiply fold runs only where the CPU reports PCLMULQDQ and
# SSE4.1, and its tests skip elsewhere. On such a CPU a skip means the
# dispatch never reaches the fold, which the passing table tests would hide.
if grep -qw pclmulqdq /proc/cpuinfo && grep -qw sse4_1 /proc/cpuinfo; then
  crc_out=$(./build-ci/tests/common_test --gtest_filter='Crc32*')
  if grep -q 'SKIPPED' <<<"$crc_out"; then
    echo "$crc_out" >&2
    echo "common_test Crc32*: a test skipped on a CPU with PCLMULQDQ" >&2
    exit 1
  fi
  echo "Crc32*: all ran"
else
  echo "CPU lacks PCLMULQDQ or SSE4.1: crc32 runs the table alone"
fi

step "aidelint (static partition-safety) over all apps"
./build-ci/src/analysis/aidelint

step "aideverify (effect inference + metadata audit)"
./build-ci/src/analysis/aidelint --verify
./build-ci/src/analysis/aidelint --verify --json >/dev/null

step "lint suite (ctest -L lint: inference, audit rules, golden CLI output)"
ctest --test-dir build-ci --output-on-failure -L lint -j "$JOBS"

step "graph hot-path smoke (monitor throughput + MINCUT parity)"
./build-ci/bench/bench_graph_hotpath --smoke

step "VM hot-path smoke (hook-free vs monitored loops, zero-allocation gate)"
./build-ci/bench/bench_vm_hotpath --smoke

step "chaos sweep (all 42 cases: crash-consistent offload under seeded schedules)"
./build-ci/tests/chaos_test

step "rpc batch smoke (batched vs per-op transport parity + frame reduction)"
./build-ci/bench/bench_rpc_batch --smoke

step "disconnect suite (ctest -L disconnect: detector, redo log, reconcile)"
ctest --test-dir build-ci --output-on-failure -L disconnect -j "$JOBS"

step "disconnect smoke (hoard/journal/reconcile under mid-run outages)"
./build-ci/bench/bench_disconnect --smoke

step "fleet suite (ctest -L fleet: session isolation, admission, scheduling)"
ctest --test-dir build-ci --output-on-failure -L fleet -j "$JOBS"

step "pool suite (ctest -L pool: placement, busy time, failover)"
ctest --test-dir build-ci --output-on-failure -L pool -j "$JOBS"

step "fleet smoke (multi-session overhead, zero-alloc dispatch, pool scaling and balance, determinism, read checks)"
./build-ci/bench/bench_fleet --smoke

step "virtual-time artefacts (full benches' BENCH_*.json, fig5 DOTs and the examples' and benches' output vs committed)"
# Every number in these files is virtual time, so a full run must rewrite
# them byte for byte; any difference is a behaviour change. The examples'
# and benches' stdout+stderr (the [platform] log lines go to stderr) is
# pinned the same way, including JavaNote's reference checksum and the
# paper's tables and figures. bench_sec51_monitoring and
# bench_partition_hints print wall-clock columns and stay out, as do the
# wall-clock hot-path and micro benches.
root="$PWD"
artefacts=$(mktemp -d)
source scripts/pinned.sh
(
  cd "$artefacts"
  for bench in $pinned_benches; do
    "$root/build-ci/bench/bench_$bench" >"$bench.txt" 2>&1
  done
  for example in $pinned_examples; do
    "$root/build-ci/examples/$example" >"$example.txt" 2>&1
  done
)
for f in BENCH_chaos.json BENCH_fault.json BENCH_disconnect.json \
  BENCH_rpc.json BENCH_fleet.json fig5a.dot fig5b.dot; do
  if ! cmp "$artefacts/$f" "$root/$f"; then
    echo "$f: differs from the committed copy" >&2
    exit 1
  fi
done
for example in $pinned_examples; do
  if ! cmp "$artefacts/$example.txt" "$root/tests/golden/examples/$example.txt"; then
    echo "examples/$example: output differs from tests/golden/examples/$example.txt" >&2
    exit 1
  fi
done
for bench in $pinned_benches; do
  if ! cmp "$artefacts/$bench.txt" "$root/tests/golden/benches/$bench.txt"; then
    echo "bench_$bench: output differs from tests/golden/benches/$bench.txt" >&2
    exit 1
  fi
done
rm -rf "$artefacts"

step "perfbench correctness smoke (virt_s + digest against reference.tsv)"
python3 perfbench/run.py --selftest
# reference.tsv pins seeds 0-31; seed 17 is a second, arbitrary one, so a
# change that only seed 0's schedule misses (a placement tie, say) still
# shows.
for seed in 0 17; do
  for workload in paper_apps trace_replay pool_sessions; do
    result=$(python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds 2 --trace 0 | tail -n 1)
    echo "$workload seed $seed: $result"
    if [[ "$result" != *'"correct": true'* ]]; then
      echo "perfbench $workload seed $seed: pass differs from" \
        "perfbench/reference.tsv" >&2
      exit 1
    fi
  done
done

if [[ "${AIDE_CI_SKIP_TIDY:-0}" != 1 ]] && command -v clang-tidy >/dev/null; then
  step "clang-tidy"
  # Library and app sources; test files follow gtest idioms tidy dislikes.
  mapfile -t tidy_sources < <(find src -name '*.cpp' | sort)
  clang-tidy -p build-ci --quiet "${tidy_sources[@]}"
else
  step "clang-tidy: not installed (or skipped) — config is .clang-tidy"
fi

if [[ "${AIDE_CI_SKIP_SANITIZE:-0}" != 1 ]]; then
  step "ASan/UBSan job (build-asan)"
  cmake -B build-asan -S . -DAIDE_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
  ./build-asan/src/analysis/aidelint >/dev/null
  ./build-asan/src/analysis/aidelint --verify >/dev/null
  ./build-asan/tests/chaos_test --smoke
  ./build-asan/bench/bench_vm_hotpath --smoke
  ./build-asan/bench/bench_rpc_batch --smoke
  ./build-asan/bench/bench_disconnect --smoke
  ./build-asan/bench/bench_fleet --smoke
  # ctest's traces are tiny. Figure 10 replays all five paper-size traces
  # with and without the Array enhancement, so the trace columns, the object
  # reads and the aux cursor run under the sanitizers at full size. Its runs
  # are all trace_fraction; Figure 6's memory_gc runs add the GC-pressure
  # model, try_offload and the class side table's refill, in both the
  # monitored and the post-horizon replay loop. Figure 7's 180 memory_gc
  # runs reach their horizons at GC reports inside blocks, so they run the
  # block summaries and the memory-event list most.
  for bench in fig10_cpu fig6_overhead fig7_policy; do
    out=$(mktemp)
    ./build-asan/bench/bench_"$bench" >"$out" 2>&1
    if ! cmp "$out" tests/golden/benches/"$bench".txt; then
      echo "bench_$bench (build-asan): output differs from" \
        "tests/golden/benches/$bench.txt" >&2
      exit 1
    fi
    rm -f "$out"
  done
else
  step "sanitizer job skipped (AIDE_CI_SKIP_SANITIZE=1)"
fi

step "CI green"
