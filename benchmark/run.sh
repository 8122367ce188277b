#!/usr/bin/env bash
# Builds and runs the PINT sink benchmark; see benchmark/README.md.
#
#   bash benchmark/run.sh                        every workload, untraced
#   bash benchmark/run.sh --workload steady --seed 7 --seconds 12 --trace 0
#   bash benchmark/run.sh --trace 1              traced run: per-layer metrics,
#                                                table and a Chrome trace in
#                                                --trace-dir (.bench_out)
#   bash benchmark/run.sh --smoke                tiny traces, every gate
#
# With --workload the last stdout line is that workload's JSON result.
# Without it every workload runs in its own process and the results go to
# --out (default .bench_out/results-*.json) for benchmark/compare.py.
# Exits non-zero when the build fails or any check fails.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workload=""
seed=1
seconds=12
trace=0
trace_dir=.bench_out
out=""
smoke=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --trace-dir) trace_dir=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --smoke) smoke=(--smoke); seconds=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

# The library comes from the root CMakeLists at its default build type;
# benchmark/CMakeLists.txt compiles only the benchmark's own sources.
build=.bench_build
jobs=$(nproc 2>/dev/null || echo 2)
[ "$jobs" -gt 4 ] && jobs=4
mkdir -p "$build"
# A condition context ignores `set -e`, so the steps are chained with &&.
if ! {
  cmake -S . -B "$build/pint" &&
    cmake --build "$build/pint" --target pint_core -j "$jobs" &&
    cmake -S benchmark -B "$build/benchmark" \
      -DPINT_BUILD_DIR="$PWD/$build/pint" &&
    cmake --build "$build/benchmark" -j "$jobs"
} >"$build/build.log" 2>&1; then
  echo "run.sh: build failed:" >&2
  tail -n 40 "$build/build.log" >&2
  exit 3
fi
bin=$build/benchmark/pint_benchmark

if [ -n "$workload" ]; then
  exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --trace-dir "$trace_dir" "${smoke[@]}"
fi

mkdir -p .bench_out
if [ -z "$out" ]; then
  out=.bench_out/results-seed$seed-trace$trace${smoke:+-smoke}-$(date +%Y%m%d-%H%M%S).json
fi
status=0
entries=""
for w in $("$bin" --list | cut -f1); do
  set +e
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    --trace-dir "$trace_dir" "${smoke[@]}" | tee ".bench_out/$w.out"
  code=${PIPESTATUS[0]}
  set -e
  last=$(tail -n 1 ".bench_out/$w.out")
  if [ "$code" -ne 0 ] || [ "${last:0:1}" != "{" ]; then
    echo "run.sh: workload $w failed (exit $code)" >&2
    status=1
  fi
  if [ "${last:0:1}" = "{" ]; then
    entries="$entries${entries:+, }\"$w\": $last"
  fi
done
printf '{"schema": "pint-benchmark-v1", "seed": %s, "seconds": %s, "trace": %s, "workloads": {%s}}\n' \
  "$seed" "$seconds" "$trace" "$entries" >"$out"
echo "results written to $out"
exit $status
