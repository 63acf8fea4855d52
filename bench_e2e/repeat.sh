#!/usr/bin/env bash
# Run bench_e2e as N separate processes per workload — seeds 1..N — and print,
# per workload and metric, the median, quartiles and spread over the runs
# (bench_e2e --summarize).  These are the numbers BENCHMARK.json's bounds are
# set from.
#
#   bench_e2e/repeat.sh [-n RUNS] [-s SECONDS] [-t] [WORKLOAD ...]
#
# -t repeats the traced run (per-layer metrics) instead of the plain one.
# With no workloads named, all three run.  The sky.bench.v1 document of every
# run is kept under .bench_build/repeat/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
runs=10
seconds=30
trace=0
while getopts "n:s:t" opt; do
  case $opt in
    n) runs=$OPTARG ;;
    s) seconds=$OPTARG ;;
    t) trace=1 ;;
    *) echo "usage: $0 [-n RUNS] [-s SECONDS] [-t] [WORKLOAD ...]" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(dacsdc_fp32 dacsdc_int8 track_siam)
fi

out="$root/.bench_build/repeat/$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"
docs=()
for w in "${workloads[@]}"; do
  for seed in $(seq 1 "$runs"); do
    doc="$out/$w-$seed.json"
    python3 "$root/bench_e2e/run.py" --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" --json "$doc" > "$out/$w-$seed.log"
    echo "$w seed $seed: $(tail -n 1 "$out/$w-$seed.log" | cut -c1-60)..."
    docs+=("$doc")
  done
done
"$root/.bench_build/e2e/bench_e2e" --summarize "${docs[@]}"
