#!/usr/bin/env bash
# One command for the LEAST benchmark: builds `least_bench` from source
# (benchmark/CMakeLists.txt, into .bench_build/ at the repository root),
# then runs it from the repository root with the given arguments.
#
#   benchmark/run.sh                          # all five workloads, seed 1
#   benchmark/run.sh --seed 3 --trace out/    # plus a traced run of each
#   benchmark/run.sh --runs 5 --out a.json    # five seeds, results to a.json
#   benchmark/run.sh --compare a.json b.json  # verdicts under the bounds
#   benchmark/run.sh --smoke                  # tiny sizes, a few seconds
#   benchmark/run.sh --workload dense_fit --seed 2 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line on stdout is always the
# benchmark's own. Any build failure exits non-zero before a result is
# printed. See benchmark/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build_dir=".bench_build"

# One build at a time per checkout.
mkdir -p "$build_dir"
exec 9>"$build_dir/.lock"
flock 9
cmake -S benchmark -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build_dir" --target least_bench -j "$(nproc)" >&2
flock -u 9

LBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export LBENCH_COMMIT
exec "$build_dir/least_bench" "$@"
