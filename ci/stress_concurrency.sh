#!/usr/bin/env bash
# Runs the concurrency suites of drtree-pubsub many times over, under
# the two schedules that used to shake the exactness replay loose:
# every thread on one core, and sixteen test threads on however many
# cores there are. The binaries are built once, in release; the first
# failing run prints its output and fails the script.
#
# usage: ci/stress_concurrency.sh [runs-per-schedule, default 50]
set -euo pipefail

runs=${1:-50}
bins=$(cargo test -p drtree-pubsub --release --no-run \
    --test multipub --test ingress_interleave 2>&1 |
    sed -n 's/^ *Executable.*(\(.*\))$/\1/p')
if [ "$(wc -w <<<"$bins")" -ne 2 ]; then
    echo "expected two test binaries, found: $bins" >&2
    exit 1
fi

log=$(mktemp)
trap 'rm -f "$log"' EXIT
for bin in $bins; do
    for schedule in "taskset -c 0 $bin" "$bin --test-threads=16"; do
        for i in $(seq "$runs"); do
            if ! $schedule >"$log" 2>&1; then
                cat "$log"
                echo "FAILED: run $i of $runs: $schedule" >&2
                exit 1
            fi
        done
        echo "ok: $runs x $schedule"
    done
done
