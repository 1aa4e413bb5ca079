#!/bin/sh
# Every workload, end to end and then traced: prints every end-to-end and
# per-layer metric by name and unit, and checks every answer.
#   sh perfbench/all.sh [--seed N] [--seconds S]
set -e
for workload in verify-symbolic verify-series oracle cli-cold; do
    for trace in 0 1; do
        echo "== $workload --trace $trace"
        python3 perfbench/run.py --workload "$workload" --trace "$trace" "$@"
    done
done
