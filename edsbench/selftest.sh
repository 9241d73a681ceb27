#!/usr/bin/env bash
# The benchmark's own tests: a short traced run of every workload with
# the layer-sum and workload-shape checks (--check).  Exits non-zero if
# any run fails a check or an oracle comparison.
set -euo pipefail
cd "$(dirname "$0")/.."
status=0
for workload in hot_reads adhoc_plans durable_writes; do
  if bash edsbench/run.sh --workload "$workload" --seed 7 --seconds 4 --trace 1 --check >/dev/null; then
    echo "selftest $workload: ok"
  else
    echo "selftest $workload: FAILED"
    status=1
  fi
done
exit $status
