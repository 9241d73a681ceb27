#!/usr/bin/env bash
# Build edsd and the benchmark from source, then run one benchmark run:
#   bash edsbench/run.sh --workload hot_reads --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every file the build writes inside this checkout
export DUNE_CACHE=disabled
dune build --root . ./edsbench/edsbench.exe ./bin/edsd.exe 1>&2
exec ./_build/default/edsbench/edsbench.exe "$@"
