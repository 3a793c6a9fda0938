#!/usr/bin/env bash
# Build the end-to-end stack benchmark from source and run it.  Run from
# the repository root; arguments pass through to the benchmark:
#   bash e2ebench/run.sh --workload paper-sim --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./e2ebench/main.exe >&2
exec ./_build/default/e2ebench/main.exe "$@"
