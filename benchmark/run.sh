#!/usr/bin/env bash
# Build the libraries, the mfti CLI and the benchmark from source, then
# run the benchmark:
#
#   bash benchmark/run.sh --workload grid-json --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the
# benchmark's JSON result.  The shared dune cache is disabled so the
# build reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./benchmark/e2e.exe ./bin/mfti_cli.exe 1>&2
exec ./_build/default/benchmark/e2e.exe "$@"
