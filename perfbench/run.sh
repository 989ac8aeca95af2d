#!/usr/bin/env bash
# Build the simulator benchmark from source in this checkout, then run it.
# Arguments pass through: --workload NAME --seed N --seconds S --trace 0|1
# (see perfbench/README.md).  Build output goes to stderr, so the last
# line of stdout is the benchmark's result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bin/main.exe >&2
exec ./_build/default/perfbench/bin/main.exe "$@"
