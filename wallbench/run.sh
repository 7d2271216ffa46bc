#!/usr/bin/env bash
# Build the wall-clock benchmark from this checkout's sources and run it:
#   bash wallbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash wallbench/run.sh --self-check
# Build output goes to standard error, so the last line of standard
# output stays the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "wallbench: not a full checkout (dune-project and lib/ are missing)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --profile release --display quiet \
  ./wallbench/main.exe 1>&2
exec .bench_build/default/wallbench/main.exe "$@"
