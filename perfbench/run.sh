#!/usr/bin/env bash
# Build the benchmark runner from source and run it with the given
# arguments, e.g.
#   bash perfbench/run.sh --workload exec-seq --seed 1 --seconds 12 --trace 0
# Run from the root of a checkout; build output goes to stderr so the last
# line of stdout stays the run's result object.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# keep every build artefact inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
