#!/usr/bin/env bash
# Build the benchmark from source and run it; every argument is passed
# to ulipc_bench.  Run from the repository root, e.g.
#   bash bench/e2e/run.sh --workload sync-domains --seed 1 --seconds 20 --trace 0
set -eu

if [ ! -f dune-project ] || [ ! -d lib/realipc ] || [ ! -d lib/procipc ]; then
  echo "run.sh: run from the root of a ulipc checkout (dune-project and lib/ not found)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "run.sh: dune not found" >&2
  exit 2
fi

# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/ulipc_bench.exe 1>&2
exec ./_build/default/bench/e2e/ulipc_bench.exe "$@"
