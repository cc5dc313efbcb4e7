#!/bin/sh
# Builds budgetbuf and the benchmark from source, then runs one
# workload.  Run from the root of a checkout:
#
#   sh perfbench/run.sh --workload solve-large --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -eu
if [ ! -f dune-project ] || [ ! -f bin/dune ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a budgetbuf checkout" >&2
  exit 2
fi
dune build --root . --display quiet ./bin/budgetbuf_cli.exe ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
