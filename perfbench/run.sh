#!/bin/sh
# Build the benchmark harness from source, then run it with the given
# arguments.  Run from the repository root.
set -e
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
