#!/usr/bin/env bash
# Builds the benchmark from source, then runs one measurement; the
# arguments go to measure.exe (see README.md). Run from the repository
# root. The build stays inside the tree (no shared dune cache), and
# measure.exe replaces this shell rather than run under `dune exec`,
# which would hand it dune's own CPU time as part of set-up.
set -euo pipefail
dune build --root . --cache=disabled bench/measure/measure.exe 1>&2
exec ./_build/default/bench/measure/measure.exe "$@"
