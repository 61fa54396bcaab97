#!/bin/sh
# Builds the benchmark from the sources of this checkout, then runs it with
# the given arguments.  Run from the repository root:
#   sh perfbench/run.sh --workload sizing --seed 1 --seconds 40 --trace 0
#   sh perfbench/run.sh compare base.ndjson new.ndjson
# Build output goes to stderr, so stdout carries only the benchmark's own lines.
set -eu
DUNE_CACHE=disabled dune build --root . -j 2 --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
