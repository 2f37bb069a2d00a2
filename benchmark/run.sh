#!/bin/sh
# Build the benchmark from this checkout and run it; the arguments go to
# rhodos_bench.exe (see README.md). Run from the root of the checkout.
# Compiler temporaries stay inside the checkout, and dune's shared cache
# is off, so nothing is written outside it.
set -e
mkdir -p .bench_build/tmp
TMPDIR="$(pwd)/.bench_build/tmp"
export TMPDIR
exec dune exec --root . --display quiet --cache disabled ./benchmark/rhodos_bench.exe -- "$@"
