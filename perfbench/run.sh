#!/bin/sh
# Builds the benchmark from source in the checkout it is run from, then
# runs it.  From the root of the repository:
#
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Every file it makes stays in the checkout: the build goes to _build
# with dune's shared cache off, the wire workloads' sockets and shared
# mappings to .perfbench/, and traced runs' spans to _trace/perfbench/.
set -e
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
mkdir -p .perfbench
TMPDIR=.perfbench exec ./_build/default/perfbench/main.exe bench "$@"
