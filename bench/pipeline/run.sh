#!/bin/sh
# Build the pipeline benchmark from the sources of this checkout, then run
# it with the given arguments, e.g.
#
#   sh bench/pipeline/run.sh --workload daemon-serial --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
(cd "$root" && DUNE_CACHE=disabled dune build --root . --display quiet bench/pipeline/pipeline.exe) 1>&2
exec "$root/_build/default/bench/pipeline/pipeline.exe" "$@"
