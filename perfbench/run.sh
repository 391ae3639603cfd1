#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload attack-sync --seed 1 --seconds 20 --trace 0
#
# Run from the repository root.  Build products go to perfbench/_build,
# so the run writes nothing outside perfbench/.
set -euo pipefail
build="$PWD/perfbench/_build"
dune build --root . --build-dir "$build" --display quiet --cache disabled ./perfbench/main.exe >&2
exec "$build/default/perfbench/main.exe" "$@"
