#!/usr/bin/env bash
# Builds the program from source, then runs one benchmark workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the root of a checkout. Build logs go to standard error;
# the last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no program to build here (dune-project or lib/ missing)" >&2
  exit 2
fi

# The dune cache lives outside the checkout; build without it.
dune build --root . --cache=disabled --display=quiet ./perfbench/main.exe >&2

PERFBENCH_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
  exec ./_build/default/perfbench/main.exe "$@"
