#!/usr/bin/env bash
# Entry point of the benchmark: builds the suite and the tecore CLI
# (whose `serve` the serve-mixed workload drives) from source in this
# checkout, then runs one workload. Arguments are passed to `suite.exe
# run`, e.g.
#
#   bash bench/suite/run.sh --workload fb-mln --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository.
set -euo pipefail

# Settings that would change what the program does; every workload runs
# with one job, one lane, no injected faults and no deadline.
unset TECORE_JOBS TECORE_LANES TECORE_FAULTS TECORE_TIMEOUT_MS TECORE_JOIN_PARTITIONS

# Build output stays in this checkout's _build; no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . bench/suite/suite.exe bin/tecore_cli.exe 1>&2

exec _build/default/bench/suite/suite.exe run \
  --tecore _build/default/bin/tecore_cli.exe "$@"
