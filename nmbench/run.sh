#!/bin/sh
# Build the benchmark and the nonmask CLI from source, then run one workload:
#
#   sh nmbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# NAME is check-exhaustive, tolerance-sweep, serve-mix, or all. Run it from
# the root of the repository. Build output goes to .bench_build, run files
# (span traces, the serve log and socket) to .bench_run.
set -e
cd "$(dirname "$0")/.."
build=.bench_build
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "nmbench: dune is not on PATH" >&2
  exit 2
fi
if ! DUNE_CACHE=disabled dune build --root . --build-dir "$build" --display quiet \
  ./nmbench/main.exe ./bin/nonmask_cli.exe >&2; then
  echo "nmbench: build failed" >&2
  exit 2
fi
exec "$build/default/nmbench/main.exe" --cli "$build/default/bin/nonmask_cli.exe" "$@"
