#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Everything
# the build writes (Go's build cache included) stays under .bench_build in
# the checkout; the binary is rebuilt only when a source file changed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build" "$here/out"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C "$here" -o "$build/iqbench" . >&2
# The commit is for the host stanza only; never look above the checkout.
IQBENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || true)"
export IQBENCH_COMMIT
cd "$root"
exec "$build/iqbench" "$@"
