#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds cmd/cxrpq-bench (a module of its
# own) into .bench_build/ and runs it from the root of the checkout with the
# arguments it was given. Everything the build and the run write stays under
# .bench_build/: binaries, Go's build cache, module path and telemetry
# counters, generated graphs, data directories and traces.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd cmd/cxrpq-bench && go build -o "$build/bin/cxrpq-bench" .)
exec "$build/bin/cxrpq-bench" -out "$build/out" "$@"
