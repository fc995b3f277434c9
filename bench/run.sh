#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root. The Go build cache and the
# binary stay under .bench_build/, so nothing is written outside the
# checkout; a build failure (for example, no simulator sources next to
# bench/) exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
