#!/usr/bin/env bash
# Builds the harness from source and runs it with the arguments given;
# `bench/run.sh check` only checks it. Everything the build writes stays
# under bench/out/build: Go's build and module caches, its temporary
# files, and the toolchain's telemetry counters (which follow
# XDG_CONFIG_HOME).
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/bench/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-modcacherw GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/bench" .

# bench/ is a module of its own, so the repository's go vet, go test and
# tree lint never reach it. It holds itself to them instead, whenever a
# source of its own is newer than the last check that passed: gofmt, go
# vet, the repository's analyzers without any allowlist, and the unit
# tests (which run no workload).
checked="$build/checked"
if [ "${1:-}" = check ] || [ ! -e "$checked" ] ||
	[ -n "$(find bench/*.go bench/go.mod bench/run.sh BENCHMARK.json -newer "$checked")" ]; then
	unformatted="$(gofmt -l bench/*.go)"
	if [ -n "$unformatted" ]; then
		echo "bench: gofmt would change: $unformatted" >&2
		exit 1
	fi
	{
		go vet -C bench .
		(cd bench && go run btpub/cmd/btpub-vet -noallow .)
		go test -C bench .
	} >&2
	touch "$checked"
fi
[ "${1:-}" = check ] && exit 0
exec "$build/bench" "$@"
