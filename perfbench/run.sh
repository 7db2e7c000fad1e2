#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload serve-1node --seed 1 --seconds 50 --trace 0
#
# The binary, the Go build cache and the traced run's spans stay under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout. Nothing is
# fetched: the module has no dependencies beyond dagsched itself, which
# it takes from the parent directory.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
