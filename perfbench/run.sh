#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload campaign-fig6 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# temporary campaign caches, span files) stays under .bench_build in the
# current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

# Use the go on PATH, else the toolchain under GOROOT or Go's default
# install location.
go=go
if ! command -v go >/dev/null 2>&1; then
	for g in "${GOROOT:-}/bin/go" /usr/local/go/bin/go; do
		if [ -x "$g" ]; then
			go=$g
			break
		fi
	done
fi

(cd "$root/perfbench" && "$go" build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
