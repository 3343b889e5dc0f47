#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload accuracy-grid --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the runs write
# (Go build cache, binary, served-mix state, span files) stays under
# .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are required)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)

# The git commit is recorded only when the root is itself a git work tree;
# an exported checkout records "none" and the source hash stands in.
commit=none
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [[ "$top" == "$root" ]]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
fi

exec "$out/perfbench" -commit "$commit" -out "$out" "$@"
