#!/usr/bin/env bash
# Builds the serving-tier benchmark from the checkout it is run in, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload gw-single --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# files, result files, the durable tier's data directories) lands under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/cluster" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root: the viewstags module (go.mod, internal/) is not here" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

commit=unknown
if [[ -e "$root/.git" ]] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

# Keep the toolchain's cache, temp files and config lookups inside the
# checkout; the module has no external dependencies, so nothing is fetched.
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOENV=off GOPATH="$out/gopath" \
		GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local \
		GOFLAGS=-mod=mod GOTELEMETRY=off \
		go build -buildvcs=false -trimpath -o "$out/perfbench" .
) >&2

exec "$out/perfbench" -out "$out" -commit "$commit" "$@"
