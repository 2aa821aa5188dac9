#!/usr/bin/env bash
# Builds the payment benchmark from this checkout's sources and runs it
# from the checkout root; every argument is passed through:
#
#   bash paybench/run.sh --workload pay --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

# The commit, with "-dirty" and a digest of the sources when the tree has
# uncommitted changes; outside a git checkout, the digest alone.
src_digest() {
	(cd "$root" && find . \( -path ./.bench_build -o -path ./.git \) -prune -o \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)
}
if [ -d "$root/.git" ] && commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null)"; then
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit="$commit-dirty-$(src_digest)"
	fi
else
	commit="src-$(src_digest)"
fi

(cd "$root/paybench" && go build -o "$build/paybench" .)
cd "$root"
exec "$build/paybench" --workdir "$build" --commit "$commit" "$@"
