#!/usr/bin/env bash
# Builds the VPNM serving benchmark from source and runs it.
#
#   bash vpnmbench/run.sh --workload ooo-read-pipe --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache, temporary files) stays under .bench_build/ in that root, or under
# $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/vpnmbench/go.mod" ]]; then
	echo "vpnmbench: run from the repository root (go.mod and vpnmbench/go.mod must both exist)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/vpnmbench" && go build -o "$out/vpnmbench" .)
exec "$out/vpnmbench" "$@"
