#!/usr/bin/env bash
# cli-smoke: the command-line gate for the six binaries.
#
# Builds each binary once, runs one real simulation through the shared
# flag block, then hands every sweep binary one bad shared flag and
# requires exit status 2 with the flag's name on stderr — the validation
# lives in one place (internal/fleet/flags.go), and this checks every
# binary is actually wired to it.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for b in fig3 fig4 ablations typhoon-sim bench fleet; do
    go build -o "$tmp/$b" "./cmd/$b"
done

"$tmp/typhoon-sim" -app ocean -system blizzard -j 1 | grep -q "verified against sequential reference: ok"

# refuse <flag-name> <binary> <args...>: exit 2, flag named on stderr.
refuse() {
    local flag=$1 status=0
    shift
    "$tmp/$1" "${@:2}" >/dev/null 2>"$tmp/stderr" || status=$?
    if [ "$status" -ne 2 ] || ! grep -q -- "$flag" "$tmp/stderr"; then
        echo "cli-smoke: $* exited $status, want 2 with $flag on stderr; got:" >&2
        cat "$tmp/stderr" >&2
        exit 1
    fi
}
refuse -link-bw fig3 -link-bw -1
refuse -cache-verify fig4 -cache-verify 1.5
refuse -scale ablations -scale huge
refuse -occupancy typhoon-sim -occupancy -20
refuse -cache-dir bench -no-cache -cache-dir "$tmp/cache"
refuse -j fleet worker -addr "$tmp/none.sock" -j -3
refuse -nodes typhoon-sim -nodes -3
# 12 KB of 4-way 32-byte blocks is 96 sets; the cache indexes by shift and mask.
refuse "power of two" typhoon-sim -cache 12
# The removed sharded-execution flag is an undefined flag, not an ignored one.
refuse "flag provided but not defined: -shards" bench -shards 2
# So is the removed Figure 3 witness-dedup bypass.
refuse "flag provided but not defined: -no-dedup" fig3 -no-dedup
refuse "flag provided but not defined: -no-dedup" bench -no-dedup

echo "cli-smoke: 6 binaries built, blizzard run verified, bad shared flags, a 96-set cache and the two removed flags refused with exit 2"
