#!/usr/bin/env bash
# cli-smoke: the command-line gate for the five binaries.
#
# Builds each binary once, runs one real simulation through the shared
# flag block and one ablation sweep (the EM3D protocol chain), then hands every sweep binary one bad shared flag and
# requires exit status 2 with the flag's name on stderr — the validation
# lives in one place (internal/harness/flags.go), and this checks every
# binary is actually wired to it.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for b in fig3 fig4 ablations typhoon-sim bench; do
    go build -o "$tmp/$b" "./cmd/$b"
done

# One real simulation through the shared flag block.
"$tmp/typhoon-sim" -app ocean -system blizzard -j 1 -counters >"$tmp/run" 2>&1
grep -q "verified against sequential reference: ok" "$tmp/run"

# ablations is the one way to regenerate the ablation tables: one sweep.
"$tmp/ablations" -only em3d -j 1 >"$tmp/ablation"
grep -q "EM3D protocol chain" "$tmp/ablation"

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
refuse -scale ablations -scale huge
refuse -occupancy typhoon-sim -occupancy -20
refuse -j fig3 -j -3
refuse -nodes typhoon-sim -nodes -3
# A sharer set is one 64-bit word, so the machine stops at 64 nodes.
refuse "65 nodes outside \[1, 64\]" typhoon-sim -nodes 65
# 12 KB of 4-way 32-byte blocks is 96 sets; the cache indexes by shift and mask.
refuse "power of two" typhoon-sim -cache 12
# The removed sharded-execution flag is an undefined flag, not an ignored one.
refuse "flag provided but not defined: -shards" bench -shards 2
# So is the removed Figure 3 witness-dedup bypass.
refuse "flag provided but not defined: -no-dedup" fig3 -no-dedup
refuse "flag provided but not defined: -no-dedup" bench -no-dedup
# So are the removed cache switch and embedded coordinator.
refuse "flag provided but not defined: -no-cache" fig4 -no-cache
refuse "flag provided but not defined: -workers-addr" bench -workers-addr "$tmp/f.sock"
# Sweeps run in one process, and no binary reads or writes a result
# cache: no sweep binary is a fleet client or takes a cache directory.
for b in fig3 fig4 ablations typhoon-sim bench; do
    refuse "flag provided but not defined: -fleet" "$b" -fleet "$tmp/f.sock"
    refuse "flag provided but not defined: -cache-dir" "$b" -cache-dir "$tmp/cache"
    refuse "flag provided but not defined: -cache-verify" "$b" -cache-verify 1
done
refuse "flag provided but not defined: -expect-cached" bench -expect-cached
# The removed first-touch ablation is an unknown -only value.
refuse "unknown ablation" ablations -only firsttouch

echo "cli-smoke: 5 binaries built, blizzard run verified, em3d ablation printed, bad shared flags, a 96-set cache, 65 nodes, the eight removed flags (-fleet, -cache-dir and -cache-verify on every sweep binary) and the removed firsttouch ablation refused with exit 2"
