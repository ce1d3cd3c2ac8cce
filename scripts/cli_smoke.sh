#!/usr/bin/env bash
# cli-smoke: the command-line gate for the four binaries and the four
# examples.
#
# Builds each binary once, runs one real simulation through the shared
# flag block and one ablation sweep (the EM3D protocol chain), then hands every sweep binary one bad shared flag and
# requires exit status 2 with the flag's name on stderr — the validation
# lives in one place (internal/harness/flags.go), and this checks every
# binary is actually wired to it. Each example runs once: it exits
# non-zero on a wrong answer, and is the only program that calls some of
# the Tempest API (page-grain force accesses, Stache.Prefetch,
# BulkTransfer).
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for b in fig3 fig4 ablations typhoon-sim; do
    go build -o "$tmp/$b" "./cmd/$b"
done

# One real simulation through the shared flag block.
"$tmp/typhoon-sim" -app ocean -system blizzard -j 1 -counters >"$tmp/run" 2>&1
grep -q "verified against sequential reference: ok" "$tmp/run"

# ablations is the one way to regenerate the ablation tables: one sweep.
"$tmp/ablations" -only em3d -j 1 >"$tmp/ablation"
grep -q "EM3D protocol chain" "$tmp/ablation"

# example <name> <line>: the example exits 0 and prints the stable line.
example() {
    local status=0
    go build -o "$tmp/$1" "./examples/$1"
    "$tmp/$1" >"$tmp/example" 2>&1 || status=$?
    if [ "$status" -ne 0 ] || ! grep -q -- "$2" "$tmp/example"; then
        echo "cli-smoke: example $1 exited $status, want 0 and a \"$2\" line; got:" >&2
        cat "$tmp/example" >&2
        exit 1
    fi
}
example quickstart "ran 64x64 stencil"
example custom-protocol "custom protocol speedup"
example msgpass "bulk packets streamed by the NP"
example workqueue "with prefetch:"

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
# The removed Figure 3 witness-dedup bypass is an undefined flag, not an
# ignored one.
refuse "flag provided but not defined: -no-dedup" fig3 -no-dedup
# So is the removed cache switch.
refuse "flag provided but not defined: -no-cache" fig4 -no-cache
# Sweeps run in one process, and no binary reads or writes a result
# cache: no sweep binary is a fleet client or takes a cache directory.
for b in fig3 fig4 ablations typhoon-sim; do
    refuse "flag provided but not defined: -fleet" "$b" -fleet "$tmp/f.sock"
    refuse "flag provided but not defined: -cache-dir" "$b" -cache-dir "$tmp/cache"
    refuse "flag provided but not defined: -cache-verify" "$b" -cache-verify 1
done
# The removed first-touch ablation is an unknown -only value.
refuse "unknown ablation" ablations -only firsttouch

echo "cli-smoke: 4 binaries built, blizzard run verified, em3d ablation printed, 4 examples run, bad shared flags, a 96-set cache, 65 nodes, the five removed flags (-fleet, -cache-dir and -cache-verify on every sweep binary) and the removed firsttouch ablation refused with exit 2"
