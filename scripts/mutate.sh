#!/usr/bin/env bash
# mutate: the fence audit. Applies one-line mutations — of the message
# layer (internal/network, internal/agent) and of the protocol handlers —
# one at a time, runs every behaviour fence on each, and prints a
# markdown table of which fence caught which mutation (EXPERIMENTS.md
# "Fence audit by mutation").
#
# The checkout is never touched. The tracked files, uncommitted edits
# included, are exported to a temporary directory ($TMPDIR), and every
# mutation is applied to and undone in that copy. A mutation is a
# search/replace that must match exactly once, so one that no longer
# applies stops the script instead of silently testing nothing. A
# baseline row runs first: every fence must pass on the unmutated copy.
#
# Usage: bash scripts/mutate.sh
# Not part of `make ci`: the table takes ~20 minutes on two cores.
set -euo pipefail
cd "$(dirname "$0")/.."

fence_names=(conform ideal contended goldens diff)
fence_cmds=(
    "go test -count=1 ./internal/conform"
    "go run ./cmd/bench -check testdata/bench.digest"
    "go run ./cmd/bench -link-bw 4 -occupancy 20 -check testdata/bench_contended.digest"
    "go test -count=1 -run '^TestGolden' ./internal/harness"
    "go test -count=1 -run '^TestDifferentialMatrix\$' ./internal/conform"
)

mut_names=() mut_files=() mut_from=() mut_to=()
mutation() {
    mut_names+=("$1") mut_files+=("$2") mut_from+=("$3") mut_to+=("$4")
}

net=internal/network/network.go
agent=internal/agent/agent.go
mutation ej-overlap "$net" \
    'dst.ejBusy[p.VNet] = start + p.linkOcc' \
    'dst.ejBusy[p.VNet] = start'
mutation inj-floor "$net" \
    'sim.Time((q.PayloadBytes() + n.linkBW - 1) / n.linkBW)' \
    'sim.Time(q.PayloadBytes() / n.linkBW)'
mutation reply-lat+1 "$net" \
    'lat := n.latency' \
    'lat := n.latency + sim.Time(p.VNet)'
mutation local-lat+1 "$net" \
    'lat = n.localLatency' \
    'lat = n.localLatency + 1'
mutation occ-from-end "$agent" \
    'if end := start + co.occ;' \
    'if end := c.Time() + co.occ;'
mutation occ-count2 "$agent" \
    'co.occWaits++' \
    'co.occWaits += 2'
mutation req-over-urgent "$agent" \
    $'\tcase co.work != nil && co.work.HasUrgent():\n\t\tco.work.RunUrgent(c)\n\tcase co.Ep.PendingOn(network.VNetRequest) > 0:\n\t\tco.deliver(c, co.Ep.Dequeue())\n' \
    $'\tcase co.Ep.PendingOn(network.VNetRequest) > 0:\n\t\tco.deliver(c, co.Ep.Dequeue())\n\tcase co.work != nil && co.work.HasUrgent():\n\t\tco.work.RunUrgent(c)\n'
mutation reply-not-first "$agent" \
    $'\tcase co.Ep.PendingOn(network.VNetReply) > 0:\n\t\tco.deliver(c, co.Ep.Dequeue())\n\tcase co.work != nil && co.work.HasUrgent():\n\t\tco.work.RunUrgent(c)\n' \
    $'\tcase co.work != nil && co.work.HasUrgent():\n\t\tco.work.RunUrgent(c)\n\tcase co.Ep.PendingOn(network.VNetReply) > 0:\n\t\tco.deliver(c, co.Ep.Dequeue())\n'
mutation ej-busy-arr "$net" \
    'dst.ejBusy[p.VNet] = start + p.linkOcc' \
    'dst.ejBusy[p.VNet] = arr + p.linkOcc'
mutation occ-sync-1 "$agent" \
    'c.SyncTo(co.busyUntil)' \
    'c.SyncTo(co.busyUntil - 1)'
mutation ej-queue-stat "$net" \
    'QueueingCycles += uint64(start - arr)' \
    'QueueingCycles += uint64(start - arr + 1)'
mutation inj-queue-skip "$net" \
    $'QueueingCycles += uint64(busy - start)\n\t\t\tstart = busy\n' \
    $'QueueingCycles += uint64(busy - start)\n'
mutation stache-dataro+1 internal/stache/handlers.go \
    $'\tst.completeFill(np, pkt, mem.TagReadOnly, true)\n' \
    $'\tnp.Charge(1)\n\tst.completeFill(np, pkt, mem.TagReadOnly, true)\n'
mutation stache-skip-inval internal/stache/handlers.go \
    $'\tcase tag == mem.TagReadOnly:\n\t\tnp.Invalidate(va)\n' \
    $'\tcase tag == mem.TagReadOnly:\n'
mutation dirnnb-reply+1 internal/dirnnb/dirnnb.go \
    $'Handler: hReply, Args: []uint64{uint64(block), uint64(fill)},\n\t}, extra)' \
    $'Handler: hReply, Args: []uint64{uint64(block), uint64(fill)},\n\t}, extra+1)'
mutation dirnnb-skip-inval internal/dirnnb/dirnnb.go \
    $'\tcase hInval:\n\t\ts.m.Caches[ns.node].Invalidate(mem.PA(pkt.Args[0]))\n' \
    $'\tcase hInval:\n'
mutation dirnnb-forget-sharer internal/dirnnb/dirnnb.go \
    $'\t\te.sharers.add(req)\n' \
    ''
mutation dirnnb-fanout-reversed internal/dirnnb/dirnnb.go \
    $'for ; w != 0; w &= w - 1 {\n\t\t\ts.m.Net.Send(&network.Packet{\n\t\t\t\tSrc: home, Dst: i*64 + bits.TrailingZeros64(w),' \
    $'for ; w != 0; w &^= 1 << (63 - bits.LeadingZeros64(w)) {\n\t\t\ts.m.Net.Send(&network.Packet{\n\t\t\t\tSrc: home, Dst: i*64 + 63 - bits.LeadingZeros64(w),'
mutation stache-forget-sharer internal/stache/handlers.go \
    $'\tcase dirShared:\n\t\td.sharers.add(r, &ns.spare)\n' \
    $'\tcase dirShared:\n'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tree="$tmp/tree"
mkdir "$tree"
rev=$(git stash create)
git archive "${rev:-HEAD}" | tar -x -C "$tree"

# apply <file> <from> <to>: replace the one occurrence of from.
apply() {
    local content rest
    content=$(<"$tree/$1")
    rest=${content#*"$2"}
    if [ "$rest" = "$content" ]; then
        echo "mutate: $1: search text not found" >&2
        exit 1
    fi
    if [ "${rest#*"$2"}" != "$rest" ]; then
        echo "mutate: $1: search text matches more than once" >&2
        exit 1
    fi
    printf '%s\n' "${content/"$2"/"$3"}" >"$tree/$1"
}

# row <label>: run every fence on the tree as it stands.
row() {
    local line="| $1 |" i status
    for i in "${!fence_cmds[@]}"; do
        status=0
        (cd "$tree" && timeout 600 bash -c "${fence_cmds[$i]}") >"$tmp/log" 2>&1 || status=$?
        if [ "$status" -eq 0 ]; then
            line+=" — |"
        elif [ "$1" = baseline ]; then
            echo "mutate: fence ${fence_names[$i]} fails on the unmutated tree:" >&2
            tail -20 "$tmp/log" >&2
            exit 1
        elif [ "$status" -eq 124 ]; then
            line+=" caught (timeout) |"
        else
            line+=" caught |"
        fi
    done
    echo "$line"
}

header="| mutation |" rule="|---|"
for f in "${fence_names[@]}"; do
    header+=" $f |" rule+="---|"
done
echo "$header"
echo "$rule"
row baseline
for i in "${!mut_names[@]}"; do
    cp "$tree/${mut_files[$i]}" "$tmp/orig"
    apply "${mut_files[$i]}" "${mut_from[$i]}" "${mut_to[$i]}"
    row "\`${mut_names[$i]}\`"
    cp "$tmp/orig" "$tree/${mut_files[$i]}"
done
