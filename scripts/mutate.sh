#!/usr/bin/env bash
# mutate: the fence audit. Applies one-line mutations — of the message
# layer (internal/network, internal/agent) and of the protocol handlers —
# one at a time, runs every behaviour fence on each, and prints a
# markdown table of which fence caught which mutation (EXPERIMENTS.md
# "Fence audit by mutation"). The last column, unit, is the mutated
# packages' own tests.
#
# The checkout is never touched. The tracked files, uncommitted edits
# included, are exported to a temporary directory ($TMPDIR), and every
# mutation is applied to and undone in that copy. A mutation is a
# search/replace that must match exactly once, so one that no longer
# applies stops the script instead of silently testing nothing. A
# baseline row runs first: every fence must pass on the unmutated copy.
#
# Usage: bash scripts/mutate.sh [mutation...]
# With names, only those rows run (after the baseline). Not part of
# `make ci`: the whole table takes ~6 minutes on two cores with a warm
# build cache.
set -euo pipefail
cd "$(dirname "$0")/.."

fence_names=(conform contended goldens diff unit)
fence_cmds=(
    "go test -count=1 ./internal/conform"
    "go test -count=1 -run '^TestContendedDigest\$' ./internal/harness"
    "go test -count=1 -run '^TestGolden' ./internal/harness"
    "go test -count=1 -run '^TestDifferentialMatrix\$' ./internal/conform"
    "go test -count=1 ./internal/network ./internal/agent ./internal/machine ./internal/dirnnb ./internal/stache ./internal/typhoon ./internal/blizzard ./internal/sim ./internal/apps ./internal/apps/em3d"
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
    'lat = localLatency' \
    'lat = localLatency + 1'
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
    $'for w := out.invals; w != 0; w &= w - 1 {\n\t\ts.m.Net.Send(&network.Packet{\n\t\t\tSrc: home, Dst: bits.TrailingZeros64(uint64(w)),' \
    $'for w := out.invals; w != 0; w &^= 1 << (63 - bits.LeadingZeros64(uint64(w))) {\n\t\ts.m.Net.Send(&network.Packet{\n\t\t\tSrc: home, Dst: 63 - bits.LeadingZeros64(uint64(w)),'
mutation stache-forget-sharer internal/stache/handlers.go \
    $'\tcase dirShared:\n\t\td.sharers.add(r)\n' \
    $'\tcase dirShared:\n'
# Charge-then-block sites (DESIGN.md §7): the first two must keep their
# yielding charge; the third reverts DirNNB's atomic issue charge, an
# equivalent mutant for every behaviour fence.
mutation typhoon-baf-atomic internal/typhoon/typhoon.go \
    'p.Ctx.Advance(BAFSuspendCycles)' \
    'p.Ctx.AdvanceAtomic(BAFSuspendCycles)'
mutation barrier-charge-atomic internal/machine/proc.go \
    $'\tp.Ctx.Advance(1)\n\tif st := p.m.stalls[p.node]; st > 0 {\n\t\tp.m.stalls[p.node] = 0\n\t\tp.Ctx.Advance(st)\n\t}\n\tp.m.Bar.Arrive' \
    $'\tp.Ctx.AdvanceAtomic(1)\n\tif st := p.m.stalls[p.node]; st > 0 {\n\t\tp.m.stalls[p.node] = 0\n\t\tp.Ctx.Advance(st)\n\t}\n\tp.m.Bar.Arrive'
mutation dirnnb-issue-yields internal/dirnnb/dirnnb.go \
    'p.Ctx.AdvanceAtomic(RemoteIssue)' \
    'p.Ctx.Advance(RemoteIssue)'
# A home page's directory on first use, and the overflowed set's walk
# order, which event order and the digests depend on.
mutation stache-dir-not-kept internal/stache/handlers.go \
    $'\t\tframe.User = hd\n' \
    ''
mutation stache-overflow-descending internal/stache/dir.go \
    $'for w := s.vec; w != 0; w &= w - 1 {\n\t\t\tvisit(bits.TrailingZeros64(w))' \
    $'for w := s.vec; w != 0; w &^= 1 << (63 - bits.LeadingZeros64(w)) {\n\t\t\tvisit(63 - bits.LeadingZeros64(w))'
# A home directory entry's packed fields: an acknowledgement taken from a
# node the Busy entry does not await, and a flag write that clears the
# entry's other flags.
mutation stache-waiting-any-src internal/stache/handlers.go \
    'if d.state != dirBusy || !d.waiting.has(src) {' \
    'if d.state != dirBusy {'
mutation stache-flag-clobber internal/stache/dir.go \
    'd.flags |= f' \
    'd.flags = f'
# Stache's page budget, its only replacement trigger, overrun by a page.
mutation stache-budget-over-by-one internal/stache/stache.go \
    'len(st.per[node].fifo) >= st.maxPages' \
    'len(st.per[node].fifo) > st.maxPages'
# Stache's orphaned prefetch, which no fenced run reaches (only the unit
# column, TestPrefetchSurvivesPageReplacement, can catch these): a
# replacement that does not count the orphan, and an orphan consumed
# without handing the home its residency back.
mutation stache-orphan-not-counted internal/stache/stache.go \
    $'\t\t\tst.per[node].orphans[blockVA]++\n' \
    ''
mutation stache-orphan-keeps-residency internal/stache/handlers.go \
    $'\tst.dropClean(np, va)\n' \
    ''
# The recorder's own placement: an agent's KNetDeliver follows the
# dispatch it records.
mutation agent-deliver-before-dispatch "$agent" \
    $'\tco.disp.DispatchMessage(c, pkt)\n\tif tr := co.net.Tracer; tr != nil {\n\t\t// KNetDeliver: dispatch start and the service time it consumed.\n\t\ttr.Emit(trace.Event{T: start, Node: co.node, Kind: trace.KNetDeliver, VA: mem.VA(c.Time() - start), Aux: pkt.TraceID()})\n\t}\n' \
    $'\tif tr := co.net.Tracer; tr != nil {\n\t\t// KNetDeliver: dispatch start and the service time it consumed.\n\t\ttr.Emit(trace.Event{T: start, Node: co.node, Kind: trace.KNetDeliver, VA: mem.VA(c.Time() - start), Aux: pkt.TraceID()})\n\t}\n\tco.disp.DispatchMessage(c, pkt)\n'
# The reference hit check (DESIGN.md "References"): the tick committed
# before the stolen-cycle and overhead checks, so resolve charges it a
# second time on exactly the references software Tempest makes; a tick
# that never takes the quantum yield; and a floor reciprocal in
# AtGlobal's index split.
mutation hit-double-tick internal/machine/proc.go \
    $'\tif p.tlb.Has(vpn, rec.CPUHint) && rec.Mapped() && (!write || rec.Writable()) && p.cc.Hit(pa, write) &&\n\t\tp.m.PerRefOverhead == 0 && p.m.stalls[p.node] == 0 && p.Ctx.TryTick() {' \
    $'\tif p.tlb.Has(vpn, rec.CPUHint) && rec.Mapped() && (!write || rec.Writable()) && p.cc.Hit(pa, write) &&\n\t\tp.Ctx.TryTick() && p.m.PerRefOverhead == 0 && p.m.stalls[p.node] == 0 {'
mutation hit-skips-quantum internal/sim/context.go \
    'if c.lazyQuantum || c.time+1-c.lastYield >= c.eng.quantum {' \
    'if false {'
mutation atglobal-floor-recip internal/apps/apps.go \
    '^uint64(0)/uint64(perProc) + 1' \
    '^uint64(0) / uint64(perProc)'
# EM3D's weights are replayed from a saved generator state, not stored:
# a drift the bodies and Verify share but the index fill does not.
mutation em3d-replay-drift internal/apps/em3d/em3d.go \
    $'\t\tgen[p] = edgeGen{rng: *rng, pool: pool}\n' \
    $'\t\tgen[p] = edgeGen{rng: *rng, pool: pool}\n\t\tgen[p].rng.Next()\n'
# Table 2 constants and a workload constant no point can set: the TLB
# refill charged one cycle more, and EM3D's remote pool sized for four
# edges per distinct remote value instead of three.
mutation tlbmiss+1 internal/machine/machine.go \
    'TLBMissCycles sim.Time = 25' \
    'TLBMissCycles sim.Time = 26'
mutation em3d-reuse+1 internal/apps/em3d/em3d.go \
    'const remoteReuse = 3' \
    'const remoteReuse = 4'

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
    if [ $# -gt 0 ] && [[ " $* " != *" ${mut_names[$i]} "* ]]; then
        continue
    fi
    cp "$tree/${mut_files[$i]}" "$tmp/orig"
    apply "${mut_files[$i]}" "${mut_from[$i]}" "${mut_to[$i]}"
    row "\`${mut_names[$i]}\`"
    cp "$tmp/orig" "$tree/${mut_files[$i]}"
done
