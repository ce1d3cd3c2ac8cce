#!/usr/bin/env bash
# fleet-check: the distributed-sweep digest gate, one leg per role a
# sweep binary can take.
#
# Leg 1 (client role, -fleet): the reduced bench sweep through a
# standalone fleet coordinator and two local worker processes over a
# unix socket — one of them rigged to die on its second lease — must
# match the committed golden exactly. This pins the whole fleet contract
# at once: lease/heartbeat/reassignment under a real worker loss, result
# verification against canonical cache keys at coordinator and client,
# point scheduling and fail-fast on the client, and bit-identical results
# versus the local pool.
#
# Leg 2 (embedded coordinator, -workers-addr): the same sweep with bench
# itself listening and two workers dialling it.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() {
    kill $(jobs -p) 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
sock="$tmp/fleet.sock"
sock2="$tmp/embedded.sock"

go build -o "$tmp/fleet" ./cmd/fleet
go build -o "$tmp/bench" ./cmd/bench

"$tmp/fleet" coordinator -addr "$sock" -quiet &

# Worker 1 runs two connections and exits(1) on the second lease the
# process receives, whichever connection it arrives on — the injected
# mid-run loss the coordinator must absorb by re-leasing its work.
# Worker 2 also runs two connections and survives to finish the sweep.
# Both retry the dial, so start order doesn't matter.
"$tmp/fleet" worker -addr "$sock" -j 2 -die-after-leases 2 -quiet &
"$tmp/fleet" worker -addr "$sock" -j 2 -quiet &

"$tmp/bench" -fleet "$sock" -check testdata/bench.digest

echo "fleet-check: digest ok through coordinator + 2 workers (one killed mid-run)"

# The workers start first and retry the dial until bench is listening;
# they exit when bench closes its coordinator.
"$tmp/fleet" worker -addr "$sock2" -quiet &
"$tmp/fleet" worker -addr "$sock2" -quiet &

"$tmp/bench" -workers-addr "$sock2" -check testdata/bench.digest

echo "fleet-check: digest ok through an embedded coordinator + 2 workers"
