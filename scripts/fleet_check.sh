#!/usr/bin/env bash
# fleet-check: the distributed-sweep digest gate.
#
# The reduced bench sweep as a client (-fleet) of a standalone fleet
# coordinator and two local worker processes over a unix socket — one of
# them rigged to die on its second lease — must match the committed
# golden exactly. This pins the whole fleet contract at once:
# lease/heartbeat/reassignment under a real worker loss, result
# verification against canonical cache keys at coordinator and client,
# point scheduling and fail-fast on the client, and bit-identical results
# versus the local pool.
#
# The workers share one -cache-dir, the only place a fleet caches
# results (the coordinator and the client keep none). A local bench run
# on that directory must then be served whole from it (-expect-cached):
# the entries a fleet stores are the entries a local sweep reads.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() {
    kill $(jobs -p) 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
sock="$tmp/fleet.sock"

go build -o "$tmp/fleet" ./cmd/fleet
go build -o "$tmp/bench" ./cmd/bench

"$tmp/fleet" coordinator -addr "$sock" -quiet &

# Worker 1 runs two connections and exits(1) on the second lease the
# process receives, whichever connection it arrives on — the injected
# mid-run loss the coordinator must absorb by re-leasing its work.
# Worker 2 also runs two connections and survives to finish the sweep.
# Both retry the dial, so start order doesn't matter.
"$tmp/fleet" worker -addr "$sock" -j 2 -cache-dir "$tmp/cache" -die-after-leases 2 -quiet &
"$tmp/fleet" worker -addr "$sock" -j 2 -cache-dir "$tmp/cache" -quiet &

"$tmp/bench" -fleet "$sock" -check testdata/bench.digest

echo "fleet-check: digest ok through coordinator + 2 workers (one killed mid-run)"

"$tmp/bench" -cache-dir "$tmp/cache" -check testdata/bench.digest -expect-cached

echo "fleet-check: digest ok from the workers' cache directory, nothing simulated"
