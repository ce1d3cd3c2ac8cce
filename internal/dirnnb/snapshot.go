package dirnnb

import (
	"math/bits"
	"slices"
	"sort"

	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/stats"
)

// StateDigest folds the directory's full coherence state — every home's
// per-block entries (owner, sharers) in ascending PA order, and in-flight
// transactions — into one hash, visiting nodes in order. Equal digests
// mean equal directory state. Call only while the machine is not
// running; the conformance suite records it after Run as part of a
// trace's footer.
func (s *System) StateDigest() uint64 {
	d := stats.NewDigest()
	for _, ns := range s.nodes {
		d.Word(uint64(ns.node))
		ns.eachEntry(func(pa mem.PA, e *entry) {
			d.Word(uint64(pa))
			d.Word(uint64(uint32(e.owner)) + 1)
			for w := e.sharers; w != 0; w &= w - 1 {
				d.Word(uint64(bits.TrailingZeros64(uint64(w))) + 1)
			}
			d.Word(^uint64(0)) // sharer-list terminator
		})
		// In-flight transactions are keyed by monotonically assigned IDs;
		// sort for determinism. A quiescent machine (post-Run) has none,
		// but a digest taken at a barrier must not depend on the order
		// transactions were retired in.
		live := slices.Clone(ns.txns[:ns.live])
		sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
		for _, tx := range live {
			d.Word(tx.id)
			d.Word(uint64(tx.block))
			d.Word(uint64(uint32(tx.req))<<32 | uint64(uint16(tx.acksLeft))<<16 | uint64(tx.fill)<<8 |
				map[bool]uint64{false: 0, true: 1}[tx.write])
		}
		d.Word(^uint64(0))
	}
	return uint64(d)
}
