package dirnnb

import (
	"hash/fnv"
	"math/bits"
	"slices"
	"sort"

	"github.com/tempest-sim/tempest/internal/agent"
	"github.com/tempest-sim/tempest/internal/mem"
)

// AgentCore returns node's directory-agent core. The conformance
// recorder uses it to tap message dispatches (agent.Core.OnDispatch).
func (s *System) AgentCore(node int) *agent.Core { return s.nodes[node].core }

// StateDigest folds the directory's full coherence state — every home's
// per-block entries (owner, sharers) in ascending PA order, and in-flight
// transactions — into one hash, visiting nodes in order. Equal digests
// mean equal directory state. Call only while the machine is not
// running; the conformance suite records it after Run as part of a
// trace's footer.
func (s *System) StateDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, ns := range s.nodes {
		w(uint64(ns.node))
		ns.eachEntry(func(pa mem.PA, e *entry) {
			w(uint64(pa))
			w(uint64(uint32(e.owner)) + 1)
			for i, word := range e.sharers {
				for ; word != 0; word &= word - 1 {
					w(uint64(i*64+bits.TrailingZeros64(word)) + 1)
				}
			}
			w(^uint64(0)) // sharer-list terminator
		})
		// In-flight transactions are keyed by monotonically assigned IDs;
		// sort for determinism. A quiescent machine (post-Run) has none,
		// but a digest taken at a barrier must not depend on the order
		// transactions were retired in.
		live := slices.Clone(ns.txns[:ns.live])
		sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
		for _, tx := range live {
			w(tx.id)
			w(uint64(tx.block))
			w(uint64(uint32(tx.req))<<32 | uint64(uint16(tx.acksLeft))<<16 | uint64(tx.fill)<<8 |
				map[bool]uint64{false: 0, true: 1}[tx.write])
		}
		w(^uint64(0))
	}
	return h.Sum64()
}
