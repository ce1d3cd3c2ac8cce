package dirnnb

import (
	"hash/fnv"
	"sort"

	"github.com/tempest-sim/tempest/internal/agent"
	"github.com/tempest-sim/tempest/internal/mem"
)

// AgentCore returns node's directory-agent core. The conformance
// recorder uses it to tap message dispatches (agent.Core.OnDispatch).
func (s *System) AgentCore(node int) *agent.Core { return s.nodes[node].core }

// StateDigest folds the directory's full coherence state — every home's
// per-block entries (owner, sharers) in ascending PA order, in-flight
// transactions, and first-touch claims — into one hash, visiting nodes
// in order and map keys sorted so the value is independent of map
// iteration order. Equal digests mean equal directory state. Call only
// while the machine is not running; the conformance suite records it
// after Run as part of a trace's footer.
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
			for _, m := range e.sharers.members() {
				w(uint64(m) + 1)
			}
			w(^uint64(0)) // sharer-list terminator
		})
		// In-flight transactions and claims are keyed by monotonically
		// assigned IDs / VPNs; sort for determinism. A quiescent machine
		// (post-Run) has none, but a digest taken at a barrier must not
		// depend on map order either.
		txids := make([]uint64, 0, len(ns.txns))
		for id := range ns.txns {
			txids = append(txids, id)
		}
		sort.Slice(txids, func(i, j int) bool { return txids[i] < txids[j] })
		for _, id := range txids {
			tx := ns.txns[id]
			w(id)
			w(uint64(tx.block))
			w(uint64(uint32(tx.req))<<32 | uint64(uint16(tx.acksLeft))<<16 | uint64(tx.fill)<<8 |
				map[bool]uint64{false: 0, true: 1}[tx.write])
		}
		w(^uint64(0))
		vpns := make([]uint64, 0, len(ns.claims))
		for vpn := range ns.claims {
			vpns = append(vpns, vpn)
		}
		sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
		for _, vpn := range vpns {
			cl := ns.claims[vpn]
			w(vpn)
			w(uint64(uint32(cl.home))<<32 | uint64(cl.pa)&0xFFFFFFFF)
			for _, wt := range cl.waiters {
				w(uint64(wt) + 1)
			}
			w(^uint64(0))
		}
	}
	return h.Sum64()
}
