package em3d

import (
	"maps"
	"slices"

	"github.com/tempest-sim/tempest/internal/stats"
)

// StateDigest folds the update protocol's full state into one hash: the
// embedded Stache digest (the ordinary segments) plus the update layer's
// per-node receive accounting, flush epochs, and every custom home
// page's per-block copy lists. Map keys are visited sorted, so the value
// is independent of map iteration order. Call only while the machine is
// not running.
func (u *UpdateProtocol) StateDigest() uint64 {
	d := stats.NewDigest()
	d.Word(u.Protocol.StateDigest())
	for node, un := range u.per {
		d.Word(uint64(node))
		if un.pendingValid {
			d.Word(uint64(un.pendingVA) | 1<<63)
		}
		for _, segBase := range slices.Sorted(maps.Keys(un.segs)) {
			st := un.segs[segBase]
			d.Word(uint64(segBase))
			d.Word(st.received)
			d.Word(st.target)
			d.Word(uint64(st.waitRound)<<32 | uint64(uint32(st.runningActive)))
			for _, e := range slices.Sorted(maps.Keys(st.regByEpoch)) {
				d.Word(uint64(e)<<32 | uint64(uint32(st.regByEpoch[e])))
			}
			d.Word(^uint64(0))
		}
		for _, segBase := range slices.Sorted(maps.Keys(un.flushEpoch)) {
			d.Word(uint64(segBase))
			d.Word(uint64(un.flushEpoch[segBase]))
		}
		d.Word(^uint64(0))
		for _, segBase := range slices.Sorted(maps.Keys(un.homePages)) {
			for _, pageVA := range un.homePages[segBase] {
				pte, ok := u.m.VM.Table(node).Lookup(pageVA.VPN())
				if !ok {
					continue
				}
				pg, ok := u.m.Mems[node].Frame(pte.PA).User.(*updPage)
				if !ok {
					continue
				}
				d.Word(uint64(pg.baseVA))
				for _, sharers := range pg.sharers {
					for _, s := range sharers {
						d.Word(uint64(s) + 1)
					}
					d.Word(^uint64(0))
				}
			}
		}
	}
	return uint64(d)
}
