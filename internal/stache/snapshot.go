package stache

import (
	"maps"
	"slices"

	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/stats"
)

// StateDigest folds the protocol's full coherence state — every home
// page's per-block directory (state, owner, sharers, busy-transaction
// fields; a page without one hashes as all Idle) and every node's
// requester-side state (pending fault, stache page FIFO, outstanding
// writebacks, orphans, prefetches) — into one hash. Equal digests mean
// equal protocol state; the conformance suite records it in a trace's
// footer and compares it on re-record. Call only while the machine is
// not running.
func (st *Protocol) StateDigest() uint64 {
	d := stats.NewDigest()
	// Home-side: directory entries, in (segment, page, block) order.
	for _, seg := range st.m.VM.Segments() {
		for i := 0; i < seg.Pages(); i++ {
			va := seg.Base.PageBase() + mem.VA(i*mem.PageSize)
			home := st.m.VM.Home(va)
			pte, ok := st.m.VM.Table(home).Lookup(va.VPN())
			if !ok {
				continue
			}
			frame := st.m.Mems[home].Frame(pte.PA)
			dir, ok := frame.User.(*homeDir)
			if !ok && frame.User != nil {
				continue // another protocol's page
			}
			d.Word(uint64(va))
			for bi := range st.m.Mems[home].BlocksPerPage() {
				b := dir.block(bi)
				// Node fields hash sign-extended to 16 bits (none, -1, is
				// 0xffff); the corpus footers pin these words.
				d.Word(uint64(b.state)<<32 | uint64(uint16(int16(b.owner)))<<16 | uint64(b.pend)<<8 |
					boolBit(b.has(flagMigratory))<<1 | boolBit(b.has(flagPendUpgrade)))
				d.Word(uint64(uint16(int16(b.pendReq)))<<16 | uint64(uint16(int16(b.pendOwner))))
				word := func(s int) { d.Word(uint64(s) + 1) }
				b.sharers.each(word)
				d.Word(^uint64(0)) // sharer/waiter separator
				b.waiting.each(word)
			}
		}
	}
	// Requester-side: per-node caching state.
	for node, ns := range st.per {
		d.Word(uint64(node))
		d.Word(boolBit(ns.pendingValid)<<2 | boolBit(ns.pendingWrite)<<1 |
			boolBit(ns.pendingUpgrade))
		d.Word(uint64(ns.pendingVA))
		d.Word(boolBit(ns.homePendingValid))
		for _, va := range ns.fifo {
			d.Word(uint64(va))
		}
		d.Word(^uint64(0))
		for _, va := range slices.Sorted(maps.Keys(ns.wbOutstanding)) {
			d.Word(uint64(va))
		}
		d.Word(^uint64(0))
		for _, va := range slices.Sorted(maps.Keys(ns.orphans)) {
			d.Word(uint64(va)<<8 | uint64(uint8(ns.orphans[va])))
		}
		d.Word(^uint64(0))
		for _, va := range slices.Sorted(maps.Keys(ns.prefetching)) {
			d.Word(uint64(va))
		}
	}
	return uint64(d)
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
