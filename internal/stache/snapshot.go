package stache

import (
	"hash/fnv"
	"sort"

	"github.com/tempest-sim/tempest/internal/mem"
)

// digestWriter folds words into an FNV-1a hash; the protocol state
// digests share it so every package hashes the same way.
type digestWriter struct {
	h interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
	buf [8]byte
}

func newDigestWriter() *digestWriter { return &digestWriter{h: fnv.New64a()} }

func (d *digestWriter) word(v uint64) {
	for i := 0; i < 8; i++ {
		d.buf[i] = byte(v >> (8 * i))
	}
	d.h.Write(d.buf[:])
}

func (d *digestWriter) sum() uint64 { return d.h.Sum64() }

// sortedVAs returns m's keys in address order (map iteration order must
// never reach a digest).
func sortedVAs[V any](m map[mem.VA]V) []mem.VA {
	out := make([]mem.VA, 0, len(m))
	for va := range m {
		out = append(out, va)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StateDigest folds the protocol's full coherence state — every home
// page's per-block directory (state, owner, sharers, busy-transaction
// fields) and every node's requester-side state (pending fault, stache
// page FIFO, outstanding writebacks, orphans, prefetches) — into one
// hash. Equal digests mean equal protocol state; the conformance suite
// records it in a trace's footer and compares it on re-record. Call only
// while the machine is not running.
func (st *Protocol) StateDigest() uint64 {
	d := newDigestWriter()
	// Home-side: directory entries, in (segment, page, block) order.
	for _, seg := range st.m.VM.Segments() {
		for i := 0; i < seg.Pages(); i++ {
			va := seg.Base.PageBase() + mem.VA(i*mem.PageSize)
			home := st.m.VM.Home(va)
			if home < 0 {
				continue
			}
			pte, ok := st.m.VM.Table(home).Lookup(va.VPN())
			if !ok {
				continue
			}
			dir, ok := st.m.Mems[home].Frame(pte.PA).User.(*homeDir)
			if !ok {
				continue
			}
			d.word(uint64(va))
			for bi := range dir.blocks {
				b := &dir.blocks[bi]
				d.word(uint64(b.state)<<32 | uint64(uint16(b.owner))<<16 | uint64(b.pend)<<8 |
					uint64(boolBit(b.migratory))<<1 | uint64(boolBit(b.pendUpgrade)))
				d.word(uint64(uint16(b.pendReq))<<16 | uint64(uint16(b.pendOwner)))
				for _, s := range b.sharers.members() {
					d.word(uint64(s) + 1)
				}
				d.word(^uint64(0)) // sharer/waiter separator
				for _, s := range b.waiting.members() {
					d.word(uint64(s) + 1)
				}
			}
		}
	}
	// Requester-side: per-node caching state.
	for node, ns := range st.per {
		d.word(uint64(node))
		d.word(uint64(boolBit(ns.pendingValid))<<2 | uint64(boolBit(ns.pendingWrite))<<1 |
			uint64(boolBit(ns.pendingUpgrade)))
		d.word(uint64(ns.pendingVA))
		d.word(uint64(boolBit(ns.homePendingValid)))
		for _, va := range ns.fifo {
			d.word(uint64(va))
		}
		d.word(^uint64(0))
		for _, va := range sortedVAs(ns.wbOutstanding) {
			d.word(uint64(va))
		}
		d.word(^uint64(0))
		for _, va := range sortedVAs(ns.orphans) {
			d.word(uint64(va)<<8 | uint64(uint8(ns.orphans[va])))
		}
		d.word(^uint64(0))
		for _, va := range sortedVAs(ns.prefetching) {
			d.word(uint64(va))
		}
	}
	return d.sum()
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
