package stache

import (
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/typhoon"
)

// Non-binding prefetch: the Busy tag exists precisely to distinguish
// "blocks that require special handling, e.g. because they have been
// prefetched" (paper §5.4). Prefetch asks the local NP to fetch a block
// without suspending the compute thread; a later access that beats the
// data takes a block access fault that simply joins the outstanding
// request.

// hPrefetch is the CPU-to-own-NP prefetch request.
const hPrefetch = HNextFree + 16

// Prefetch hints that va's block will be needed soon. The page must
// already be mapped locally (a stache page exists); unmapped pages are
// ignored — prefetch never allocates. Non-blocking: costs the CPU only
// the message send.
func (st *Protocol) Prefetch(p *machine.Proc, va mem.VA) {
	st.sys.Send(p, network.VNetRequest, p.ID(), hPrefetch, []uint64{uint64(st.BlockBase(va))}, nil)
}

// handlePrefetch runs on the requesting node's own NP.
func (st *Protocol) handlePrefetch(np *typhoon.NP, pkt *network.Packet) {
	va := mem.VA(pkt.Args[0])
	pa, pte, ok := np.Translate(va)
	if !ok || pte.Mode != ModeRemote {
		np.Charge(2)
		return // unmapped or a home page: nothing to do
	}
	if np.Mem().Tag(pa) != mem.TagInvalid {
		np.Charge(2)
		return // already present (or in flight)
	}
	ns := st.per[np.Node()]
	if ns.pendingValid && ns.pendingVA == va {
		return // a demand fault already covers it
	}
	st.per[np.Node()].hot.prefetches++
	ns.prefetching[va] = true
	home := np.FrameOf(va).Home
	np.SetTag(va, mem.TagBusy)
	np.Charge(costRequestExtra)
	np.SendRequest(home, HGetS, []uint64{uint64(va)}, nil)
}

// prefetchFill completes a data reply that has no matching demand fault:
// it belongs to an outstanding prefetch. The prefetched block is Busy
// until this reply, and replacePage orphans every Busy block's prefetch,
// so the page is still mapped here.
func (st *Protocol) prefetchFill(np *typhoon.NP, pkt *network.Packet, tag mem.Tag) bool {
	va := mem.VA(pkt.Args[0])
	ns := st.per[np.Node()]
	if !ns.prefetching[va] {
		return false
	}
	delete(ns.prefetching, va)
	delete(ns.wbOutstanding, va)
	np.ForceWriteBlock(va, pkt.Data)
	np.SetTag(va, tag)
	np.Charge(costDataArriveExtra)
	ns.hot.prefetchFills++
	return true
}
