package stache

import (
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/typhoon"
)

// Check-in (paper §4, after Hill et al.'s Cooperative Shared Memory):
// a program that knows it is done with a block can flush it back to the
// home voluntarily, replacing the later invalidation/acknowledgement
// round trip with one asynchronous notification. The paper's §4 uses
// check-in as the halfway point between transparent shared memory and
// the custom update protocol: it cuts coherence latency but "cannot
// attain the minimum of one message".

// hCheckIn is the CPU-to-own-NP check-in request.
const hCheckIn = HNextFree + 17

// CheckIn hints that the caller is done with va's block: a ReadWrite
// copy is written back, a ReadOnly copy dropped, and the home's
// directory updated — all asynchronously; the call costs the CPU only
// the message send.
func (st *Protocol) CheckIn(p *machine.Proc, va mem.VA) {
	st.sys.Send(p, network.VNetRequest, p.ID(), hCheckIn, []uint64{uint64(st.BlockBase(va))}, nil)
}

// handleCheckIn runs on the requesting node's own NP.
func (st *Protocol) handleCheckIn(np *typhoon.NP, pkt *network.Packet) {
	va := mem.VA(pkt.Args[0])
	pa, pte, ok := np.Translate(va)
	if !ok || pte.Mode != ModeRemote {
		np.Charge(2)
		return // not a stache copy: nothing to check in
	}
	home := np.FrameOf(va).Home
	ns := st.per[np.Node()]
	switch np.Mem().Tag(pa) {
	case mem.TagReadWrite:
		data := np.ForceReadBlockScratch(va)
		np.Invalidate(va)
		st.per[np.Node()].hot.checkins++
		st.per[np.Node()].hot.wbDirtyBlocks++
		ns.wbOutstanding[va] = true
		np.Charge(4)
		np.SendRequest(home, HWbDirty, []uint64{uint64(va)}, data)
	case mem.TagReadOnly:
		np.Invalidate(va)
		st.per[np.Node()].hot.checkins++
		st.per[np.Node()].hot.wbCleanBlocks++
		ns.wbOutstanding[va] = true
		st.dropClean(np, va)
	default:
		// Invalid or Busy (a fault or prefetch in flight): leave it be.
		np.Charge(2)
	}
}
