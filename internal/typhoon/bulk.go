package typhoon

import (
	"fmt"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/sim"
)

// BulkChunkBytes is the data payload of one bulk-transfer packet: a
// maximum-size twenty-word packet holds the receive handler PC, an
// address, 64 bytes of data, and two spare words (paper §5.2).
const BulkChunkBytes = 64

// bulkTransfer is one in-flight bulk data transfer, driven by the source
// NP's transfer thread. Completions carry no transfer ID — data packets
// must fit the 20-word limit — so each NP matches hBulkDone messages to
// its oldest outstanding transfer per destination (per-pair in-order
// delivery makes that exact).
type bulkTransfer struct {
	dst    int
	srcVA  mem.VA
	dstVA  mem.VA
	left   int
	done   bool
	waiter *machine.Proc
}

// Bulk is the initiator's handle on an asynchronous bulk transfer
// (§2.2): the transfer proceeds on the NP while the compute thread keeps
// running; Wait blocks until completion.
type Bulk struct {
	np *NP
	bt *bulkTransfer
}

// Done reports (by polling, §2.2) whether the transfer completed.
func (b *Bulk) Done() bool { return b.bt.done }

// Wait suspends the calling processor until the transfer completes.
func (b *Bulk) Wait(p *machine.Proc) {
	// A yielding charge: without the yield, a bulkDoneHandler that runs
	// inside the window finds the waiter set and Unparks it, and that
	// Unpark's syncRunning materialises the handler's own lazy quantum
	// mid-step, not at the step boundary. No committed workload tells
	// the two orders apart, but nothing shows they agree either, and
	// this charge runs once per wait.
	p.Ctx.Advance(1)
	for !b.bt.done {
		b.bt.waiter = p
		p.Ctx.Park("bulk transfer")
	}
	b.bt.waiter = nil
}

// BulkTransfer starts an asynchronous transfer of n bytes from srcVA on
// p's node to dstVA on node dst (§2.2, §5.2). The compute processor
// initiates it by messaging its own NP with the transfer parameters; the
// NP packetises the data in 64-byte chunks whenever no messages or faults
// are pending. Addresses must be 8-byte aligned.
func (s *System) BulkTransfer(p *machine.Proc, dst int, srcVA, dstVA mem.VA, n int) *Bulk {
	if srcVA%8 != 0 || dstVA%8 != 0 || n%8 != 0 {
		panic("typhoon: bulk transfers must be 8-byte aligned")
	}
	if n <= 0 {
		panic("typhoon: bulk transfer of zero bytes")
	}
	np := s.nps[p.ID()]
	bt := &bulkTransfer{
		dst:   dst,
		srcVA: srcVA,
		dstVA: dstVA,
		left:  n,
	}
	// The CPU sends the parameters to its own NP (§5.2); model the local
	// message cost and queue the transfer when it "arrives".
	p.Ctx.Advance(SendSetupCycles + 6*SendPerWordCycles)
	s.M.Eng.AfterFrom(1, p.ID(), func() {
		np.bulk = append(np.bulk, bt)
		np.bulkDone[dst] = append(np.bulkDone[dst], bt)
		np.ctx.Unpark(s.M.Eng.Now())
	})
	return &Bulk{np: np, bt: bt}
}

// runBulkChunk sends the next chunk of the oldest active transfer. It is
// called from the dispatch loop only when no message or fault is waiting,
// so transfers overlap computation without delaying protocol handling.
func (np *NP) runBulkChunk(c *sim.Context) {
	c.BeginNoBlock() // the transfer thread runs to completion like a handler
	defer c.EndNoBlock()
	bt := np.bulk[0]
	chunk := BulkChunkBytes
	if bt.left < chunk {
		chunk = bt.left
	}
	// Do not cross page boundaries in a single ReadRange/WriteRange.
	if room := int(mem.PageSize - bt.srcVA.PageOffset()); chunk > room {
		chunk = room
	}
	if room := int(mem.PageSize - bt.dstVA.PageOffset()); chunk > room {
		chunk = room
	}
	srcPA := np.mustTranslate(bt.srcVA)
	data := np.bulkScratch[:chunk]
	np.Mem().ReadRange(srcPA, data)
	bt.left -= chunk
	// The destination address is 8-byte aligned, so its low bit carries
	// the last-chunk flag: one arg keeps the packet at
	// 4 (handler) + 8 (arg) + 64 (data) = 76 bytes, within the
	// twenty-word limit — the paper's packet layout (§5.2).
	addrWord := uint64(bt.dstVA)
	if bt.left == 0 {
		addrWord |= 1
	}
	np.hot.bulkPackets++
	c.Advance(BlockXferCycles * sim.Time((chunk+31)/32))
	np.Send(network.VNetRequest, bt.dst, hBulkData, []uint64{addrWord}, data)
	bt.srcVA += mem.VA(chunk)
	bt.dstVA += mem.VA(chunk)
	if bt.left == 0 {
		copy(np.bulk, np.bulk[1:])
		np.bulk = np.bulk[:len(np.bulk)-1]
	}
}

// bulkDataHandler receives one chunk on the destination NP and
// force-writes it at the carried address (low bit = last-chunk flag).
func (np *NP) bulkDataHandler(pkt *network.Packet) {
	addrWord := pkt.Args[0]
	dstVA := mem.VA(addrWord &^ 1)
	last := addrWord&1 == 1
	pa := np.mustTranslate(dstVA)
	np.ctx.Advance(BlockXferCycles * sim.Time((len(pkt.Data)+31)/32))
	np.Mem().WriteRange(pa, pkt.Data)
	if last {
		np.SendReply(pkt.Src, hBulkDone, nil, nil)
	}
}

// bulkDoneHandler completes the oldest outstanding transfer to the
// completing destination (transfers to one destination finish in issue
// order because chunks are sent in order on one network).
func (np *NP) bulkDoneHandler(pkt *network.Packet) {
	q := np.bulkDone[pkt.Src]
	if len(q) == 0 {
		panic(fmt.Sprintf("typhoon: np%d bulk completion from %d with no outstanding transfer", np.node, pkt.Src))
	}
	bt := q[0]
	np.bulkDone[pkt.Src] = q[1:]
	np.ctx.Sync() // the compute thread polls done without a timed op
	bt.done = true
	np.ctx.Advance(1)
	if bt.waiter != nil {
		bt.waiter.Ctx.Unpark(np.ctx.Time())
	}
}

// Send queues an active message from the compute processor itself: the
// CPU writes the destination register, data words, and end-of-message
// marker across the MBus to the NP's separate CPU send queue (§5.1).
func (s *System) Send(p *machine.Proc, vnet network.VNet, dst int, handler uint32, args []uint64, data []byte) {
	s.send(p.Ctx, p.ID(), vnet, dst, handler, args, data)
}

// send is the one send path under the CPU's and the NP's: it charges
// c, the sending context, SendCost and hands the packet to the network,
// fragmenting it when it exceeds the twenty-word packet limit.
func (s *System) send(c *sim.Context, src int, vnet network.VNet, dst int, handler uint32, args []uint64, data []byte) {
	c.Advance(SendCost(len(args), len(data)))
	pkt := &network.Packet{
		Src: src, Dst: dst, VNet: vnet,
		Handler: handler, Args: args, Data: data,
	}
	if pkt.PayloadBytes() > network.MaxPayloadBytes {
		s.sendFragmented(c, src, vnet, dst, handler, args, data)
		return
	}
	s.M.Net.Send(pkt)
}
