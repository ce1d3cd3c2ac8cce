package typhoon

import (
	"fmt"
	"slices"

	"github.com/tempest-sim/tempest/internal/agent"
	"github.com/tempest-sim/tempest/internal/cache"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stats"
	"github.com/tempest-sim/tempest/internal/trace"
	"github.com/tempest-sim/tempest/internal/vm"
)

// npHot is the NP's hot-path counter block (plain fields, added into a
// fresh counter set by System.Counters after the run).
type npHot struct {
	dispatches    uint64
	msgHandlers   uint64
	faultHandlers uint64
	bafs          uint64
	rtlbMisses    uint64
	tlbMisses     uint64
	sends         uint64
	instructions  uint64
	bulkPackets   uint64
	// pageFaults counts the node's user-level page faults. It lives in
	// the NP's hot stats (though the fault runs on the CPU) so the count
	// stays node-local instead of contending on the system-wide counter
	// map.
	pageFaults uint64
}

// NP is one node's network-interface processor: a user-level programmable
// integer core coupled to the network interface, with its own TLB, a
// reverse TLB for tag lookups, a data cache for handler state, and the
// block-transfer unit (paper Figure 2). Its dispatch loop is a protocol
// agent (internal/agent): the shared core drains the endpoint in
// priority order and the NP supplies the software dispatch/handler
// model on top.
type NP struct {
	sys  *System
	node int
	core *agent.Core
	ctx  *sim.Context
	ep   *network.Endpoint

	tlb    *cache.TLB    // NP virtual-address TLB, hinted by the page records
	rtlb   *cache.TLB    // reverse TLB: physical page -> tag residency
	dcache *cache.Cache  // NP data cache (handler data structures)
	pt     *vm.PageTable // the node's page table, shared with its CPU
	// rtlbHints are the RTLB's hints by local frame number. Like the
	// RTLB's contents they outlive FreeFrame and AllocFrame: the RTLB is
	// keyed by physical page, and a reused frame is the same page.
	rtlbHints []uint16

	// fault is the pending block access fault; a nil Proc means none.
	// One slot is the traffic there is: a compute processor parks right
	// after posting its fault, so it cannot post a second before the NP
	// takes the first.
	fault    Fault
	bulk     []*bulkTransfer
	bulkDone map[int][]*bulkTransfer // outstanding transfers by destination
	frags    map[fragKey]*fragBuf

	// scratch is the block-transfer staging buffer (one CPU-cache block),
	// handed out by ForceReadBlockScratch; bulkScratch stages outgoing
	// bulk chunks. Handlers run to completion and Network.Send copies on
	// send, so one buffer of each per NP suffices.
	scratch     []byte
	bulkScratch [BulkChunkBytes]byte

	hot npHot
}

// Node returns the NP's node ID.
func (np *NP) Node() int { return np.node }

// Time returns the NP's local clock (for unpark timestamps in custom
// protocol handlers).
func (np *NP) Time() sim.Time { return np.ctx.Time() }

// System returns the owning Typhoon system.
func (np *NP) System() *System { return np.sys }

// Machine returns the simulated machine.
func (np *NP) Machine() *machine.Machine { return np.sys.M }

// Mem returns the node's local memory. Every handler touch of simulated
// memory (data, tags, frames) comes through here, so a pending lazy
// yield materialises first: the access observes — and is observed in —
// exactly the scheduling order an eager yield would have produced.
func (np *NP) Mem() *mem.Memory {
	np.ctx.Sync()
	return np.sys.M.Mems[np.node]
}

// Sync materialises any pending lazy reschedule of the NP's dispatch
// loop at exactly this point. Protocol handlers call it before
// publishing state that the compute processor polls without an
// intervening timed operation (completion flags, received counters).
func (np *NP) Sync() { np.ctx.Sync() }

// Proc returns the node's compute processor.
func (np *NP) Proc() *machine.Proc { return np.sys.M.Procs[np.node] }

func (np *NP) postFault(f Fault) {
	if np.fault.Proc != nil {
		panic(fmt.Sprintf("typhoon: np%d: block fault at va %#x posted while the fault at va %#x is pending",
			np.node, f.VA, np.fault.VA))
	}
	np.fault = f
	np.ctx.Unpark(f.Proc.Ctx.Time())
}

// DispatchMessage implements agent.Dispatcher: the software dispatch of
// one delivered message (paper §5.1). The dispatch hardware constructs a
// handler PC from the incoming message; the loop reads it and jumps.
// Every handler runs to completion. The agent core has already synced
// the NP's clock to the delivery time and frees the packet afterwards.
func (np *NP) DispatchMessage(c *sim.Context, pkt *network.Packet) {
	h := np.sys.handler(pkt.Handler)
	if h == nil {
		panic(fmt.Sprintf("typhoon: np%d received message for unregistered handler %d", np.node, pkt.Handler))
	}
	np.hot.dispatches++
	np.hot.msgHandlers++
	if tr := np.sys.M.Net.Tracer; tr != nil {
		tr.Emit(trace.Event{T: c.Time(), Node: np.node, Kind: trace.KMsgRecv, Aux: uint64(pkt.Handler)})
	}
	c.Advance(DispatchCycles + np.sys.dispatchOverhead)
	t0 := c.Time()
	c.BeginNoBlock() // handlers run to completion: a Park in one is a bug
	h(np, pkt)
	c.EndNoBlock()
	if np.sys.onCPU {
		np.stealFromCPU(c, t0)
	}
}

// stealFromCPU ends a handler that started at t0 on software Tempest,
// where handlers run on the compute processor: the handler's cycles and
// the dispatch overhead are stolen from it. Callers test onCPU, so the
// hardware NP's dispatch pays no call.
func (np *NP) stealFromCPU(c *sim.Context, t0 sim.Time) {
	// A pending quantum yield precedes publishing the stolen cycles;
	// a resume's yield waits for the step boundary, after them.
	c.Sync()
	np.sys.M.StealCycles(np.node, c.Time()-t0+SoftwareDispatchCycles)
}

// HasUrgent implements agent.Work: a logged block access fault outranks
// request messages (but not replies).
func (np *NP) HasUrgent() bool { return np.fault.Proc != nil }

// RunUrgent implements agent.Work: dispatch the logged fault.
func (np *NP) RunUrgent(c *sim.Context) {
	f := np.fault
	np.fault = Fault{}
	np.runFault(c, f)
}

// HasIdle implements agent.Work: the block-transfer thread runs only
// when no messages or faults are waiting (§5.2).
func (np *NP) HasIdle() bool { return len(np.bulk) > 0 }

// RunIdle implements agent.Work: move one bulk-transfer chunk.
func (np *NP) RunIdle(c *sim.Context) { np.runBulkChunk(c) }

func (np *NP) runFault(c *sim.Context, f Fault) {
	ops := np.sys.pageMode(f.Mode)
	if ops == nil || ops.BlockFault == nil {
		panic(fmt.Sprintf("typhoon: np%d has no block-fault handler for mode %d (va %#x)", np.node, f.Mode, f.VA))
	}
	np.hot.dispatches++
	np.hot.faultHandlers++
	c.SyncTo(f.PostedAt)
	c.Advance(DispatchCycles + np.sys.dispatchOverhead)
	t0 := c.Time()
	c.BeginNoBlock()
	ops.BlockFault(np, f)
	c.EndNoBlock()
	if np.sys.onCPU {
		np.stealFromCPU(c, t0)
	}
}

// Charge accounts n handler instructions at one cycle each (paper §6).
func (np *NP) Charge(n int) {
	np.hot.instructions += uint64(n)
	np.ctx.Advance(sim.Time(n))
}

// MemRef times one handler data-structure reference (directory state,
// per-page bookkeeping) through the NP data cache: one cycle on a hit,
// a local memory access on a miss. The cache fills every line
// Exclusive, so a write costs what a read does.
func (np *NP) MemRef(addr mem.PA) {
	if np.dcache.Hit(addr, false) {
		np.ctx.Advance(1)
		return
	}
	np.dcache.Fill(addr, cache.LineExclusive)
	np.ctx.Advance(machine.LocalMissCycles)
}

// Translate resolves va through the NP's TLB and the node's page table,
// charging the TLB refill on a miss. ok is false when the page is
// unmapped — a user programming error for NP handlers in the paper's
// model (§5.1); callers decide whether to panic or handle it.
func (np *NP) Translate(va mem.VA) (mem.PA, vm.PTE, bool) {
	np.ctx.Sync() // page tables are shared with the CPU's fault path
	rec := np.pt.Record(va.VPN())
	if !np.tlb.Lookup(va.VPN(), &rec.NPHint) {
		np.hot.tlbMisses++
		np.ctx.Advance(machine.TLBMissCycles)
		rec = np.pt.Record(va.VPN()) // the refill may yield, and records move on reservation
	}
	if !rec.Mapped() {
		return 0, vm.PTE{}, false
	}
	return rec.PA().FrameBase() + mem.PA(va.PageOffset()), rec.PTE(), true
}

func (np *NP) mustTranslate(va mem.VA) mem.PA {
	pa, _, ok := np.Translate(va)
	if !ok {
		panic(fmt.Sprintf("typhoon: np%d handler touched unmapped address %#x (NP page fault is a user error, §5.1)", np.node, va))
	}
	return pa
}

// --- Fine-grain access control (Table 1, NP side) ---

// ReadTag returns va's block tag (Table 1: read-tag).
func (np *NP) ReadTag(va mem.VA) mem.Tag {
	pa := np.mustTranslate(va)
	np.chargeTagOp(pa)
	return np.Mem().Tag(pa)
}

// SetTag sets va's block tag (Table 1: set-RW / set-RO and Busy marking).
func (np *NP) SetTag(va mem.VA, t mem.Tag) {
	pa := np.mustTranslate(va)
	np.chargeTagOp(pa)
	if tr := np.sys.M.Net.Tracer; tr != nil {
		tr.Emit(trace.Event{T: np.ctx.Time(), Node: np.node, Kind: trace.KTagChange, VA: va, Aux: uint64(t)})
	}
	np.Mem().SetTag(pa, t)
}

// Invalidate sets va's block tag to Invalid and purges any copy from the
// local CPU cache via the bus (Table 1: invalidate; §5.4).
func (np *NP) Invalidate(va mem.VA) {
	pa := np.mustTranslate(va)
	np.chargeTagOp(pa)
	if tr := np.sys.M.Net.Tracer; tr != nil {
		// Traced like SetTag: with both paths emitting, the trace's
		// per-block KTagChange stream is the complete tag history, which
		// is what the conformance suite's MSI transition checker assumes.
		tr.Emit(trace.Event{T: np.ctx.Time(), Node: np.node, Kind: trace.KTagChange, VA: va, Aux: uint64(mem.TagInvalid)})
	}
	np.Mem().SetTag(pa, mem.TagInvalid)
	np.sys.M.Caches[np.node].Invalidate(pa)
}

// DowngradeCPU demotes the local CPU's cached copy of va's block to
// Shared (used when a home grants a read-only copy elsewhere while the
// local CPU holds the block owned).
func (np *NP) DowngradeCPU(va mem.VA) {
	pa := np.mustTranslate(va)
	// The CPU polls its cache state directly; a pending lazy yield must
	// land before the downgrade becomes visible (mustTranslate charges
	// nothing on a TLB hit, so it alone does not materialise one).
	np.ctx.Sync()
	np.sys.M.Caches[np.node].Downgrade(pa)
}

func (np *NP) chargeTagOp(pa mem.PA) {
	if !np.rtlbLookup(pa) {
		np.ctx.Advance(machine.TLBMissCycles)
	}
	np.ctx.Advance(TagOpCycles)
}

// rtlbLookup looks pa's page up in the RTLB, counting a miss; the caller
// charges its latency to whichever context waits.
func (np *NP) rtlbLookup(pa mem.PA) bool {
	fn := pa.Offset() / mem.PageSize
	if fn >= uint64(len(np.rtlbHints)) {
		np.rtlbHints = slices.Grow(np.rtlbHints, int(fn)+1-len(np.rtlbHints))[:fn+1]
	}
	if np.rtlb.Lookup(uint64(pa.FrameBase()), &np.rtlbHints[fn]) {
		return true
	}
	np.hot.rtlbMisses++
	return false
}

// Resume restarts the suspended compute thread (Table 1: resume; §5.4
// unmasks the CPU's bus request line so it retries the transaction). The
// NP yields so the retried bus transaction wins arbitration over the
// NP's next handler — without this, a queued invalidation could steal
// the freshly installed block before the CPU consumes it, livelocking
// the faulting access. The yield is lazy: it materialises at the step
// boundary, after the rest of the handler, where it costs no frame
// suspension and the dispatch stays inline — earlier only when a
// quantum yield falls due in the handler and it rides along.
func (np *NP) Resume(p *machine.Proc) {
	np.ctx.Advance(ResumeCycles)
	if tr := np.sys.M.Net.Tracer; tr != nil {
		tr.Emit(trace.Event{T: np.ctx.Time(), Node: np.node, Kind: trace.KResume})
	}
	p.Ctx.Unpark(np.ctx.Time())
	np.ctx.LazyYield()
}

// --- Force accesses (Table 1: force-read / force-write) ---
// NP memory accesses bypass RTLB tag checking (§5.4).

// ForceReadU64 reads a word regardless of tags.
func (np *NP) ForceReadU64(va mem.VA) uint64 {
	pa := np.mustTranslate(va)
	np.ctx.Advance(1)
	return np.Mem().ReadU64(pa)
}

// ForceWriteU64 writes a word regardless of tags.
func (np *NP) ForceWriteU64(va mem.VA, v uint64) {
	pa := np.mustTranslate(va)
	np.ctx.Advance(1)
	np.Mem().WriteU64(pa, v)
}

// ForceReadBlockScratch copies va's whole block, regardless of tags,
// into the NP's block staging buffer through the block-transfer unit.
// The returned slice is valid only until the next scratch read on this
// NP — use it for read-and-send (Network.Send copies on send), not for
// data a handler holds across another block read.
func (np *NP) ForceReadBlockScratch(va mem.VA) []byte {
	pa := np.mustTranslate(va)
	np.ctx.Advance(BlockXferCycles)
	buf := np.scratch
	np.Mem().ReadBlock(pa, buf)
	return buf
}

// ForceWriteBlock writes a whole block regardless of tags, through the
// block-transfer unit (the data-arrival path of Stache, §3).
func (np *NP) ForceWriteBlock(va mem.VA, data []byte) {
	pa := np.mustTranslate(va)
	np.ctx.Advance(BlockXferCycles)
	np.Mem().WriteBlock(pa, data)
}

// --- Page state (the RTLB's uninterpreted per-page words, §5.4) ---

// FrameOf returns the frame backing va on this node, for access to the
// per-page protocol state (Home, User).
func (np *NP) FrameOf(va mem.VA) *mem.Frame {
	pa := np.mustTranslate(va)
	return np.Mem().Frame(pa)
}

// --- Messaging (§2.1, §5.1) ---

// Send queues an active message from this NP: setup plus one cycle per
// 32-bit word, with block payloads moved by the block-transfer unit.
// Messages exceeding the twenty-word packet limit are fragmented
// transparently (frag.go).
func (np *NP) Send(vnet network.VNet, dst int, handler uint32, args []uint64, data []byte) {
	np.hot.sends++
	if tr := np.sys.M.Net.Tracer; tr != nil {
		tr.Emit(trace.Event{T: np.ctx.Time(), Node: np.node, Kind: trace.KMsgSend, Aux: uint64(handler)})
	}
	np.sys.send(np.ctx, np.node, vnet, dst, handler, args, data)
}

// SendRequest sends on the low-priority request network.
func (np *NP) SendRequest(dst int, handler uint32, args []uint64, data []byte) {
	np.Send(network.VNetRequest, dst, handler, args, data)
}

// SendReply sends on the high-priority reply network.
func (np *NP) SendReply(dst int, handler uint32, args []uint64, data []byte) {
	np.Send(network.VNetReply, dst, handler, args, data)
}

func (np *NP) fold(c *stats.Counters) {
	h := &np.hot
	c.Add("np.dispatches", h.dispatches)
	c.Add("np.msg_handlers", h.msgHandlers)
	c.Add("np.fault_handlers", h.faultHandlers)
	c.Add("np.block_access_faults", h.bafs)
	c.Add("np.rtlb_misses", h.rtlbMisses)
	c.Add("np.tlb_misses", h.tlbMisses)
	c.Add("np.sends", h.sends)
	c.Add("np.instructions", h.instructions)
	c.Add("np.bulk_packets", h.bulkPackets)
	c.Add("typhoon.page_faults", h.pageFaults)
	w, wc := np.core.OccStats()
	c.Add("np.occ_waits", w)
	c.Add("np.occ_wait_cycles", wc)
}

// ForceReadPage copies va's whole page into a fresh buffer via repeated
// block transfers (for page-grain custom protocols).
func (np *NP) ForceReadPage(va mem.VA) []byte {
	pa := np.mustTranslate(va.PageBase())
	np.ctx.Advance(BlockXferCycles * sim.Time(mem.PageSize/32))
	buf := make([]byte, mem.PageSize)
	np.Mem().ReadRange(pa, buf)
	return buf
}

// ForceWritePage writes a whole page regardless of tags.
func (np *NP) ForceWritePage(va mem.VA, data []byte) {
	if len(data) != mem.PageSize {
		panic(fmt.Sprintf("typhoon: ForceWritePage with %d bytes", len(data)))
	}
	pa := np.mustTranslate(va.PageBase())
	np.ctx.Advance(BlockXferCycles * sim.Time(mem.PageSize/32))
	np.Mem().WriteRange(pa, data)
}

// SetPageTags sets every block tag in va's page (one RTLB entry update).
func (np *NP) SetPageTags(va mem.VA, t mem.Tag) {
	pa := np.mustTranslate(va.PageBase())
	np.chargeTagOp(pa)
	np.Mem().SetPageTags(pa, t)
}
