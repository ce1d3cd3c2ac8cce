package stache

import (
	"fmt"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/stats"
	"github.com/tempest-sim/tempest/internal/typhoon"
	"github.com/tempest-sim/tempest/internal/vm"
)

// Page modes registered by Stache. Custom protocols (e.g. the EM3D
// delayed-update protocol) register further modes starting at
// ModeNextFree.
const (
	// ModeHome marks a page whose frame lives at its home node with the
	// per-block directory vector attached (§3).
	ModeHome = vm.ModeUser
	// ModeRemote marks a stache page: a local copy of a remote page,
	// coherent at block granularity (§3).
	ModeRemote = vm.ModeUser + 1
	// ModeNextFree is the first page mode available to protocols layered
	// above Stache.
	ModeNextFree = vm.ModeUser + 2
)

// Message handler IDs.
const (
	HGetS uint32 = typhoon.HandlerUserBase + iota
	HGetX
	HUpgrade
	HDataRO
	HDataRW
	HUpgAck
	HInval
	HInvalAck
	HWbDirty
	HWbClean
	HNack
	// HNextFree is the first message-handler ID available to protocols
	// layered above Stache.
	HNextFree
)

// Invalidation kinds carried by HInval.
const (
	invalKill      = 0 // drop the copy
	invalDowngrade = 1 // demote ReadWrite to ReadOnly, returning data
)

// nodeState is one node's requester-side protocol state: the single
// outstanding block fault (the compute thread is suspended while it is
// pending) and the FIFO of stache pages for replacement.
type nodeState struct {
	pendingValid   bool
	pendingVA      mem.VA // block-aligned
	pendingWrite   bool
	pendingUpgrade bool

	homePendingValid bool
	homePending      typhoon.Fault

	// prefetching marks blocks with an outstanding non-binding prefetch
	// (tag Busy, no suspended thread).
	prefetching map[mem.VA]bool
	// orphans counts in-flight replies whose requesting page was
	// replaced before they arrived. Per-pair in-order delivery means the
	// next reply (or NACK) for that block belongs to the orphaned
	// request and must be consumed and dropped.
	orphans map[mem.VA]int
	// wbOutstanding marks blocks whose writeback (dirty data or clean
	// drop) is in flight to the home. An invalidation arriving for such
	// a block is answered with a defer code: the writeback itself stands
	// in for the acknowledgement. A later grant from the home clears the
	// mark (in-order delivery guarantees the home consumed the
	// writeback first).
	wbOutstanding map[mem.VA]bool

	fifo []mem.VA // stache page base VAs, oldest first

	// hot holds the node's protocol counters. Counting per node (each
	// bump happens on the node's own CPU or NP context) keeps the hot
	// path node-local; fold sums the nodes.
	hot hotStats
}

// hotStats are the protocol's hot-path counters.
type hotStats struct {
	remoteFaults    uint64
	homeFaults      uint64
	getS            uint64
	getX            uint64
	upgrades        uint64
	nacks           uint64
	invalsSent      uint64
	acks            uint64
	pageFaults      uint64
	replacements    uint64
	wbDirtyBlocks   uint64
	wbCleanBlocks   uint64
	dataReplies     uint64
	prefetches      uint64
	prefetchFills   uint64
	checkins        uint64
	migratoryGrants uint64
}

// Protocol is the Stache library: a typhoon.Protocol whose handlers
// implement transparent shared memory in user-level software.
type Protocol struct {
	sys *typhoon.System
	m   *machine.Machine
	bs  int

	maxPages  int // per-node stache page budget; 0 = unbounded
	migratory bool

	per []*nodeState
}

var _ typhoon.Protocol = (*Protocol)(nil)

// Option configures the Stache library.
type Option func(*Protocol)

// WithMaxPages bounds how many stache pages each node dedicates to
// caching remote data — Stache uses "only as much of the local memory as
// an application chooses to use" (§7). Exceeding the budget triggers
// FIFO page replacement.
func WithMaxPages(n int) Option {
	return func(p *Protocol) { p.maxPages = n }
}

// WithMigratory enables migratory-sharing detection: a block whose
// access pattern is read-then-write by one processor at a time is
// granted exclusively on reads, collapsing the fetch+upgrade double
// round trip into one. This is a protocol-policy extension beyond the
// paper's default Stache — exactly the kind of user-level specialisation
// Tempest exists to allow — and it is off by default to keep the
// baseline faithful.
func WithMigratory() Option {
	return func(p *Protocol) { p.migratory = true }
}

// New returns an unattached Stache protocol. Pass it to typhoon.New.
func New(opts ...Option) *Protocol {
	p := &Protocol{}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements typhoon.Protocol.
func (st *Protocol) Name() string { return "Stache" }

// Attach implements typhoon.Protocol: it registers Stache's page modes
// and message handlers.
func (st *Protocol) Attach(sys *typhoon.System) {
	st.sys = sys
	st.m = sys.M
	st.bs = sys.M.Cfg.BlockSize
	st.per = make([]*nodeState, sys.M.Cfg.Nodes)
	for i := range st.per {
		st.per[i] = &nodeState{
			prefetching:   make(map[mem.VA]bool),
			orphans:       make(map[mem.VA]int),
			wbOutstanding: make(map[mem.VA]bool),
		}
	}

	// An unmapped-page fault resolves through the segment, whose mode is
	// the home mode; the handler creates a stache page on the faulting
	// (necessarily non-home) node. Mapped stache pages fault at block
	// granularity under the remote mode.
	sys.RegisterPageMode(ModeHome, typhoon.PageModeOps{
		PageFault:  st.pageFault,
		BlockFault: st.homeBlockFault,
	})
	sys.RegisterPageMode(ModeRemote, typhoon.PageModeOps{
		PageFault: func(_ *typhoon.System, p *machine.Proc, va mem.VA, write bool) {
			panic(fmt.Sprintf("stache: page fault on mapped stache page %#x at node %d", va, p.ID()))
		},
		BlockFault: st.remoteBlockFault,
	})

	sys.RegisterHandler(HGetS, st.handleGetS)
	sys.RegisterHandler(HGetX, st.handleGetX)
	sys.RegisterHandler(HUpgrade, st.handleUpgrade)
	sys.RegisterHandler(HDataRO, st.handleDataRO)
	sys.RegisterHandler(HDataRW, st.handleDataRW)
	sys.RegisterHandler(HUpgAck, st.handleUpgAck)
	sys.RegisterHandler(HInval, st.handleInval)
	sys.RegisterHandler(HInvalAck, st.handleInvalAck)
	sys.RegisterHandler(HWbDirty, st.handleWbDirty)
	sys.RegisterHandler(HWbClean, st.handleWbClean)
	sys.RegisterHandler(HNack, st.handleNack)
	sys.RegisterHandler(hPrefetch, st.handlePrefetch)
	sys.RegisterHandler(hCheckIn, st.handleCheckIn)
}

// System returns the Typhoon system Stache is attached to.
func (st *Protocol) System() *typhoon.System { return st.sys }

// SetupSegment implements typhoon.Protocol: for each page, the home node
// allocates the frame, maps the page at the shared virtual address with
// every block ReadWrite, and records the home binding in the distributed
// mapping table (§3). The per-block directory waits for the first
// handler that consults it (dirAt). Pages of custom segments (mode >=
// ModeNextFree) get the same home-page structure under their own mode
// so layered protocols can override the fault handlers.
func (st *Protocol) SetupSegment(seg *vm.Segment) {
	homeMode := ModeHome
	if seg.Mode >= ModeNextFree {
		homeMode = seg.Mode
	}
	for i := 0; i < seg.Pages(); i++ {
		va := seg.Base + mem.VA(i*mem.PageSize)
		home := st.m.VM.Home(va)
		pa := st.m.Mems[home].AllocFrame(mem.TagReadWrite)
		frame := st.m.Mems[home].Frame(pa)
		frame.Mode = homeMode
		frame.Home = home
		st.m.VM.Table(home).Map(va.VPN(), vm.PTE{PA: pa, Writable: true, Mode: homeMode})
	}
}

// remoteModeFor returns the page mode stache pages of this segment use.
func (st *Protocol) remoteModeFor(segMode int) int {
	if segMode >= ModeNextFree {
		return segMode + 1
	}
	return ModeRemote
}

// BlockBase returns va rounded down to its coherence block.
func (st *Protocol) BlockBase(va mem.VA) mem.VA { return va &^ mem.VA(st.bs-1) }

// pageFault is the user-level page-fault handler (§3): allocate a stache
// page, map it at the shared address with all blocks Invalid, cache the
// home node ID, and restart the access (which then takes a block access
// fault).
func (st *Protocol) pageFault(sys *typhoon.System, p *machine.Proc, va mem.VA, write bool) {
	node := p.ID()
	st.per[node].hot.pageFaults++
	p.Compute(costPageFault)
	home := st.m.VM.Home(va)
	if home == node {
		panic(fmt.Sprintf("stache: node %d page-faulted on its own home page %#x", node, va))
	}
	seg := st.m.VM.SegmentOf(va)
	if seg == nil {
		panic(fmt.Sprintf("stache: %#x not in any shared segment", va))
	}
	if st.maxPages > 0 && len(st.per[node].fifo) >= st.maxPages {
		st.replacePage(p)
	}
	pa := st.m.Mems[node].AllocFrame(mem.TagInvalid)
	mode := st.remoteModeFor(seg.Mode)
	frame := st.m.Mems[node].Frame(pa)
	frame.Mode = mode
	frame.Home = home
	st.m.VM.Table(node).Map(va.VPN(), vm.PTE{PA: pa, Writable: true, Mode: mode})
	st.per[node].fifo = append(st.per[node].fifo, va.PageBase())
}

// replacePage implements the FIFO stache-page replacement of §3: the
// oldest stache page is flushed — modified blocks are written back to
// the home, clean residency is dropped with one batched notice — and the
// page is unmapped and freed.
func (st *Protocol) replacePage(p *machine.Proc) {
	node := p.ID()
	ns := st.per[node]
	victim := ns.fifo[0]
	copy(ns.fifo, ns.fifo[1:])
	ns.fifo = ns.fifo[:len(ns.fifo)-1]
	ns.hot.replacements++

	pte, ok := st.m.VM.Table(node).Lookup(victim.VPN())
	if !ok {
		panic(fmt.Sprintf("stache: victim page %#x not mapped on node %d", victim, node))
	}
	m := st.m.Mems[node]
	frame := m.Frame(pte.PA)
	home := frame.Home
	p.Compute(costReplacePageBase)

	masks := make([]uint64, (m.BlocksPerPage()+63)/64)
	clean := false
	buf := make([]byte, st.bs)
	for bi := 0; bi < m.BlocksPerPage(); bi++ {
		blockPA := pte.PA + mem.PA(bi*st.bs)
		blockVA := victim + mem.VA(bi*st.bs)
		switch frame.Tags[bi] {
		case mem.TagReadWrite:
			// Potentially modified: send the data home.
			p.Compute(costReplaceDirtyPerBlk)
			m.ReadBlock(blockPA, buf)
			ns.hot.wbDirtyBlocks++
			ns.wbOutstanding[blockVA] = true
			// Send copies on send, so buf is reusable for the next block.
			st.sys.Send(p, netRequest, home, HWbDirty, []uint64{uint64(blockVA)}, buf)
		case mem.TagReadOnly:
			p.Compute(costReplacePerBlock)
			masks[bi/64] |= 1 << (bi % 64)
			clean = true
			ns.hot.wbCleanBlocks++
			ns.wbOutstanding[blockVA] = true
		case mem.TagBusy:
			if !st.per[node].prefetching[blockVA] {
				panic(fmt.Sprintf("stache: victim page %#x has a Busy block during replacement", victim))
			}
			// A prefetch is in flight for this block: orphan it. The
			// next reply (or NACK) for this block is the orphan's, by
			// in-order delivery; it will be consumed, dropped, and the
			// residency handed back to the home.
			delete(st.per[node].prefetching, blockVA)
			st.per[node].orphans[blockVA]++
		}
	}
	if clean {
		args := append([]uint64{uint64(victim)}, masks...)
		st.sys.Send(p, netRequest, home, HWbClean, args, nil)
	}
	// Drop the page: purge CPU cache lines and the mapping.
	st.m.Caches[node].InvalidatePage(pte.PA)
	pt := st.m.VM.Table(node)
	st.m.TLBs[node].InvalidateEntry(victim.VPN(), pt.Record(victim.VPN()).CPUHint)
	pt.Unmap(victim.VPN())
	m.FreeFrame(pte.PA)
}

// Fold adds the protocol's counter totals over all nodes into c. The
// Typhoon system calls it from Counters, so a protocol that embeds
// Stache reports Stache's counters too.
func (st *Protocol) Fold(c *stats.Counters) {
	for _, ns := range st.per {
		h := &ns.hot
		c.Add("stache.remote_faults", h.remoteFaults)
		c.Add("stache.home_faults", h.homeFaults)
		c.Add("stache.gets", h.getS)
		c.Add("stache.getx", h.getX)
		c.Add("stache.upgrades", h.upgrades)
		c.Add("stache.nacks", h.nacks)
		c.Add("stache.invals_sent", h.invalsSent)
		c.Add("stache.acks", h.acks)
		c.Add("stache.page_faults", h.pageFaults)
		c.Add("stache.replacements", h.replacements)
		c.Add("stache.wb_dirty_blocks", h.wbDirtyBlocks)
		c.Add("stache.wb_clean_blocks", h.wbCleanBlocks)
		c.Add("stache.data_replies", h.dataReplies)
		c.Add("stache.prefetches", h.prefetches)
		c.Add("stache.prefetch_fills", h.prefetchFills)
		c.Add("stache.checkins", h.checkins)
		c.Add("stache.migratory_grants", h.migratoryGrants)
	}
}
