// Package typhoon models the Typhoon node (paper §5): a commodity CPU
// whose bus transactions are monitored by a custom network-interface
// processor (NP). The NP enforces fine-grain access tags through a
// reverse TLB, turns violating bus transactions into block access faults
// (suspending the CPU), and runs user-level message and fault handlers to
// completion under a hardware-assisted dispatch loop with reply-network
// priority. The package implements the Tempest mechanisms — low-overhead
// active messages, bulk data transfer, user-level virtual-memory
// management, and fine-grain access control — as the API user-level
// protocol libraries (internal/stache, custom application protocols)
// program against.
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

// NP cost model, in cycles. Handlers additionally charge their own
// instruction counts (1 cycle/instruction, paper §6) via NP.Charge and
// their memory references via NP.MemRef.
const (
	// DispatchCycles is the hardware-assisted dispatch: read the
	// dispatch register and jump (paper §5.1).
	DispatchCycles sim.Time = 3
	// BAFSuspendCycles is charged to the CPU when a bus transaction is
	// nacked with "relinquish and retry" and the fault is logged in the
	// BAF buffer (§5.4).
	BAFSuspendCycles sim.Time = 5
	// SendSetupCycles starts a message: store the destination-node
	// register and the end-of-message marker (§5.1).
	SendSetupCycles sim.Time = 2
	// SendPerWordCycles moves one 32-bit word to the send queue with a
	// single-cycle store (§5.1).
	SendPerWordCycles sim.Time = 1
	// BlockXferCycles moves an aligned 32-byte block between a message
	// queue and memory through the block transfer buffer (§5.1).
	BlockXferCycles sim.Time = 4
	// TagOpCycles is a memory-mapped RTLB tag read or write (§5.4).
	TagOpCycles sim.Time = 2
	// ResumeCycles unmasks the CPU's bus request line (§5.4).
	ResumeCycles sim.Time = 2
	// UpgradeGrantCycles is a bus invalidate transaction on a block whose
	// tag already permits the write: the NP lets it pass.
	UpgradeGrantCycles sim.Time = 5

	// NPCacheSize and NPCacheWays describe the NP data cache (Table 2:
	// 16 KB, 2-way). Handler data structures (directories, per-page
	// state) are timed through it.
	NPCacheSize = 16 << 10
	NPCacheWays = 2
)

// SendCost is the cost of queuing one active message, from the NP or
// the CPU: setup, one cycle per 32-bit word (the handler word and two
// per 64-bit argument), and a block transfer per 32 bytes of data.
func SendCost(args, dataBytes int) sim.Time {
	return SendSetupCycles + SendPerWordCycles*sim.Time(1+2*args) +
		BlockXferCycles*sim.Time((dataBytes+31)/32)
}

// Builtin handler IDs; user protocols register IDs at or above
// HandlerUserBase.
const (
	hBulkData uint32 = iota + 1
	hBulkDone
	hFragStart
	hFragData
	// HandlerUserBase is the first message-handler ID available to
	// protocol libraries.
	HandlerUserBase uint32 = 16
	// maxHandlerID and maxPageMode bound the IDs a protocol registers:
	// the dispatch tables are slices indexed by ID, grown to the largest
	// one registered.
	maxHandlerID = 255
	maxPageMode  = 255
)

// Handler is a user-level message handler running on the NP. Handlers run
// to completion: the dispatch loop never preempts them (paper §5.1).
type Handler func(np *NP, pkt *network.Packet)

// Fault describes one block access fault captured in the BAF buffer
// (§5.4): the faulting virtual and physical address, the access type, and
// the page mode that selects the user-level handler.
type Fault struct {
	Proc  *machine.Proc
	VA    mem.VA
	PA    mem.PA
	Write bool
	Mode  int
	// Tag is the block's tag at fault time (the RTLB entry's two state
	// bits, available to the handler without a separate tag read).
	Tag mem.Tag
	// PostedAt is the simulated time the fault entered the BAF buffer;
	// the dispatch loop never handles it earlier.
	PostedAt sim.Time
}

// PageModeOps is the set of user-level handlers serving one page mode.
// The RTLB's page-mode field plus the access type select among them.
type PageModeOps struct {
	// PageFault runs at user level on the faulting CPU (§2.3): the page
	// is unmapped (or write-protected) on this node. It must install a
	// translation before returning.
	PageFault func(sys *System, p *machine.Proc, va mem.VA, write bool)
	// BlockFault runs on the NP (§5.4) after a tag violation. It must
	// eventually re-tag the block and Resume the faulting processor.
	BlockFault func(np *NP, f Fault)
}

// Protocol is a user-level memory-system policy built on Tempest: Stache,
// or an application-specific protocol.
type Protocol interface {
	// Name identifies the protocol ("Stache", "EM3D-Update").
	Name() string
	// Attach registers the protocol's message handlers and page modes.
	Attach(sys *System)
	// SetupSegment prepares a shared segment: home pages, directories.
	SetupSegment(seg *vm.Segment)
}

// SoftwareConfig sets the costs of a software Tempest implementation
// (NewSoftware; the "native version for existing machines" the paper's
// §2 announces, realised later as Blizzard): no custom hardware, so
// access checks run inline before every shared reference and protocol
// handlers execute on the node's main processor, stealing its cycles.
// internal/blizzard names it Config and owns its defaults.
type SoftwareConfig struct {
	// CheckOverhead is charged on every shared reference, hit or miss —
	// the inline tag test a binary rewriter inserts.
	CheckOverhead sim.Time
	// DispatchOverhead is the extra cost per handler dispatch (interrupt
	// or poll entry/exit on the main processor, versus Typhoon's
	// hardware-assisted dispatch).
	DispatchOverhead sim.Time
}

// System is the Typhoon memory system: one NP per node plus the handler
// and page-mode registries shared by all nodes (every node runs the same
// program image).
type System struct {
	M     *machine.Machine
	proto Protocol
	// software holds software Tempest's costs and onCPU marks it:
	// handlers run on the compute processor and steal its cycles. Both
	// are zero on hardware Typhoon.
	software SoftwareConfig
	onCPU    bool

	nps []*NP
	// handlers and modes are the dispatch tables, indexed by handler ID
	// and page mode; a nil entry is unregistered.
	handlers []Handler
	modes    []*PageModeOps

	// fragSeqs[src] numbers fragment streams per source node (reassembly
	// is keyed by {src, stream}, so per-source numbering is exact), which
	// keeps the numbering node-local.
	fragSeqs []uint64
}

var _ machine.MemSystem = (*System)(nil)

// New attaches a Typhoon memory system running the given protocol to m:
// the hardware NP, handlers dispatched off the compute processor.
func New(m *machine.Machine, proto Protocol) *System {
	return newSystem(m, proto, SoftwareConfig{}, false)
}

// NewSoftware attaches a software Tempest implementation running the
// given (unmodified) protocol to m, at cfg's costs.
func NewSoftware(m *machine.Machine, proto Protocol, cfg SoftwareConfig) *System {
	return newSystem(m, proto, cfg, true)
}

func newSystem(m *machine.Machine, proto Protocol, software SoftwareConfig, onCPU bool) *System {
	s := &System{
		M:        m,
		proto:    proto,
		software: software,
		onCPU:    onCPU,
		fragSeqs: make([]uint64, m.Cfg.Nodes),
	}
	m.PerRefOverhead = software.CheckOverhead
	for i := 0; i < m.Cfg.Nodes; i++ {
		np := &NP{
			sys:      s,
			node:     i,
			ep:       m.Net.Endpoint(i),
			tlb:      cache.NewTLB(m.Cfg.TLBEntries),
			rtlb:     cache.NewTLB(m.Cfg.TLBEntries),
			pt:       m.VM.Table(i),
			dcache:   cache.New(NPCacheSize, NPCacheWays, m.Cfg.BlockSize, m.Cfg.Seed+0xD00D+uint64(i)),
			bulkDone: make(map[int][]*bulkTransfer),
			frags:    make(map[fragKey]*fragBuf),
			scratch:  make([]byte, m.Cfg.BlockSize),
		}
		s.nps = append(s.nps, np)
	}
	s.handlers = make([]Handler, HandlerUserBase)
	s.handlers[hBulkData] = (*NP).bulkDataHandler
	s.handlers[hBulkDone] = (*NP).bulkDoneHandler
	s.handlers[hFragStart] = (*NP).fragStartHandler
	s.handlers[hFragData] = (*NP).fragDataHandler
	m.SetMemSystem(s)
	proto.Attach(s)
	// Spawn dispatch loops only after attach so handler registration is
	// complete before any message can arrive. Each NP rides a protocol
	// agent (internal/agent): a stepper whose dispatch iterations the
	// scheduler runs inline (no goroutine handoff), parked under "np
	// idle" when nothing is pending, with faults as the NP's urgent work
	// and bulk transfers as its idle work.
	for _, np := range s.nps {
		np.core = agent.Spawn(m.Eng, m.Net, np.node, fmt.Sprintf("np%d", np.node), "np idle", m.Cfg.OccupancyCycles, np, np)
		np.ctx = np.core.Ctx
	}
	return s
}

// Name implements machine.MemSystem.
func (s *System) Name() string { return "Typhoon/" + s.proto.Name() }

// Counters implements machine.MemSystem: the NPs' totals and, when the
// protocol has a Fold method (Stache and every protocol that embeds it),
// the protocol's, added into a fresh set.
func (s *System) Counters() *stats.Counters {
	c := stats.NewCounters()
	for _, np := range s.nps {
		np.fold(c)
	}
	if p, ok := s.proto.(interface{ Fold(*stats.Counters) }); ok {
		p.Fold(c)
	}
	return c
}

// Protocol returns the attached protocol.
func (s *System) Protocol() Protocol { return s.proto }

// NP returns node's network-interface processor.
func (s *System) NP(node int) *NP { return s.nps[node] }

// RegisterHandler installs a user-level message handler. IDs below
// HandlerUserBase are reserved for the bulk-transfer machinery.
func (s *System) RegisterHandler(id uint32, h Handler) {
	if id < HandlerUserBase {
		panic(fmt.Sprintf("typhoon: handler id %d is reserved", id))
	}
	if id > maxHandlerID {
		panic(fmt.Sprintf("typhoon: handler id %d exceeds %d", id, maxHandlerID))
	}
	if s.HasHandler(id) {
		panic(fmt.Sprintf("typhoon: handler id %d registered twice", id))
	}
	if int(id) >= len(s.handlers) {
		s.handlers = slices.Grow(s.handlers, int(id)+1-len(s.handlers))[:id+1]
	}
	s.handlers[id] = h
}

// handler returns the handler registered under id, or nil.
func (s *System) handler(id uint32) Handler {
	if int(id) < len(s.handlers) {
		return s.handlers[id]
	}
	return nil
}

// WrapHandler replaces an already-registered message handler with
// wrap(existing). It exists for instrumentation and fault injection —
// the conformance suite's negative tests wrap a Stache handler to
// corrupt payloads and charge extra cycles, proving the re-record and
// differential checks catch a buggy protocol. Like RegisterHandler it
// must be called before Engine.Run: the handler table is read by every
// node once messages flow. Wrapping an unregistered ID panics.
func (s *System) WrapHandler(id uint32, wrap func(Handler) Handler) {
	h := s.handler(id)
	if h == nil {
		panic(fmt.Sprintf("typhoon: WrapHandler on unregistered handler id %d", id))
	}
	s.handlers[id] = wrap(h)
}

// HasHandler reports whether a message handler is registered under id —
// the guard a WrapHandler caller needs when instrumenting a handler that
// only some protocols install.
func (s *System) HasHandler(id uint32) bool { return s.handler(id) != nil }

// RegisterPageMode installs the fault handlers for a page mode.
func (s *System) RegisterPageMode(mode int, ops PageModeOps) {
	if mode == vm.ModePrivate {
		panic("typhoon: cannot override the private page mode")
	}
	if mode < 0 || mode > maxPageMode {
		panic(fmt.Sprintf("typhoon: page mode %d outside [0, %d]", mode, maxPageMode))
	}
	if s.pageMode(mode) != nil {
		panic(fmt.Sprintf("typhoon: page mode %d registered twice", mode))
	}
	if mode >= len(s.modes) {
		s.modes = slices.Grow(s.modes, mode+1-len(s.modes))[:mode+1]
	}
	s.modes[mode] = &ops
}

// pageMode returns the operations registered for mode, or nil.
func (s *System) pageMode(mode int) *PageModeOps {
	if uint(mode) < uint(len(s.modes)) {
		return s.modes[mode]
	}
	return nil
}

// SetupSegment implements machine.MemSystem by delegating to the
// protocol.
func (s *System) SetupSegment(seg *vm.Segment) { s.proto.SetupSegment(seg) }

// PageFault implements machine.MemSystem: it invokes the page mode's
// user-level page-fault handler on the faulting CPU (§2.3).
func (s *System) PageFault(p *machine.Proc, va mem.VA, write bool) {
	if !vm.IsShared(va) {
		panic(fmt.Sprintf("typhoon: page fault on non-shared address %#x on node %d", va, p.ID()))
	}
	seg := s.M.VM.SegmentOf(va)
	if seg == nil {
		panic(fmt.Sprintf("typhoon: %#x not in any shared segment", va))
	}
	mode := seg.Mode
	ops := s.pageMode(mode)
	if ops == nil || ops.PageFault == nil {
		panic(fmt.Sprintf("typhoon: no page-fault handler for mode %d (va %#x)", mode, va))
	}
	s.nps[p.ID()].hot.pageFaults++
	if tr := s.M.Net.Tracer; tr != nil {
		aux := uint64(0)
		if write {
			aux = 1
		}
		tr.Emit(trace.Event{T: p.Ctx.Time(), Node: p.ID(), Kind: trace.KPageFault, VA: va, Aux: aux})
	}
	ops.PageFault(s, p, va, write)
}

// ServiceMiss implements machine.MemSystem: the NP snoops the bus
// transaction, checks the block's tag through the RTLB, and either lets
// memory respond (charging the local miss) or suspends the CPU with a
// block access fault (§5.4).
func (s *System) ServiceMiss(p *machine.Proc, va mem.VA, pa mem.PA, pte vm.PTE, write, upgrade bool) cache.LineState {
	cfg := &s.M.Cfg
	if pte.Mode == vm.ModePrivate {
		p.Ctx.Advance(cfg.LocalMissCycles)
		return cache.LineExclusive
	}
	if pa.Node() != p.ID() {
		panic(fmt.Sprintf("typhoon: node %d mapped remote frame %#x; Typhoon mappings are node-local", p.ID(), pa))
	}
	np := s.nps[p.ID()]
	// RTLB lookup: a miss nacks the transaction with relinquish-and-retry
	// while the entry is fetched (§5.4); the requester eats the latency.
	if !np.rtlbLookup(pa) {
		p.Ctx.Advance(cfg.TLBMissCycles)
	}
	tag := s.M.Mems[p.ID()].Tag(pa)
	permitted := tag.PermitsRead() && !write || tag.PermitsWrite()
	if permitted {
		// The bus transaction is atomic: no other context may run
		// between the tag check and the cache fill, or a racing
		// invalidation could be lost against the about-to-fill line.
		if upgrade {
			// Write to a Shared line whose tag is ReadWrite: the NP
			// lets the bus invalidate transaction complete.
			p.Ctx.AdvanceAtomic(UpgradeGrantCycles)
			return cache.LineExclusive
		}
		p.Ctx.AdvanceAtomic(cfg.LocalMissCycles)
		if tag == mem.TagReadWrite {
			// Memory responds; the CPU acquires an owned copy.
			return cache.LineExclusive
		}
		// ReadOnly: the NP asserts the shared line so the CPU cannot
		// own its copy (§5.4).
		return cache.LineShared
	}
	// Block access fault: nack, mask the CPU's bus request, log the
	// fault, and let the NP dispatch the user-level handler.
	np.hot.bafs++
	if tr := s.M.Net.Tracer; tr != nil {
		aux := uint64(0)
		if write {
			aux = 1
		}
		tr.Emit(trace.Event{T: p.Ctx.Time(), Node: p.ID(), Kind: trace.KBlockFault, VA: va, Aux: aux})
	}
	// A yielding charge, unlike DirNNB's issue charge: postFault posts
	// the fault and unparks the NP at the post-charge time, and that NP may
	// already be runnable at an earlier one. The yield lets it, and every
	// other earlier context, catch up first, so the NP never sees the
	// fault before the cycle it was posted.
	p.Ctx.Advance(BAFSuspendCycles)
	np.postFault(Fault{Proc: p, VA: va, PA: pa, Write: write, Mode: pte.Mode, Tag: tag, PostedAt: p.Ctx.Time()})
	p.Ctx.Park("block access fault %#x home %d", int(va)&^(cfg.BlockSize-1), s.M.VM.Home(va))
	return cache.LineInvalid // retry the reference after resume
}

// Evicted implements machine.MemSystem. Typhoon's CPU cache writes back
// through a perfect write buffer (Table 2: writeback 0) and the NP does
// not track CPU cache residency, so evictions are free.
func (s *System) Evicted(p *machine.Proc, victim mem.PA, state cache.LineState) {}
