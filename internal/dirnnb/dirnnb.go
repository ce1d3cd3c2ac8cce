// Package dirnnb implements the paper's baseline: a conventional,
// all-hardware DirNNB (full-map, no-broadcast) directory cache-coherence
// protocol with latencies composed from the "DirNNB Only" rows of
// Table 2, loosely modeled on the DASH prototype. Every shared page is
// globally mapped (a cache-coherent NUMA machine); misses to remote homes
// pay the remote-access formula, and writes invalidate remote sharers
// through the home directory. As in the paper, network and bus contention
// are not modeled.
//
// The directory is a protocol agent (internal/agent) per node: each home
// node's agent owns the directory entries for the blocks homed there and
// every coherence action — lookup, invalidation, recall, fill, eviction
// notice, first-touch page claim — is a message delivered to the owning
// node through internal/network. The agents charge no occupancy
// of their own (a hardware state machine, not a software NP); the
// Table 2 terms are composed onto the messages as send-side delays, so
// the end-to-end cost a requesting processor observes is exactly the
// closed-form latency of the old atomically-evaluated model. What moves
// relative to that model is only *when* third parties observe a
// transaction's side effects: directory state still changes atomically
// at the home, but at the home's clock (one network latency after the
// request issued) rather than instantaneously at the requester's, and
// remote cache invalidations land one further hop later. Both shifts are
// deterministic.
package dirnnb

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/tempest-sim/tempest/internal/agent"
	"github.com/tempest-sim/tempest/internal/cache"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stats"
	"github.com/tempest-sim/tempest/internal/vm"
)

// Latency components from Table 2 ("DirNNB Only").
const (
	// RemoteIssue is the cost to launch a remote miss (23 cycles).
	RemoteIssue sim.Time = 23
	// RemoteFill is the cost to fill the cache when the response arrives
	// (34 cycles).
	RemoteFill sim.Time = 34
	// ReplShared / ReplExclusive is the extra replacement cost when a
	// miss displaces a shared (5) or exclusive (16) remote block.
	ReplShared    sim.Time = 5
	ReplExclusive sim.Time = 16
	// DirBase is the base directory operation cost (16 cycles).
	DirBase sim.Time = 16
	// DirBlockRecv is added when the directory receives a block (11).
	DirBlockRecv sim.Time = 11
	// DirPerMsg is added per message the directory sends (5).
	DirPerMsg sim.Time = 5
	// DirBlockSend is added when the directory sends a block (11).
	DirBlockSend sim.Time = 11
	// InvalProc is a remote cache's cost to process an invalidation (8).
	InvalProc sim.Time = 8
)

// Directory message handler IDs. The directory hardware's messages live
// in their own namespace (there is no NP handler registry to share).
const (
	// hReq asks block's home to service a miss: args block, flags.
	hReq uint32 = iota + 1
	// hReply completes a miss at the requester: args block, fill state.
	hReply
	// hInval invalidates the target's copy: args block, txn id.
	hInval
	// hRecall recalls/downgrades the owning cache: args block, txn id,
	// write flag.
	hRecall
	// hAck acknowledges an invalidation or recall: args txn id.
	hAck
	// hEvict notifies a home that the sender dropped its copy: args block.
	hEvict
	// hClaim asks a page's arbiter to resolve a first touch: args vpn.
	hClaim
	// hGrantHome tells the claimant it is the page's home: args vpn.
	hGrantHome
	// hGrant tells a later claimant the page's frame: args vpn, pa.
	hGrant
	// hMapped reports the home's allocated frame to the arbiter: args
	// vpn, pa.
	hMapped
)

// reqWrite / reqUpgrade are the hReq flag bits.
const (
	reqWrite   = 1 << 0
	reqUpgrade = 1 << 1
)

// entry is one block's directory state at its home.
type entry struct {
	owner   int // node holding an exclusive copy, or -1
	sharers nodeSet
}

// txn is one in-flight coherence action at a home: the directory has
// been updated and invalidations/recalls are out; when the last ack
// arrives the reply (or the parked local processor) is released.
type txn struct {
	block    mem.PA
	req      int
	write    bool
	acksLeft int
	fill     cache.LineState
	// replyExtra is the send-side delay of the eventual reply (issue +
	// directory occupancy); unused for a local requester, which charges
	// its own terms after waking.
	replyExtra sim.Time
}

// claim is one first-touch page's arbitration state.
type claim struct {
	vpn     uint64
	home    int
	pa      mem.PA
	mapped  bool
	waiters []int
}

// hotStats is a node's counter block (plain node-local fields,
// delta-folded into the system counters at report time).
type hotStats struct {
	privateMisses    uint64
	localMisses      uint64
	localDirMisses   uint64
	remoteUpgrades   uint64
	remoteMisses     uint64
	dirtyRecalls     uint64
	invalidations    uint64
	dirMessages      uint64
	replShared       uint64
	replExclusive    uint64
	firstTouchClaims uint64
}

// nodeState is one node's slice of the protocol: its directory (for
// blocks homed here), in-flight transactions, first-touch arbitration
// state (for pages it arbitrates), and the reply slot its own parked
// processor waits on. Everything is node-local: touched only by its
// agent or its CPU.
type nodeState struct {
	sys  *System
	node int
	core *agent.Core

	// dir[f] holds the entries of the blocks in this node's frame f, in
	// block order. A frame's array is allocated by the first entryFor in
	// it (private and untouched frames stay nil), and an entry whose
	// sharers is nil has never been asked for.
	dir     [][]entry
	txns    map[uint64]*txn
	nextTxn uint64

	claims map[uint64]*claim // by VPN, for pages arbitrated here

	// fill is the reply slot for this node's single outstanding miss.
	fill      cache.LineState
	fillValid bool

	hot      hotStats
	lastFold hotStats
	// lastOccWaits/lastOccWaitCycles delta-fold the agent core's
	// occupancy-queueing stats, like lastFold does for hot.
	lastOccWaits      uint64
	lastOccWaitCycles uint64
}

// System is the DirNNB memory system.
type System struct {
	m     *machine.Machine
	nodes []*nodeState
	c     *stats.Counters
}

var _ machine.MemSystem = (*System)(nil)
var _ agent.Dispatcher = (*nodeState)(nil)

// New attaches a DirNNB memory system to m. One directory agent is
// spawned per node (before the compute processors, in node order, so
// context identity is deterministic).
func New(m *machine.Machine) *System {
	s := &System{m: m, c: stats.NewCounters()}
	for i := 0; i < m.Cfg.Nodes; i++ {
		ns := &nodeState{
			sys:    s,
			node:   i,
			txns:   make(map[uint64]*txn),
			claims: make(map[uint64]*claim),
		}
		s.nodes = append(s.nodes, ns)
	}
	for _, ns := range s.nodes {
		ns.core = agent.Spawn(m.Eng, m.Net, ns.node, fmt.Sprintf("dir%d", ns.node), "directory idle", m.Cfg.OccupancyCycles, ns, nil)
	}
	m.SetMemSystem(s)
	return s
}

// Name implements machine.MemSystem.
func (s *System) Name() string { return "DirNNB" }

// Counters implements machine.MemSystem: it folds the per-node hot
// counters and publishes first-touch home assignments into the VM's
// placement map (read by reporting code; never read by the protocol at
// run time, so the fold is safe once the machine is quiescent).
func (s *System) Counters() *stats.Counters {
	for _, ns := range s.nodes {
		ns.fold(s.c)
		for vpn, cl := range ns.claims {
			s.m.VM.ClaimHome(mem.VA(vpn*mem.PageSize), cl.home)
		}
	}
	return s.c
}

func (ns *nodeState) fold(c *stats.Counters) {
	d, l := ns.hot, ns.lastFold
	c.Add("dirnnb.private_misses", d.privateMisses-l.privateMisses)
	c.Add("dirnnb.local_misses", d.localMisses-l.localMisses)
	c.Add("dirnnb.local_dir_misses", d.localDirMisses-l.localDirMisses)
	c.Add("dirnnb.remote_upgrades", d.remoteUpgrades-l.remoteUpgrades)
	c.Add("dirnnb.remote_misses", d.remoteMisses-l.remoteMisses)
	c.Add("dirnnb.dirty_recalls", d.dirtyRecalls-l.dirtyRecalls)
	c.Add("dirnnb.invalidations", d.invalidations-l.invalidations)
	c.Add("dirnnb.dir_messages", d.dirMessages-l.dirMessages)
	c.Add("dirnnb.repl_shared", d.replShared-l.replShared)
	c.Add("dirnnb.repl_exclusive", d.replExclusive-l.replExclusive)
	c.Add("dirnnb.first_touch_claims", d.firstTouchClaims-l.firstTouchClaims)
	ns.lastFold = d
	w, wc := ns.core.OccStats()
	c.Add("dirnnb.occ_waits", w-ns.lastOccWaits)
	c.Add("dirnnb.occ_wait_cycles", wc-ns.lastOccWaitCycles)
	ns.lastOccWaits, ns.lastOccWaitCycles = w, wc
}

// SetupSegment eagerly allocates each page's frame at its home node and
// installs the translation in every node's page table — the global
// physical address map of a hardware DSM machine. This runs before the
// engine starts, so the cross-node table writes are safe. First-touch
// pages are deferred to the page-fault path.
func (s *System) SetupSegment(seg *vm.Segment) {
	for i := 0; i < seg.Pages(); i++ {
		va := seg.Base + mem.VA(i*mem.PageSize)
		home := s.m.VM.Home(va)
		if home < 0 {
			continue // first touch: resolved at fault time
		}
		pa, err := s.m.Mems[home].AllocFrame(mem.TagReadWrite)
		if err != nil {
			panic(&Error{Op: "alloc-frame", Node: home, VA: va, Msg: err.Error()})
		}
		pte := vm.PTE{PA: pa, Writable: true, Mode: seg.Mode}
		for n := 0; n < s.m.Cfg.Nodes; n++ {
			s.m.VM.Table(n).Map(va.VPN(), pte)
		}
	}
}

// segMode returns the segment mode covering va (ModeUser when no
// segment matches, as the old fault path did).
func (s *System) segMode(va mem.VA) int {
	for _, seg := range s.m.VM.Segments() {
		if va >= seg.Base && va < seg.End() {
			return seg.Mode
		}
	}
	return vm.ModeUser
}

// PageFault implements machine.MemSystem: only first-touch pages fault.
// The faulting processor asks the page's arbiter (a static function of
// the VPN, so all claimants agree without shared state) to resolve the
// home, and parks until its own agent has installed the translation.
// The first claimant becomes the home and allocates the frame from its
// own memory; later claimants are granted the winner's frame.
func (s *System) PageFault(p *machine.Proc, va mem.VA, write bool) {
	if !vm.IsShared(va) {
		panic(&Error{Op: "page-fault", Node: p.ID(), VA: va, Msg: "page fault on non-shared address"})
	}
	arb := int(va.VPN() % uint64(s.m.Cfg.Nodes))
	s.m.Net.Send(&network.Packet{
		Src: p.ID(), Dst: arb, VNet: network.VNetRequest,
		Handler: hClaim, Args: []uint64{va.VPN()},
	})
	p.Ctx.Park("dirnnb page fault %#x arbiter %d", int(va.PageBase()), arb)
	// The translation is installed (by this node's agent) before the
	// unpark, so the caller's retry succeeds.
}

// find returns block's directory entry, or nil if none was ever asked
// for.
func (ns *nodeState) find(block mem.PA) *entry {
	f := block.Offset() / mem.PageSize
	if f >= uint64(len(ns.dir)) || ns.dir[f] == nil {
		return nil
	}
	e := &ns.dir[f][ns.sys.m.Mems[ns.node].BlockIndex(block)]
	if e.sharers == nil {
		return nil
	}
	return e
}

// entryFor returns block's directory entry, creating it (no owner, no
// sharers) on first use.
func (ns *nodeState) entryFor(block mem.PA) *entry {
	if e := ns.find(block); e != nil {
		return e
	}
	mm := ns.sys.m.Mems[ns.node]
	f := int(block.Offset() / mem.PageSize)
	if f >= len(ns.dir) {
		ns.dir = slices.Grow(ns.dir, f+1-len(ns.dir))[:f+1]
	}
	if ns.dir[f] == nil {
		ns.dir[f] = make([]entry, mm.BlocksPerPage())
	}
	e := &ns.dir[f][mm.BlockIndex(block)]
	e.owner, e.sharers = -1, newNodeSet(ns.sys.m.Cfg.Nodes)
	return e
}

// eachEntry visits every directory entry this node has ever been asked
// for, in ascending PA order — the order the dense tables are laid out in.
func (ns *nodeState) eachEntry(visit func(mem.PA, *entry)) {
	bs := uint64(ns.sys.m.Cfg.BlockSize)
	for f, blocks := range ns.dir {
		for i := range blocks {
			if e := &blocks[i]; e.sharers != nil {
				visit(mem.MakePA(ns.node, uint64(f)*mem.PageSize+uint64(i)*bs), e)
			}
		}
	}
}

// coherTarget is one remote cache a coherence action must reach.
type coherTarget struct {
	node   int
	recall bool
}

// evalOut is what one directory evaluation owes the requester.
type evalOut struct {
	fill cache.LineState
	// dirOp is the directory occupancy (DirBase + per-message and block
	// transfer terms).
	dirOp sim.Time
	// coherLocal: the only coherence target was the home node's own
	// cache — a local bus transaction (InvalProc), no network legs.
	coherLocal bool
	// hadCoher: some coherence work (recall or invalidation) happened.
	hadCoher bool
	// targets are the remote caches that must ack before the requester
	// may proceed (a network round trip plus InvalProc, paid once — the
	// fan-out is parallel and the requester waits for the slowest).
	targets []coherTarget
}

// evaluate runs one atomic directory evaluation at block's home: from
// the home agent for remote requesters, or directly from the CPU when
// the requester is the home. Directory bookkeeping
// (including the requester's new state) applies immediately; remote
// cache copies are touched via the returned targets. The counter bumps
// and the latency terms mirror the pre-agent atomic model exactly.
func (s *System) evaluate(home int, block mem.PA, req int, write, upgrade bool) evalOut {
	ns := s.nodes[home]
	e := ns.entryFor(block)
	local := req == home
	var out evalOut
	dirMsgs := 0 // messages the directory sends (5 cycles each)
	dirRecvBlock := false
	dirSendBlock := !upgrade && !local // data travels home->requester

	// Recall a dirty copy held by another cache. When the owner is the
	// home node's own cache, the recall is a local bus transaction with
	// no network legs.
	if e.owner >= 0 && e.owner != req {
		ns.hot.dirtyRecalls++
		dirRecvBlock = true
		out.hadCoher = true
		if e.owner == home {
			out.coherLocal = true
			if write {
				s.m.Caches[home].Invalidate(block)
			} else {
				s.m.Caches[home].Downgrade(block)
			}
		} else {
			dirMsgs++ // recall message
			out.targets = append(out.targets, coherTarget{node: e.owner, recall: true})
		}
		if !write {
			e.sharers.add(e.owner)
		}
		e.owner = -1
	}

	// Invalidate other sharers on a write. Invalidations fan out in
	// parallel; the writer waits for the slowest: a network round trip
	// when any target is remote to the home, a bus transaction when the
	// only copy is in the home node's own cache.
	if write {
		invals, remoteInvals := 0, 0
		for _, n := range e.sharers.members() {
			if n == req {
				continue
			}
			if n == home {
				s.m.Caches[home].Invalidate(block)
			} else {
				out.targets = append(out.targets, coherTarget{node: n})
				remoteInvals++
			}
			e.sharers.remove(n)
			invals++
		}
		if invals > 0 {
			ns.hot.invalidations += uint64(invals)
			dirMsgs += remoteInvals
			out.hadCoher = true
			if remoteInvals == 0 {
				out.coherLocal = true
			}
		}
	}

	// Directory bookkeeping for the requester.
	if write {
		e.owner = req
		e.sharers.clear()
	} else {
		e.sharers.add(req)
	}

	out.fill = cache.LineShared
	if write || (e.owner == req) || (e.sharers.count() == 1 && e.sharers.has(req) && e.owner < 0) {
		// MBus-style ownership: a read with no other cached copies
		// returns an owned (Exclusive) copy, as on Typhoon (§5.4).
		out.fill = cache.LineExclusive
		if !write {
			e.owner = req
			e.sharers.clear()
		}
	}

	out.dirOp = DirBase + DirPerMsg*sim.Time(dirMsgs+1) // +1: the response itself
	if dirRecvBlock {
		out.dirOp += DirBlockRecv
	}
	if dirSendBlock {
		out.dirOp += DirBlockSend
	}

	switch {
	case local && !out.hadCoher && !upgrade:
		ns.hot.localMisses++
	case local:
		ns.hot.localDirMisses++
	case upgrade:
		ns.hot.remoteUpgrades++
	default:
		ns.hot.remoteMisses++
	}
	ns.hot.dirMessages += uint64(dirMsgs + 1)
	return out
}

// sendCoher launches the invalidations/recalls of one evaluation and
// registers the transaction awaiting their acks. Runs at the home (CPU
// or agent); the messages carry the action and the acks carry the txn id
// back. A write request's recall invalidates the old owner's copy, a
// read request's recall downgrades it — matching the cache operations
// the old atomic model applied in place.
func (s *System) sendCoher(home int, block mem.PA, out evalOut, tx *txn) {
	ns := s.nodes[home]
	id := ns.nextTxn
	ns.nextTxn++
	tx.block = block
	tx.fill = out.fill
	tx.acksLeft = len(out.targets)
	ns.txns[id] = tx
	var recallWrite uint64
	if tx.write {
		recallWrite = 1
	}
	for _, t := range out.targets {
		if t.recall {
			s.m.Net.Send(&network.Packet{
				Src: home, Dst: t.node, VNet: network.VNetReply,
				Handler: hRecall, Args: []uint64{uint64(block), id, recallWrite},
			})
		} else {
			s.m.Net.Send(&network.Packet{
				Src: home, Dst: t.node, VNet: network.VNetReply,
				Handler: hInval, Args: []uint64{uint64(block), id},
			})
		}
	}
}

// ServiceMiss implements machine.MemSystem. The request travels to the
// block's home as a message; the home agent evaluates the directory
// atomically at its own clock and the composed Table 2 latency comes
// back on the reply's delivery time. The requesting processor parks for
// exactly the closed-form latency of the old synchronous model.
func (s *System) ServiceMiss(p *machine.Proc, va mem.VA, pa mem.PA, pte vm.PTE, write, upgrade bool) cache.LineState {
	// Private pages bypass the directory entirely.
	if pte.Mode == vm.ModePrivate {
		p.Ctx.Advance(s.m.Cfg.LocalMissCycles)
		s.nodes[p.ID()].hot.privateMisses++
		return cache.LineExclusive
	}
	req := p.ID()
	home := pa.Node()
	block := s.m.Mems[home].BlockBase(pa)
	cfg := &s.m.Cfg
	// A deadlock report names the stuck block by its virtual address.
	blockVA := int(va) &^ (cfg.BlockSize - 1)

	if req == home {
		// Local requester: the CPU is on the home node and evaluates the
		// directory directly, like the hardware it shares a bus with.
		out := s.evaluate(home, block, req, write, upgrade)
		if len(out.targets) == 0 {
			// No remote copies to chase: the whole action is synchronous.
			// (A home-local coherence target is impossible here — the
			// only local cache is the requester's own.)
			if !out.hadCoher && !upgrade {
				p.Ctx.Advance(cfg.LocalMissCycles) // pure local miss
			} else {
				p.Ctx.Advance(cfg.LocalMissCycles + out.dirOp)
			}
			return out.fill
		}
		// Remote copies must be invalidated/recalled first: launch the
		// messages and park; the home agent wakes the CPU on the last
		// ack (one round trip + InvalProc later), after which the local
		// miss and directory occupancy are charged.
		ns := s.nodes[req]
		ns.fillValid = false
		s.sendCoher(home, block, out, &txn{req: req, write: write})
		p.Ctx.Park("dirnnb miss %#x home %d", blockVA, home)
		if !ns.fillValid {
			panic(fmt.Sprintf("dirnnb: node %d woke from local miss without a fill", req))
		}
		p.Ctx.Advance(cfg.LocalMissCycles + out.dirOp)
		return ns.fill
	}

	// Remote requester: issue the request and park until the reply. The
	// reply's delivery time carries the whole formula: RemoteIssue +
	// net + dirOp (+ coherence) + net, with RemoteFill charged on wake.
	ns := s.nodes[req]
	ns.fillValid = false
	var flags uint64
	if write {
		flags |= reqWrite
	}
	if upgrade {
		flags |= reqUpgrade
	}
	s.m.Net.Send(&network.Packet{
		Src: req, Dst: home, VNet: network.VNetRequest,
		Handler: hReq, Args: []uint64{uint64(block), flags},
	})
	p.Ctx.Advance(RemoteIssue)
	p.Ctx.Park("dirnnb miss %#x home %d", blockVA, home)
	if !ns.fillValid {
		panic(fmt.Sprintf("dirnnb: node %d woke from remote miss without a fill", req))
	}
	if !upgrade {
		p.Ctx.Advance(RemoteFill)
	}
	return ns.fill
}

// Evicted implements machine.MemSystem: it updates the directory for the
// displaced block — directly when this node is the home, else with an
// eviction notice to the home agent — and charges the Table 2
// replacement cost when the victim's home is remote.
func (s *System) Evicted(p *machine.Proc, victim mem.PA, state cache.LineState) {
	me := p.ID()
	home := victim.Node()
	if home == me {
		s.nodes[me].applyEvict(victim, me)
		return
	}
	s.m.Net.Send(&network.Packet{
		Src: me, Dst: home, VNet: network.VNetRequest,
		Handler: hEvict, Args: []uint64{uint64(victim)},
	})
	ns := s.nodes[me]
	if state == cache.LineExclusive {
		p.Ctx.AdvanceAtomic(ReplExclusive)
		ns.hot.replExclusive++
	} else {
		p.Ctx.AdvanceAtomic(ReplShared)
		ns.hot.replShared++
	}
}

// applyEvict removes node's residency from the victim's directory entry.
func (ns *nodeState) applyEvict(victim mem.PA, node int) {
	if e := ns.find(victim); e != nil {
		e.sharers.remove(node)
		if e.owner == node {
			e.owner = -1
		}
	}
}

// DispatchMessage implements agent.Dispatcher: one directory-hardware
// message. The agent charges no occupancy here — directory and
// invalidation processing costs ride on the response messages' send
// delays (network.SendAfter), composing the closed-form latencies while
// the state change itself happens atomically at dispatch.
func (ns *nodeState) DispatchMessage(c *sim.Context, pkt *network.Packet) {
	s := ns.sys
	switch pkt.Handler {
	case hReq:
		block := mem.PA(pkt.Args[0])
		flags := pkt.Args[1]
		req := pkt.Src
		write := flags&reqWrite != 0
		upgrade := flags&reqUpgrade != 0
		out := s.evaluate(ns.node, block, req, write, upgrade)
		extra := RemoteIssue + out.dirOp
		if len(out.targets) == 0 {
			if out.coherLocal {
				extra += InvalProc
			}
			ns.reply(req, block, out.fill, extra)
			return
		}
		s.sendCoher(ns.node, block, out, &txn{req: req, write: write, replyExtra: extra})

	case hReply:
		ns.fill = cache.LineState(pkt.Args[1])
		ns.fillValid = true
		s.m.Procs[ns.node].Ctx.Unpark(c.Time())

	case hInval:
		s.m.Caches[ns.node].Invalidate(mem.PA(pkt.Args[0]))
		ns.ack(pkt.Src, pkt.Args[1])

	case hRecall:
		block := mem.PA(pkt.Args[0])
		if pkt.Args[2] != 0 {
			s.m.Caches[ns.node].Invalidate(block)
		} else {
			s.m.Caches[ns.node].Downgrade(block)
		}
		ns.ack(pkt.Src, pkt.Args[1])

	case hAck:
		id := pkt.Args[0]
		tx := ns.txns[id]
		if tx == nil {
			panic(fmt.Sprintf("dirnnb: node %d acked unknown txn %d", ns.node, id))
		}
		tx.acksLeft--
		if tx.acksLeft > 0 {
			return
		}
		delete(ns.txns, id)
		if tx.req == ns.node {
			// Local requester: wake the parked CPU; it charges its own
			// local-miss and directory terms.
			ns.fill = tx.fill
			ns.fillValid = true
			s.m.Procs[ns.node].Ctx.Unpark(c.Time())
			return
		}
		ns.reply(tx.req, tx.block, tx.fill, tx.replyExtra)

	case hEvict:
		ns.applyEvict(mem.PA(pkt.Args[0]), pkt.Src)

	case hClaim:
		ns.handleClaim(c, pkt.Args[0], pkt.Src)

	case hGrantHome:
		// This node won the first touch: allocate the frame from its own
		// memory, install its own translation, wake its processor, and
		// report the frame to the arbiter for later claimants.
		vpn := pkt.Args[0]
		pa := ns.mapOwn(vpn, 0, true)
		s.m.Net.Send(&network.Packet{
			Src: ns.node, Dst: pkt.Src, VNet: network.VNetRequest,
			Handler: hMapped, Args: []uint64{vpn, uint64(pa)},
		})
		s.m.Procs[ns.node].Ctx.Unpark(c.Time())

	case hGrant:
		ns.mapOwn(pkt.Args[0], mem.PA(pkt.Args[1]), false)
		s.m.Procs[ns.node].Ctx.Unpark(c.Time())

	case hMapped:
		vpn := pkt.Args[0]
		cl := ns.claims[vpn]
		cl.pa = mem.PA(pkt.Args[1])
		cl.mapped = true
		for _, w := range cl.waiters {
			ns.grant(c, cl, w)
		}
		cl.waiters = nil

	default:
		panic(fmt.Sprintf("dirnnb: node %d received unknown handler %d", ns.node, pkt.Handler))
	}
}

// reply sends the miss response, its delivery delayed by the modeled
// issue + directory (+ local coherence) occupancy.
func (ns *nodeState) reply(req int, block mem.PA, fill cache.LineState, extra sim.Time) {
	ns.sys.m.Net.SendAfter(&network.Packet{
		Src: ns.node, Dst: req, VNet: network.VNetReply,
		Handler: hReply, Args: []uint64{uint64(block), uint64(fill)},
	}, extra)
}

// ack answers an invalidation/recall after the cache's InvalProc cycles.
func (ns *nodeState) ack(home int, id uint64) {
	ns.sys.m.Net.SendAfter(&network.Packet{
		Src: ns.node, Dst: home, VNet: network.VNetReply,
		Handler: hAck, Args: []uint64{id},
	}, InvalProc)
}

// handleClaim arbitrates one first-touch claim at the page's arbiter.
func (ns *nodeState) handleClaim(c *sim.Context, vpn uint64, claimant int) {
	cl, ok := ns.claims[vpn]
	if !ok {
		// First claimant wins: it becomes the home.
		ns.hot.firstTouchClaims++
		cl = &claim{vpn: vpn, home: claimant}
		ns.claims[vpn] = cl
		if claimant == ns.node {
			// Arbiter, claimant and home are all this node.
			cl.pa = ns.mapOwn(vpn, 0, true)
			cl.mapped = true
			ns.sys.m.Procs[ns.node].Ctx.Unpark(c.Time())
			return
		}
		ns.sys.m.Net.Send(&network.Packet{
			Src: ns.node, Dst: claimant, VNet: network.VNetReply,
			Handler: hGrantHome, Args: []uint64{vpn},
		})
		return
	}
	if cl.mapped {
		ns.grant(c, cl, claimant)
		return
	}
	cl.waiters = append(cl.waiters, claimant)
}

// grant delivers a resolved first-touch frame to a later claimant —
// directly when the claimant is the arbiter itself, else as an hGrant
// message to the claimant's agent.
func (ns *nodeState) grant(c *sim.Context, cl *claim, claimant int) {
	if claimant == ns.node {
		ns.mapOwn(cl.vpn, cl.pa, false)
		ns.sys.m.Procs[ns.node].Ctx.Unpark(c.Time())
		return
	}
	ns.sys.m.Net.Send(&network.Packet{
		Src: ns.node, Dst: claimant, VNet: network.VNetReply,
		Handler: hGrant, Args: []uint64{cl.vpn, uint64(cl.pa)},
	})
}

// mapOwn installs this node's translation for vpn. With alloc set the
// node is the page's home and allocates the frame from its own memory.
func (ns *nodeState) mapOwn(vpn uint64, pa mem.PA, alloc bool) mem.PA {
	s := ns.sys
	va := mem.VA(vpn * mem.PageSize)
	if alloc {
		var err error
		pa, err = s.m.Mems[ns.node].AllocFrame(mem.TagReadWrite)
		if err != nil {
			panic(&Error{Op: "alloc-frame", Node: ns.node, VA: va, Msg: err.Error()})
		}
	}
	s.m.VM.Table(ns.node).MapPage(va, pa, s.segMode(va))
	return pa
}

// nodeSet is a bit set of node IDs.
type nodeSet []uint64

func newNodeSet(n int) nodeSet { return make(nodeSet, (n+63)/64) }

func (ns nodeSet) add(n int)      { ns[n/64] |= 1 << (n % 64) }
func (ns nodeSet) remove(n int)   { ns[n/64] &^= 1 << (n % 64) }
func (ns nodeSet) has(n int) bool { return ns[n/64]&(1<<(n%64)) != 0 }
func (ns nodeSet) clear() {
	for i := range ns {
		ns[i] = 0
	}
}
func (ns nodeSet) count() int {
	c := 0
	for _, w := range ns {
		for ; w != 0; w &= w - 1 {
			c++
		}
	}
	return c
}
func (ns nodeSet) members() []int {
	var out []int
	for i, w := range ns {
		for w != 0 {
			b := i*64 + bits.TrailingZeros64(w)
			out = append(out, b)
			w &= w - 1
		}
	}
	return out
}
