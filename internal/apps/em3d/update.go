package em3d

import (
	"fmt"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/stache"
	"github.com/tempest-sim/tempest/internal/typhoon"
	"github.com/tempest-sim/tempest/internal/vm"
)

// The custom EM3D coherence protocol of paper §4: a delayed-update
// protocol in which cache blocks become inconsistent within a step and
// are explicitly updated at the step's end. Two new page types — a
// custom home page and a custom stache page — hold the graph values.
// Home handlers keep a list of all outstanding copies; the end-of-step
// "barrier" is replaced by a flush that pushes modified values to every
// copy, with no acknowledgements: each processor knows how many remote
// blocks it has stached and simply counts arriving updates (the paper's
// fuzzy barrier in the handlers).
//
// Registration epochs make the counting exact: a copy fetched while the
// home has already flushed k times starts receiving updates at flush
// k+1, so the receiver activates it one wait-round later.
const (
	// ModeUpdateHome is the custom home-page mode.
	ModeUpdateHome = stache.ModeNextFree
	// ModeUpdateRemote is the custom stache-page mode.
	ModeUpdateRemote = stache.ModeNextFree + 1
)

// Custom message handlers.
const (
	hUpdGetS uint32 = stache.HNextFree + iota
	hUpdData
	hUpdFlush
	hUpdBlock
)

// updPage is the custom home page's copy list: per block, the nodes
// holding a stache copy.
type updPage struct {
	baseVA  mem.VA
	sharers [][]int16
}

// updSegState is one node's receive-side accounting for one custom
// segment.
type updSegState struct {
	received      uint64 // cumulative update blocks received
	target        uint64 // cumulative blocks expected through the current wait round
	waitRound     int
	runningActive int
	regByEpoch    map[int]int
	waiter        *machine.Proc
}

// updNode is one node's protocol state.
type updNode struct {
	segs         map[mem.VA]*updSegState // keyed by segment base
	homePages    map[mem.VA][]mem.VA     // segment base -> home page VAs on this node
	flushEpoch   map[mem.VA]int          // segment base -> flushes performed as home
	pendingValid bool
	pendingVA    mem.VA
}

// UpdateProtocol composes Stache (which keeps serving ordinary segments)
// with the delayed-update handlers for the graph-value segments.
type UpdateProtocol struct {
	*stache.Protocol
	sys *typhoon.System
	m   *machine.Machine
	bs  int
	per []*updNode
}

var _ typhoon.Protocol = (*UpdateProtocol)(nil)

// NewUpdateProtocol returns the EM3D custom protocol.
func NewUpdateProtocol() *UpdateProtocol {
	return &UpdateProtocol{Protocol: stache.New()}
}

// Name implements typhoon.Protocol.
func (u *UpdateProtocol) Name() string { return "Update" }

// Attach implements typhoon.Protocol.
func (u *UpdateProtocol) Attach(sys *typhoon.System) {
	u.Protocol.Attach(sys)
	u.sys = sys
	u.m = sys.M
	u.bs = sys.M.Cfg.BlockSize
	u.per = make([]*updNode, u.m.Cfg.Nodes)
	for i := range u.per {
		u.per[i] = &updNode{
			segs:       make(map[mem.VA]*updSegState),
			homePages:  make(map[mem.VA][]mem.VA),
			flushEpoch: make(map[mem.VA]int),
		}
	}
	sys.RegisterPageMode(ModeUpdateHome, typhoon.PageModeOps{
		PageFault: u.pageFault,
		BlockFault: func(np *typhoon.NP, f typhoon.Fault) {
			panic(fmt.Sprintf("em3d-update: home block fault on %#x; home tags stay ReadWrite", f.VA))
		},
	})
	sys.RegisterPageMode(ModeUpdateRemote, typhoon.PageModeOps{
		PageFault: func(_ *typhoon.System, p *machine.Proc, va mem.VA, write bool) {
			panic(fmt.Sprintf("em3d-update: page fault on mapped custom stache page %#x", va))
		},
		BlockFault: u.remoteFault,
	})
	sys.RegisterHandler(hUpdGetS, u.handleGetS)
	sys.RegisterHandler(hUpdData, u.handleData)
	sys.RegisterHandler(hUpdFlush, u.handleFlush)
	sys.RegisterHandler(hUpdBlock, u.handleBlock)
}

// SetupSegment implements typhoon.Protocol: custom-mode segments get
// home pages with copy lists; everything else is plain Stache.
func (u *UpdateProtocol) SetupSegment(seg *vm.Segment) {
	if seg.Mode != ModeUpdateHome {
		u.Protocol.SetupSegment(seg)
		return
	}
	for i := 0; i < seg.Pages(); i++ {
		va := seg.Base + mem.VA(i*mem.PageSize)
		home := u.m.VM.Home(va)
		frame := u.sys.MapFrame(home, va, mem.TagReadWrite, ModeUpdateHome)
		frame.User = &updPage{
			baseVA:  va,
			sharers: make([][]int16, u.m.Mems[home].BlocksPerPage()),
		}
		un := u.per[home]
		un.homePages[seg.Base] = append(un.homePages[seg.Base], va)
	}
}

// segBaseOf returns the base of the custom segment containing va.
func (u *UpdateProtocol) segBaseOf(va mem.VA) mem.VA {
	seg := u.m.VM.SegmentOf(va)
	if seg == nil || seg.Mode != ModeUpdateHome {
		panic(fmt.Sprintf("em3d-update: %#x not in a custom segment", va))
	}
	return seg.Base
}

func (u *UpdateProtocol) segState(node int, segBase mem.VA) *updSegState {
	un := u.per[node]
	st, ok := un.segs[segBase]
	if !ok {
		st = &updSegState{regByEpoch: make(map[int]int)}
		un.segs[segBase] = st
	}
	return st
}

// pageFault creates a custom stache page on the faulting node (like
// Stache's, without replacement: the graph is the working set).
func (u *UpdateProtocol) pageFault(sys *typhoon.System, p *machine.Proc, va mem.VA, write bool) {
	node := p.ID()
	p.Compute(100)
	if u.m.VM.Home(va) == node {
		panic(fmt.Sprintf("em3d-update: node %d faulted on its own home page %#x", node, va))
	}
	u.sys.MapFrame(node, va, mem.TagInvalid, ModeUpdateRemote)
}

// remoteFault requests a copy of the block from the home; writes to
// remote graph values never happen under the owner-computes rule.
func (u *UpdateProtocol) remoteFault(np *typhoon.NP, f typhoon.Fault) {
	if f.Write {
		panic(fmt.Sprintf("em3d-update: write fault on remote graph value %#x violates owner-computes", f.VA))
	}
	un := u.per[np.Node()]
	if un.pendingValid {
		panic("em3d-update: second outstanding fault")
	}
	va := f.VA &^ mem.VA(u.bs-1)
	un.pendingValid = true
	un.pendingVA = va
	home := np.FrameOf(f.VA).Home
	np.SetTag(va, mem.TagBusy)
	np.Charge(7)
	np.SendRequest(home, hUpdGetS, []uint64{uint64(va)}, nil)
}

// handleGetS registers the copy in the home's copy list and replies with
// the data and the current flush epoch.
func (u *UpdateProtocol) handleGetS(np *typhoon.NP, pkt *network.Packet) {
	va := mem.VA(pkt.Args[0])
	pa, _, ok := np.Translate(va)
	if !ok {
		panic(fmt.Sprintf("em3d-update: GETS for unmapped home block %#x", va))
	}
	page := np.Mem().Frame(pa).User.(*updPage)
	bi := int(va.PageOffset()) / u.bs
	page.sharers[bi] = append(page.sharers[bi], int16(pkt.Src))
	segBase := u.segBaseOf(va)
	epoch := u.per[np.Node()].flushEpoch[segBase]
	data := np.ForceReadBlockScratch(va)
	np.MemRef(mem.MakePA(np.Node(), uint64(1)<<39|(uint64(va)&((1<<38)-1))))
	np.Charge(10)
	np.SendReply(pkt.Src, hUpdData, []uint64{uint64(va), uint64(epoch)}, data)
}

// handleData installs the read-only copy, records its activation epoch,
// and restarts the thread.
func (u *UpdateProtocol) handleData(np *typhoon.NP, pkt *network.Packet) {
	va := mem.VA(pkt.Args[0])
	epoch := int(pkt.Args[1])
	un := u.per[np.Node()]
	if !un.pendingValid || un.pendingVA != va {
		panic(fmt.Sprintf("em3d-update: unexpected data for %#x", va))
	}
	np.ForceWriteBlock(va, pkt.Data)
	np.SetTag(va, mem.TagReadOnly)
	un.pendingValid = false
	st := u.segState(np.Node(), u.segBaseOf(va))
	st.regByEpoch[epoch]++
	np.Charge(12)
	np.Resume(np.Proc())
}

// handleFlush walks this node's home pages of the segment and pushes the
// current block values to every registered copy — the paper's
// "function that traverses the list and sends modified values".
func (u *UpdateProtocol) handleFlush(np *typhoon.NP, pkt *network.Packet) {
	segBase := mem.VA(pkt.Args[0])
	un := u.per[np.Node()]
	un.flushEpoch[segBase]++
	for _, pageVA := range un.homePages[segBase] {
		pa, _, ok := np.Translate(pageVA)
		if !ok {
			panic("em3d-update: home page unmapped during flush")
		}
		page := np.Mem().Frame(pa).User.(*updPage)
		for bi, sharers := range page.sharers {
			if len(sharers) == 0 {
				continue
			}
			va := pageVA + mem.VA(bi*u.bs)
			data := np.ForceReadBlockScratch(va)
			np.Charge(2)
			for _, s := range sharers {
				np.Charge(2)
				np.SendRequest(int(s), hUpdBlock, []uint64{uint64(va)}, data)
			}
		}
	}
}

// handleBlock applies one pushed update and advances the fuzzy barrier.
func (u *UpdateProtocol) handleBlock(np *typhoon.NP, pkt *network.Packet) {
	va := mem.VA(pkt.Args[0])
	np.ForceWriteBlock(va, pkt.Data)
	np.Charge(4)
	st := u.segState(np.Node(), u.segBaseOf(va))
	np.Sync() // the fuzzy-barrier wait polls received without a timed op
	st.received++
	if st.waiter != nil && st.received >= st.target {
		w := st.waiter
		st.waiter = nil
		w.Ctx.Unpark(np.Time())
	}
}

// FlushAndWait replaces the end-of-phase barrier (§4): the processor
// asks its NP to push updates for its home pages of the segment, then
// waits until it has received the updates for every copy it holds whose
// registration predates this round.
func (u *UpdateProtocol) FlushAndWait(p *machine.Proc, seg *vm.Segment) {
	u.sys.Send(p, network.VNetRequest, p.ID(), hUpdFlush, []uint64{uint64(seg.Base)}, nil)
	st := u.segState(p.ID(), seg.Base)
	st.waitRound++
	st.runningActive += st.regByEpoch[st.waitRound-1]
	st.target += uint64(st.runningActive)
	// A yielding charge, as in Bulk.Wait: without the yield, an update
	// handler that runs inside the window finds the waiter set and
	// Unparks it, and that Unpark's syncRunning materialises the
	// handler's own lazy quantum mid-step. Once per phase, so the yield
	// costs nothing measurable.
	p.Ctx.Advance(4)
	for st.received < st.target {
		st.waiter = p
		p.Ctx.Park("em3d-update fuzzy barrier")
	}
	st.waiter = nil
}

// UpdateApp runs EM3D under the custom delayed-update protocol: the same
// computation as App, with the end-of-phase barriers replaced by the
// protocol's counted update flushes.
type UpdateApp struct {
	*App
	upd *UpdateProtocol
}

// NewUpdateApp pairs an EM3D instance with its custom protocol. The
// protocol must be the one attached to the machine the app will run on.
func NewUpdateApp(cfg Config, upd *UpdateProtocol) *UpdateApp {
	return &UpdateApp{App: New(cfg), upd: upd}
}

// Name implements apps.App.
func (ua *UpdateApp) Name() string { return "em3d-update" }

// Setup implements apps.App: the graph-value segments use the custom
// page mode; weights stay under plain Stache.
func (ua *UpdateApp) Setup(m *machine.Machine) {
	ua.App.setup(m, ModeUpdateHome)
}

// Body implements apps.App.
func (ua *UpdateApp) Body(p *machine.Proc) {
	pid := p.ID()
	ua.initLocal(p)
	p.Barrier()
	p.ROIStart()
	for it := 0; it < ua.cfg.Iters; it++ {
		ua.phase(p, ua.eVals, ua.hVals, ua.eAdj[pid], ua.eW)
		if it == 0 {
			// First iteration only: H-phase first-touch fetches of
			// E values must not observe a home still mid-E-phase.
			// After this, the graph is fully stached and the counted
			// updates alone synchronize (the paper's fuzzy barrier).
			p.Barrier()
		}
		ua.upd.FlushAndWait(p, ua.eVals.Seg)
		ua.phase(p, ua.hVals, ua.eVals, ua.hAdj[pid], ua.hW)
		ua.upd.FlushAndWait(p, ua.hVals.Seg)
	}
	p.ROIEnd()
}
