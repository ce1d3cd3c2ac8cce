package stache

import (
	"testing"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/typhoon"
	"github.com/tempest-sim/tempest/internal/vm"
)

func TestPrefetchHidesLatency(t *testing.T) {
	m, st := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	res := run(t, m, st, func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteU64(seg.At(0), 7)
			p.WriteU64(seg.At(64), 8)
		}
		p.Barrier()
		if p.ID() != 1 {
			return
		}
		// Map the page with a demand access, then prefetch another
		// block, overlap with compute, and read it.
		p.ReadU64(seg.At(128))
		st.Prefetch(p, seg.At(64))
		p.Compute(400) // plenty of time for the data to arrive
		t0 := p.Ctx.Time()
		if got := p.ReadU64(seg.At(64)); got != 8 {
			t.Errorf("prefetched value = %d", got)
		}
		// The access should be a plain local miss (plus maybe TLB).
		if d := p.Ctx.Time() - t0; d > 60 {
			t.Errorf("prefetched read cost %d cycles; latency not hidden", d)
		}
	})
	if res.Counters.Get("stache.prefetches") != 1 {
		t.Errorf("prefetches = %d", res.Counters.Get("stache.prefetches"))
	}
	if res.Counters.Get("stache.prefetch_fills") != 1 {
		t.Errorf("prefetch fills = %d", res.Counters.Get("stache.prefetch_fills"))
	}
}

func TestDemandFaultJoinsOutstandingPrefetch(t *testing.T) {
	m, st := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	run(t, m, st, func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteU64(seg.At(64), 9)
		}
		p.Barrier()
		if p.ID() != 1 {
			return
		}
		p.ReadU64(seg.At(128)) // map the page
		st.Prefetch(p, seg.At(64))
		// Read immediately: the fault must join the in-flight prefetch
		// rather than issue a second request.
		if got := p.ReadU64(seg.At(64)); got != 9 {
			t.Errorf("value = %d", got)
		}
	})
}

func TestPrefetchOnUnmappedPageIsIgnored(t *testing.T) {
	m, st := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	res := run(t, m, st, func(p *machine.Proc) {
		if p.ID() == 1 {
			st.Prefetch(p, seg.At(0)) // no stache page yet
			p.Ctx.Sleep(100)
			if got := p.ReadU64(seg.At(0)); got != 0 {
				t.Errorf("value = %d", got)
			}
		}
	})
	if res.Counters.Get("stache.prefetches") != 0 {
		t.Errorf("prefetch on unmapped page should be ignored, got %d",
			res.Counters.Get("stache.prefetches"))
	}
}

func TestPrefetchWriteAfterFillUpgrades(t *testing.T) {
	m, st := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	run(t, m, st, func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteU64(seg.At(64), 5)
		}
		p.Barrier()
		if p.ID() != 1 {
			return
		}
		p.ReadU64(seg.At(128))
		st.Prefetch(p, seg.At(64))
		p.Compute(400)
		p.WriteU64(seg.At(64), 6) // RO prefetched copy: upgrade path
		if got := p.ReadU64(seg.At(64)); got != 6 {
			t.Errorf("value = %d", got)
		}
	})
}

func TestPrefetchSurvivesPageReplacement(t *testing.T) {
	// Prefetch a block, then demand-touch another page: with a one-page
	// budget the fault replaces the prefetched page, and at a 1000-cycle
	// network latency it does so while the prefetch's data is still in
	// flight. The replacement must orphan the prefetch, and its reply
	// must be consumed and the residency the home granted handed back.
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096, Seed: 1, NetLatency: 1000})
	st := New(WithMaxPages(1))
	sys := typhoon.New(m, st)
	seg := m.AllocShared("x", 4*mem.PageSize, vm.OnNode{Node: 0}, 0)
	block := seg.At(64)
	orphaned := false
	sys.WrapHandler(HDataRO, func(h typhoon.Handler) typhoon.Handler {
		return func(np *typhoon.NP, pkt *network.Packet) {
			if np.Node() == 1 && mem.VA(pkt.Args[0]) == block {
				orphaned = st.per[1].orphans[block] > 0
			}
			h(np, pkt)
		}
	})
	run(t, m, st, func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteU64(seg.At(0), 5)
		}
		p.Barrier()
		if p.ID() != 1 {
			return
		}
		p.ReadU64(seg.At(0)) // map page 0
		st.Prefetch(p, block)
		p.ReadU64(seg.At(mem.PageSize)) // replaces page 0
		p.ReadU64(seg.At(2 * mem.PageSize))
		// Re-touch page 0 through a fresh stache page.
		if got := p.ReadU64(seg.At(0)); got != 5 {
			t.Errorf("value = %d, want 5", got)
		}
	})
	if !orphaned {
		t.Fatal("the prefetch reply did not arrive as an orphan: the page was not replaced while it was in flight")
	}
	if n := len(st.per[1].orphans); n != 0 {
		t.Errorf("%d orphaned replies never consumed", n)
	}
	if d := homeEntry(m, block); d.state != dirIdle || d.sharers.has(1) {
		t.Errorf("home directory for the orphaned block is %v (node 1 listed: %v), want Idle", d.state, d.sharers.has(1))
	}
}

// TestPrefetchRetriesAfterNack: a prefetch that reaches the home while
// the block is Busy is NACKed, and the requester's NP retries it with no
// thread waiting. Node 2 owns the block; the home's own read recalls it,
// and node 1's prefetch lands inside that 2000-cycle recall.
func TestPrefetchRetriesAfterNack(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 3, CacheSize: 4096, Seed: 1, NetLatency: 1000})
	st := New()
	sys := typhoon.New(m, st)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	block := seg.At(64)
	nacked := 0
	sys.WrapHandler(HNack, func(h typhoon.Handler) typhoon.Handler {
		return func(np *typhoon.NP, pkt *network.Packet) {
			if np.Node() == 1 && mem.VA(pkt.Args[0]) == block {
				nacked++
			}
			h(np, pkt)
		}
	})
	res := run(t, m, st, func(p *machine.Proc) {
		switch p.ID() {
		case 1:
			p.ReadU64(seg.At(0)) // map the page
		case 2:
			p.WriteU64(block, 9) // node 2 owns the block
		}
		p.Barrier()
		switch p.ID() {
		case 0:
			p.ReadU64(block) // the home recalls it: Busy for a round trip
		case 1:
			st.Prefetch(p, block)
			p.Ctx.Sleep(10000)
			t0 := p.Ctx.Time()
			if got := p.ReadU64(block); got != 9 {
				t.Errorf("value = %d, want 9", got)
			}
			if d := p.Ctx.Time() - t0; d > 60 {
				t.Errorf("prefetched read cost %d cycles; the retried prefetch did not fill", d)
			}
		}
	})
	if nacked == 0 {
		t.Fatal("the home never NACKed the prefetch")
	}
	if got := res.Counters.Get("stache.prefetch_fills"); got != 1 {
		t.Errorf("prefetch fills = %d, want 1", got)
	}
}

// TestOrphanedPrefetchNackIsConsumed: a prefetch the home NACKs after
// its page was replaced is an orphan too. The NACK consumes it, and since
// the home granted nothing, no clean drop follows.
func TestOrphanedPrefetchNackIsConsumed(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 3, CacheSize: 4096, Seed: 1, NetLatency: 1000})
	st := New(WithMaxPages(1))
	sys := typhoon.New(m, st)
	seg := m.AllocShared("x", 2*mem.PageSize, vm.OnNode{Node: 0}, 0)
	block := seg.At(64)
	orphaned := false
	sys.WrapHandler(HNack, func(h typhoon.Handler) typhoon.Handler {
		return func(np *typhoon.NP, pkt *network.Packet) {
			if np.Node() == 1 && mem.VA(pkt.Args[0]) == block {
				orphaned = st.per[1].orphans[block] > 0
			}
			h(np, pkt)
		}
	})
	res := run(t, m, st, func(p *machine.Proc) {
		switch p.ID() {
		case 1:
			p.ReadU64(seg.At(0)) // map page 0
		case 2:
			p.WriteU64(block, 9) // node 2 owns the block
		}
		p.Barrier()
		switch p.ID() {
		case 0:
			p.ReadU64(block) // the home recalls it: Busy for a round trip
		case 1:
			st.Prefetch(p, block)
			p.ReadU64(seg.At(mem.PageSize)) // replaces page 0
		}
	})
	if !orphaned {
		t.Fatal("the NACK did not arrive for an orphaned prefetch")
	}
	if n := len(st.per[1].orphans); n != 0 {
		t.Errorf("%d orphaned replies never consumed", n)
	}
	if got := res.Counters.Get("stache.prefetch_fills"); got != 0 {
		t.Errorf("prefetch fills = %d, want 0", got)
	}
	if d := homeEntry(m, block); d.sharers.has(1) {
		t.Errorf("home lists node 1 for a block it was never granted (%v)", d.state)
	}
}

// TestOrphanedReplyLeavesNewerGrant: node 1's prefetch is orphaned, and
// node 1 requests the block again before the orphaned reply (delayed by
// a recall from owner node 2) arrives. The home serves the newer request
// first, so a clean drop sent for the orphan would strip the sharer entry
// the newer reply installs a copy under, and node 2's next write would
// leave node 1 reading a stale value.
func TestOrphanedReplyLeavesNewerGrant(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 3, CacheSize: 4096, Seed: 1, NetLatency: 1000})
	st := New(WithMaxPages(1))
	sys := typhoon.New(m, st)
	seg := m.AllocShared("x", 2*mem.PageSize, vm.OnNode{Node: 0}, 0)
	block := seg.At(64)
	overtaken := false
	sys.WrapHandler(HDataRO, func(h typhoon.Handler) typhoon.Handler {
		return func(np *typhoon.NP, pkt *network.Packet) {
			ns := st.per[1]
			if np.Node() == 1 && mem.VA(pkt.Args[0]) == block && ns.orphans[block] > 0 {
				overtaken = ns.pendingValid && ns.pendingVA == block
			}
			h(np, pkt)
		}
	})
	run(t, m, st, func(p *machine.Proc) {
		switch p.ID() {
		case 1:
			p.ReadU64(seg.At(0)) // map page 0
		case 2:
			p.WriteU64(block, 9) // node 2 owns the block: the GETS waits on a recall
		}
		p.Barrier()
		if p.ID() == 1 {
			st.Prefetch(p, block)
			p.ReadU64(seg.At(mem.PageSize)) // replaces page 0
			if got := p.ReadU64(block); got != 9 {
				t.Errorf("value = %d, want 9", got)
			}
		}
		p.Barrier()
		if p.ID() == 2 {
			p.WriteU64(block, 10) // must invalidate node 1's copy
		}
		p.Barrier()
		if p.ID() == 1 {
			if got := p.ReadU64(block); got != 10 {
				t.Errorf("value after node 2's write = %d, want 10", got)
			}
		}
	})
	if !overtaken {
		t.Fatal("the orphaned reply did not arrive while the newer request was pending")
	}
}

// homeEntry returns the home directory entry of va's block.
func homeEntry(m *machine.Machine, va mem.VA) *blockDir {
	home := m.VM.Home(va)
	pa, _, ok := m.VM.Translate(home, va)
	if !ok {
		panic("homeEntry: home page unmapped")
	}
	hd, _ := m.Mems[home].Frame(pa).User.(*homeDir)
	return hd.block(int(va.PageOffset()) / m.Cfg.BlockSize)
}
