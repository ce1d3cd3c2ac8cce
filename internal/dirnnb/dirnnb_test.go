package dirnnb

import (
	"errors"
	"strings"
	"testing"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/vm"
)

func newM(t *testing.T, nodes int) (*machine.Machine, *System) {
	t.Helper()
	m := machine.New(machine.Config{
		Nodes:     nodes,
		CacheSize: 4096,
		Seed:      1,
	})
	s := New(m)
	return m, s
}

// run executes body SPMD and fails the test on simulator errors.
func run(t *testing.T, m *machine.Machine, body func(p *machine.Proc)) machine.Result {
	t.Helper()
	res, err := m.Run(body)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestLocalMissLatency(t *testing.T) {
	m, _ := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	run(t, m, func(p *machine.Proc) {
		if p.ID() != 0 {
			return
		}
		t0 := p.Ctx.Time()
		p.ReadU64(seg.At(0))
		// 1 instruction + 25 TLB miss + 29 local miss.
		if got := p.Ctx.Time() - t0; got != 1+25+29 {
			t.Errorf("local cold read cost %d, want 55", got)
		}
		t1 := p.Ctx.Time()
		p.ReadU64(seg.At(8)) // same block, same page: pure cache hit
		if got := p.Ctx.Time() - t1; got != 1 {
			t.Errorf("cached read cost %d, want 1", got)
		}
	})
}

func TestRemoteCleanReadMissLatency(t *testing.T) {
	m, _ := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	run(t, m, func(p *machine.Proc) {
		if p.ID() != 1 {
			return
		}
		t0 := p.Ctx.Time()
		p.ReadU64(seg.At(0))
		// 1 + TLB 25 + [23 issue + 11 net + dirOp(16 + 5*1 + 11 blockSend)
		// + 11 net + 34 fill] = 1 + 25 + 111.
		if got := p.Ctx.Time() - t0; got != 1+25+111 {
			t.Errorf("remote clean read cost %d, want %d", got, 1+25+111)
		}
	})
}

// TestRemoteMissParksOnce holds a remote miss to one context switch: the
// park for the reply. Every RemoteIssue charge below crosses the
// 64-cycle quantum (34 RemoteFill after the previous wake, 10 compute,
// 1 instruction, then 23 issue = 68), so a miss that yields on the
// charge pays two switches.
func TestRemoteMissParksOnce(t *testing.T) {
	const reads = 100
	m, _ := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	res := run(t, m, func(p *machine.Proc) {
		if p.ID() != 1 {
			return
		}
		for i := range reads {
			p.ReadU64(seg.At(uint64(i * m.Cfg.BlockSize))) // a fresh block each time
			p.Compute(10)
		}
	})
	misses := res.Counters.Get("dirnnb.remote_misses")
	if misses != reads {
		t.Fatalf("%d remote misses, want %d", misses, reads)
	}
	// The slack covers each processor's first dispatch (102 in all here).
	if sw := res.Counters.Get("engine.goroutine_switches"); sw > misses+4 {
		t.Errorf("%d context switches for %d remote misses; want at most %d", sw, misses, misses+4)
	}
}

func TestReadAfterRemoteWriteSeesValue(t *testing.T) {
	m, _ := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	var got uint64
	run(t, m, func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteU64(seg.At(0), 777)
		}
		p.Barrier()
		if p.ID() == 1 {
			got = p.ReadU64(seg.At(0))
		}
	})
	if got != 777 {
		t.Fatalf("node 1 read %d, want 777", got)
	}
}

func TestWriteInvalidatesRemoteSharers(t *testing.T) {
	m, _ := newM(t, 4)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	vals := make([]uint64, 4)
	res := run(t, m, func(p *machine.Proc) {
		p.ReadU64(seg.At(0)) // everyone caches the block
		p.Barrier()
		if p.ID() == 0 {
			p.WriteU64(seg.At(0), 42)
		}
		p.Barrier()
		vals[p.ID()] = p.ReadU64(seg.At(0)) // sharers must refetch
	})
	for n, v := range vals {
		if v != 42 {
			t.Errorf("node %d read %d, want 42", n, v)
		}
	}
	if res.Counters.Get("dirnnb.invalidations") == 0 {
		t.Error("write to shared block produced no invalidations")
	}
}

func TestDirtyRecallOnRemoteRead(t *testing.T) {
	m, _ := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	var got uint64
	res := run(t, m, func(p *machine.Proc) {
		if p.ID() == 1 {
			p.WriteU64(seg.At(0), 99) // node 1 holds the block dirty
		}
		p.Barrier()
		if p.ID() == 0 {
			got = p.ReadU64(seg.At(0)) // home must recall from node 1
		}
	})
	if got != 99 {
		t.Fatalf("home read %d, want 99", got)
	}
	if res.Counters.Get("dirnnb.dirty_recalls") == 0 {
		t.Error("no dirty recall recorded")
	}
}

func TestUpgradeChargesOwnershipOnly(t *testing.T) {
	m, _ := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	run(t, m, func(p *machine.Proc) {
		// Both nodes read first so node 1 holds the block Shared.
		p.ReadU64(seg.At(0))
		p.Barrier()
		if p.ID() != 1 {
			return
		}
		t0 := p.Ctx.Time()
		p.WriteU64(seg.At(0), 5)
		cost := p.Ctx.Time() - t0
		// Upgrade: 1 + 23 + 11 + dirOp + 11, no 34 fill. The only
		// sharer to invalidate is node 0, the home itself: a local bus
		// transaction (8 cycles), not a network round trip.
		want := sim.Time(1) + RemoteIssue + 11 + (DirBase + DirPerMsg) + 11 + InvalProc
		if cost != want {
			t.Errorf("upgrade cost %d, want %d", cost, want)
		}
	})
}

func TestExclusiveFillOnUnsharedRead(t *testing.T) {
	m, _ := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	run(t, m, func(p *machine.Proc) {
		if p.ID() != 0 {
			return
		}
		p.ReadU64(seg.At(0))
		t0 := p.Ctx.Time()
		p.WriteU64(seg.At(0), 1) // E-state: silent write, 1 cycle
		if got := p.Ctx.Time() - t0; got != 1 {
			t.Errorf("write after unshared read cost %d, want 1 (E-state)", got)
		}
	})
}

func TestPrivatePagesBypassDirectory(t *testing.T) {
	m, _ := newM(t, 2)
	var va mem.VA
	run(t, m, func(p *machine.Proc) {
		if p.ID() != 0 {
			return
		}
		va = p.Machine().AllocPrivate(0, mem.PageSize)
		t0 := p.Ctx.Time()
		p.WriteU64(va, 3)
		// 1 + TLB 25 + 29 local miss, Exclusive fill: next write 1 cycle.
		if got := p.Ctx.Time() - t0; got != 55 {
			t.Errorf("private cold write cost %d, want 55", got)
		}
		t1 := p.Ctx.Time()
		p.WriteU64(va, 4)
		if got := p.Ctx.Time() - t1; got != 1 {
			t.Errorf("private warm write cost %d, want 1", got)
		}
	})
}

func TestRoundRobinPlacementSpreadsHomes(t *testing.T) {
	m, _ := newM(t, 4)
	seg := m.AllocShared("arr", 8*mem.PageSize, vm.RoundRobin{}, vm.ModeUser)
	counts := make(map[int]int)
	for i := 0; i < 8; i++ {
		counts[m.VM.Home(seg.At(uint64(i*mem.PageSize)))]++
	}
	for n := 0; n < 4; n++ {
		if counts[n] != 2 {
			t.Fatalf("node %d homes %d pages, want 2", n, counts[n])
		}
	}
}

// TestPageFaultIsAnError: every shared page is mapped on every node at
// allocation, so a fault on one — here a page node 1's own code unmapped
// — is reported as a *Error naming the node and address, not served
// with a fresh frame whose contents no other node sees.
func TestPageFaultIsAnError(t *testing.T) {
	m, _ := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	var got uint64
	_, err := m.Run(func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteU64(seg.At(0), 42)
		}
		p.Barrier()
		if p.ID() == 1 {
			m.VM.Table(1).Unmap(seg.Base.VPN())
			got = p.ReadU64(seg.At(0))
		}
	})
	var derr *Error
	if !errors.As(err, &derr) {
		t.Fatalf("Run = %v (node 1 read %d), want a *dirnnb.Error", err, got)
	}
	if derr.Op != "page-fault" || derr.Node != 1 || derr.VA != seg.Base {
		t.Errorf("error %q: op %q node %d va %#x, want op page-fault node 1 va %#x",
			derr, derr.Op, derr.Node, derr.VA, seg.Base)
	}
}

func TestEvictionChargesReplacementAndCleansDirectory(t *testing.T) {
	// Cache: 4096 bytes, 4-way, 32B lines -> 32 sets; addresses 1024
	// bytes apart collide in one set.
	m, s := newM(t, 2)
	seg := m.AllocShared("big", 16*mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	res := run(t, m, func(p *machine.Proc) {
		if p.ID() != 1 {
			return
		}
		// Write 5 conflicting blocks: the 5th must evict a dirty one.
		for i := 0; i < 5; i++ {
			p.WriteU64(seg.At(uint64(i*1024)), uint64(i))
		}
	})
	if res.Counters.Get("dirnnb.repl_exclusive") == 0 {
		t.Error("no exclusive replacement charged")
	}
	// Directory must no longer list node 1 as owner of the victim. The
	// segment is homed on node 0, so its entries live in node 0's slice
	// of the directory.
	owners := 0
	s.nodes[0].eachEntry(func(_ mem.PA, e *entry) {
		if e.owner == 1 {
			owners++
		}
	})
	if owners != 4 {
		t.Errorf("node 1 owns %d blocks in directory, want 4 after eviction", owners)
	}
}

// TestSequentialEquivalence runs a small parallel reduction and checks
// the result against the serial computation — the end-to-end coherence
// correctness check.
func TestSequentialEquivalence(t *testing.T) {
	const nodes, elems = 4, 256
	m, _ := newM(t, nodes)
	data := m.AllocShared("data", elems*8, vm.RoundRobin{}, vm.ModeUser)
	partial := m.AllocShared("partial", nodes*8, vm.OnNode{Node: 0}, vm.ModeUser)
	var total uint64
	run(t, m, func(p *machine.Proc) {
		// Each node initialises its stripe.
		for i := p.ID(); i < elems; i += nodes {
			p.WriteU64(data.At(uint64(i*8)), uint64(i))
		}
		p.Barrier()
		// Each node sums a different stripe (forcing remote reads).
		var sum uint64
		for i := (p.ID() + 1) % nodes; i < elems; i += nodes {
			sum += p.ReadU64(data.At(uint64(i * 8)))
		}
		p.WriteU64(partial.At(uint64(p.ID()*8)), sum)
		p.Barrier()
		if p.ID() == 0 {
			for n := 0; n < nodes; n++ {
				total += p.ReadU64(partial.At(uint64(n * 8)))
			}
		}
	})
	want := uint64(elems * (elems - 1) / 2)
	if total != want {
		t.Fatalf("parallel sum = %d, want %d", total, want)
	}
}

func TestDeterministicRuns(t *testing.T) {
	exec := func() sim.Time {
		m, _ := newM(t, 4)
		seg := m.AllocShared("x", 4*mem.PageSize, vm.RoundRobin{}, vm.ModeUser)
		res := run(t, m, func(p *machine.Proc) {
			for i := 0; i < 64; i++ {
				idx := uint64(((i*7 + p.ID()*13) % 512) * 8)
				if i%3 == 0 {
					p.WriteU64(seg.At(idx), uint64(i))
				} else {
					p.ReadU64(seg.At(idx))
				}
			}
			p.Barrier()
		})
		return res.Cycles
	}
	a, b := exec(), exec()
	if a != b {
		t.Fatalf("nondeterministic: %d vs %d cycles", a, b)
	}
}

// TestDirectoryEntriesInPAOrder pins what StateDigest relies on since the
// directory became per-frame arrays: walking them yields exactly the
// blocks a processor has asked the home for — not their untouched
// neighbours in the same frame, nothing for private frames — in strictly
// ascending PA order, however scattered the order they were created in.
func TestDirectoryEntriesInPAOrder(t *testing.T) {
	m, s := newM(t, 2)
	// A private frame first, so node 0's shared frames do not start at
	// frame 0, and another between the two segments.
	m.AllocPrivate(0, mem.PageSize)
	segA := m.AllocShared("a", 3*mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	m.AllocPrivate(0, mem.PageSize)
	own := m.AllocPrivate(1, mem.PageSize)
	segB := m.AllocShared("b", 2*mem.PageSize, vm.RoundRobin{}, vm.ModeUser)
	touched := []mem.VA{
		segB.At(mem.PageSize + 96), segA.At(2*mem.PageSize + 4064), segA.At(32), segB.At(8),
		segA.At(2 * mem.PageSize), segA.At(0), segA.At(40), // the last shares segA.At(32)'s block
	}
	run(t, m, func(p *machine.Proc) {
		if p.ID() != 1 {
			return
		}
		p.WriteU64(own, 1) // node 1's private page: no directory entry
		for _, va := range touched {
			p.WriteU64(va, uint64(va))
		}
	})
	want := map[mem.PA]bool{}
	for _, va := range touched {
		pa, _, ok := m.VM.Translate(1, va)
		if !ok {
			t.Fatalf("%#x not mapped", va)
		}
		want[m.Mems[pa.Node()].BlockBase(pa)] = true
	}
	if len(want) != 6 {
		t.Fatalf("touched %d distinct blocks, want 6", len(want))
	}
	got := 0
	for _, ns := range s.nodes {
		last := mem.PA(0)
		ns.eachEntry(func(pa mem.PA, e *entry) {
			got++
			if pa.Node() != ns.node || !want[pa] {
				t.Errorf("node %d lists an entry for %#x, which nobody asked it for", ns.node, pa)
			}
			if pa <= last && last != 0 {
				t.Errorf("node %d: entry %#x follows %#x", ns.node, pa, last)
			}
			last = pa
			if e.owner != 1 {
				t.Errorf("entry %#x: owner %d, want the writer, node 1", pa, e.owner)
			}
		})
	}
	if got != len(want) {
		t.Errorf("the directory lists %d entries, want %d", got, len(want))
	}
	if a, b := s.StateDigest(), s.StateDigest(); a != b {
		t.Errorf("StateDigest is not repeatable: %#x then %#x", a, b)
	}
}

// TestDeadlockNamesStuckBlock: when the home's agent never hears a
// request, the deadlock report names the block the requester waits for
// and its home, not just "dirnnb miss".
func TestDeadlockNamesStuckBlock(t *testing.T) {
	m, _ := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	m.Net.Endpoint(0).Notify = nil // node 0's agent sleeps through every request
	_, err := m.Run(func(p *machine.Proc) {
		if p.ID() == 1 {
			p.ReadU64(seg.At(0x48))
		}
	})
	const want = "(parked: dirnnb miss 0x400000000040 home 0)"
	if err == nil || !strings.Contains(err.Error(), "sim: deadlock") || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run = %v, want a deadlock naming %s", err, want)
	}
}
