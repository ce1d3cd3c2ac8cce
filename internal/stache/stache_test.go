package stache

import (
	"strings"
	"testing"
	"unsafe"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/typhoon"
	"github.com/tempest-sim/tempest/internal/vm"
)

func newM(t *testing.T, nodes int, opts ...Option) (*machine.Machine, *Protocol) {
	t.Helper()
	m := machine.New(machine.Config{Nodes: nodes, CacheSize: 4096, Seed: 1})
	st := New(opts...)
	typhoon.New(m, st)
	return m, st
}

func run(t *testing.T, m *machine.Machine, st *Protocol, body func(p *machine.Proc)) machine.Result {
	t.Helper()
	res, err := m.Run(body)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("coherence invariant violated: %v", err)
	}
	return res
}

// TestHandlerBudgetsMatchPaper pins the best-case NP path lengths to the
// paper's §6 numbers: 14 instructions to request a block, 30 to respond
// at the home, 20 at data arrival.
func TestHandlerBudgetsMatchPaper(t *testing.T) {
	request := sim.Time(costRequestExtra) + typhoon.TagOpCycles + typhoon.SendCost(1, 0)
	if request != 14 {
		t.Errorf("request path = %d instructions, want 14", request)
	}
	// Home response: 2 directory references (hits), home tag write,
	// block read, data reply send.
	homeResp := sim.Time(costHomeRespExtra) + 2 + typhoon.TagOpCycles +
		typhoon.BlockXferCycles + typhoon.SendCost(1, 32)
	if homeResp != 30 {
		t.Errorf("home response path = %d instructions, want 30", homeResp)
	}
	arrive := sim.Time(costDataArriveExtra) + typhoon.BlockXferCycles +
		typhoon.TagOpCycles + typhoon.ResumeCycles
	if arrive != 20 {
		t.Errorf("data arrival path = %d instructions, want 20", arrive)
	}
}

func TestRemoteReadThroughStache(t *testing.T) {
	m, st := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	var got uint64
	res := run(t, m, st, func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteU64(seg.At(0), 4242)
		}
		p.Barrier()
		if p.ID() == 1 {
			got = p.ReadU64(seg.At(0))
		}
	})
	if got != 4242 {
		t.Fatalf("remote read = %d, want 4242", got)
	}
	if res.Counters.Get("stache.page_faults") == 0 {
		t.Error("no stache page fault recorded")
	}
	if res.Counters.Get("stache.gets") == 0 {
		t.Error("no GETS recorded")
	}
}

func TestSecondAccessToStachedBlockIsLocal(t *testing.T) {
	m, st := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	run(t, m, st, func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteU64(seg.At(0), 1)
			p.WriteU64(seg.At(1024), 2)
		}
		p.Barrier()
		if p.ID() != 1 {
			return
		}
		p.ReadU64(seg.At(0))
		t0 := p.Ctx.Time()
		p.ReadU64(seg.At(8)) // same block: pure cache hit
		if d := p.Ctx.Time() - t0; d != 1 {
			t.Errorf("same-block reread cost %d, want 1", d)
		}
		// Evict the line by touching four conflicting local private
		// blocks, then reread: the stache page satisfies it locally.
		p.ReadU64(seg.At(1024)) // different block, same stache page
		t1 := p.Ctx.Time()
		p.ReadU64(seg.At(1024 + 8))
		if d := p.Ctx.Time() - t1; d != 1 {
			t.Errorf("stached block reread cost %d, want 1", d)
		}
	})
}

func TestCapacityMissSatisfiedFromStache(t *testing.T) {
	// CPU cache 4 KB; a 5-block conflict set forces an eviction; the
	// evicted block must refill from the LOCAL stache page (29 cycles),
	// not from the remote home.
	m, st := newM(t, 2)
	seg := m.AllocShared("x", 8*mem.PageSize, vm.OnNode{Node: 0}, 0)
	run(t, m, st, func(p *machine.Proc) {
		if p.ID() != 1 {
			return
		}
		// 5 addresses, 1024 bytes apart: same cache set, 3 stache pages.
		for i := 0; i < 5; i++ {
			p.ReadU64(seg.At(uint64(i * 1024)))
		}
		t0 := p.Ctx.Time()
		p.ReadU64(seg.At(0)) // evicted from CPU cache, still stached
		d := p.Ctx.Time() - t0
		if d != 1+29 && d != 1+29+25 { // possibly a TLB miss too
			t.Errorf("capacity reread cost %d, want 30 (or 55 with TLB miss)", d)
		}
	})
}

func TestWriteInvalidatesSharers(t *testing.T) {
	m, st := newM(t, 4)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	vals := make([]uint64, 4)
	res := run(t, m, st, func(p *machine.Proc) {
		p.ReadU64(seg.At(0)) // all nodes share the block
		p.Barrier()
		if p.ID() == 2 {
			p.WriteU64(seg.At(0), 1234) // invalidates 0,1,3
		}
		p.Barrier()
		vals[p.ID()] = p.ReadU64(seg.At(0))
	})
	for n, v := range vals {
		if v != 1234 {
			t.Errorf("node %d read %d, want 1234", n, v)
		}
	}
	if res.Counters.Get("stache.invals_sent") == 0 {
		t.Error("no invalidations sent")
	}
}

func TestUpgradePathUsesUpgAck(t *testing.T) {
	m, st := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	res := run(t, m, st, func(p *machine.Proc) {
		if p.ID() == 1 {
			p.ReadU64(seg.At(0))      // RO copy
			p.WriteU64(seg.At(0), 10) // upgrade
			if got := p.ReadU64(seg.At(0)); got != 10 {
				t.Errorf("read after upgrade = %d", got)
			}
		}
	})
	if res.Counters.Get("stache.upgrades") == 0 {
		t.Error("no upgrade request recorded")
	}
}

func TestHomeReadRecallsRemoteOwner(t *testing.T) {
	m, st := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	var got uint64
	res := run(t, m, st, func(p *machine.Proc) {
		if p.ID() == 1 {
			p.WriteU64(seg.At(0), 77) // node 1 owns the block
		}
		p.Barrier()
		if p.ID() == 0 {
			got = p.ReadU64(seg.At(0)) // home fault: downgrade recall
		}
		p.Barrier()
		if p.ID() == 1 {
			// Owner kept a read-only copy: reread is a local fill.
			t0 := p.Ctx.Time()
			p.ReadU64(seg.At(0))
			if d := p.Ctx.Time() - t0; d > 60 {
				t.Errorf("downgraded owner reread cost %d, want local", d)
			}
		}
	})
	if got != 77 {
		t.Fatalf("home read %d, want 77", got)
	}
	if res.Counters.Get("stache.home_faults") == 0 {
		t.Error("no home fault recorded")
	}
}

func TestHomeWriteInvalidatesSharers(t *testing.T) {
	m, st := newM(t, 3)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	vals := make([]uint64, 3)
	run(t, m, st, func(p *machine.Proc) {
		p.ReadU64(seg.At(0))
		p.Barrier()
		if p.ID() == 0 {
			p.WriteU64(seg.At(0), 55) // home write fault: invalidate 1,2
		}
		p.Barrier()
		vals[p.ID()] = p.ReadU64(seg.At(0))
	})
	for n, v := range vals {
		if v != 55 {
			t.Errorf("node %d read %d, want 55", n, v)
		}
	}
}

func TestSharerOverflowBeyondSixPointers(t *testing.T) {
	m, st := newM(t, 9)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	vals := make([]uint64, 9)
	run(t, m, st, func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteU64(seg.At(0), 7)
		}
		p.Barrier()
		p.ReadU64(seg.At(0)) // 8 remote sharers: overflow past 6 pointers
		p.Barrier()
		if p.ID() == 3 {
			p.WriteU64(seg.At(0), 8) // must invalidate all 8
		}
		p.Barrier()
		vals[p.ID()] = p.ReadU64(seg.At(0))
	})
	for n, v := range vals {
		if v != 8 {
			t.Errorf("node %d read %d, want 8", n, v)
		}
	}
}

func TestContendedBlockNacksAndConverges(t *testing.T) {
	m, st := newM(t, 8)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	res := run(t, m, st, func(p *machine.Proc) {
		// Everyone hammers the same block with writes, unsynchronised.
		for i := 0; i < 10; i++ {
			p.WriteU64(seg.At(8*uint64(p.ID())), uint64(i))
			p.Touch(seg.At(0), i%2 == 0)
		}
		p.Barrier()
	})
	_ = res // invariants checked in run()
}

func TestPageReplacementWritesBackAndRefetches(t *testing.T) {
	// Node 1's stache budget: 4 pages. Touching 6 remote pages forces
	// FIFO replacement; modified data must survive at the home.
	m, st := newM(t, 2, WithMaxPages(4))
	seg := m.AllocShared("big", 6*mem.PageSize, vm.OnNode{Node: 0}, 0)
	res := run(t, m, st, func(p *machine.Proc) {
		if p.ID() != 1 {
			return
		}
		for pg := 0; pg < 6; pg++ {
			p.WriteU64(seg.At(uint64(pg*mem.PageSize)), uint64(100+pg))
		}
		// Revisit: the early pages were replaced; values must round-trip
		// through the home.
		for pg := 0; pg < 6; pg++ {
			if got := p.ReadU64(seg.At(uint64(pg * mem.PageSize))); got != uint64(100+pg) {
				t.Errorf("page %d value = %d, want %d", pg, got, 100+pg)
			}
		}
	})
	if res.Counters.Get("stache.replacements") == 0 {
		t.Error("no page replacements recorded")
	}
	if res.Counters.Get("stache.wb_dirty_blocks") == 0 {
		t.Error("no dirty writebacks recorded")
	}
}

func TestSequentialEquivalence(t *testing.T) {
	const nodes, elems = 4, 256
	m, st := newM(t, nodes)
	data := m.AllocShared("data", elems*8, vm.RoundRobin{}, 0)
	partial := m.AllocShared("partial", nodes*mem.PageSize, vm.RoundRobin{}, 0)
	var total uint64
	run(t, m, st, func(p *machine.Proc) {
		for i := p.ID(); i < elems; i += nodes {
			p.WriteU64(data.At(uint64(i*8)), uint64(i))
		}
		p.Barrier()
		var sum uint64
		for i := (p.ID() + 1) % nodes; i < elems; i += nodes {
			sum += p.ReadU64(data.At(uint64(i * 8)))
		}
		p.WriteU64(partial.At(uint64(p.ID()*mem.PageSize)), sum)
		p.Barrier()
		if p.ID() == 0 {
			for n := 0; n < nodes; n++ {
				total += p.ReadU64(partial.At(uint64(n * mem.PageSize)))
			}
		}
	})
	want := uint64(elems * (elems - 1) / 2)
	if total != want {
		t.Fatalf("parallel sum = %d, want %d", total, want)
	}
}

func TestProducerConsumerPingPong(t *testing.T) {
	m, st := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	const rounds = 20
	run(t, m, st, func(p *machine.Proc) {
		for r := 0; r < rounds; r++ {
			if p.ID() == r%2 {
				p.WriteU64(seg.At(0), uint64(r))
			}
			p.Barrier()
			if got := p.ReadU64(seg.At(0)); got != uint64(r) {
				t.Errorf("round %d: node %d read %d", r, p.ID(), got)
			}
			p.Barrier()
		}
	})
}

func TestFalseSharingStaysCoherent(t *testing.T) {
	// Two nodes write adjacent words in the same block.
	m, st := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	run(t, m, st, func(p *machine.Proc) {
		for i := 0; i < 10; i++ {
			p.WriteU64(seg.At(uint64(8*p.ID())), uint64(i*10+p.ID()))
		}
		p.Barrier()
		a := p.ReadU64(seg.At(0))
		b := p.ReadU64(seg.At(8))
		if a != 90 || b != 91 {
			t.Errorf("node %d sees %d,%d; want 90,91", p.ID(), a, b)
		}
	})
}

func TestDeterministicRuns(t *testing.T) {
	exec := func() sim.Time {
		m, st := newM(t, 4)
		seg := m.AllocShared("x", 4*mem.PageSize, vm.RoundRobin{}, 0)
		res := run(t, m, st, func(p *machine.Proc) {
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

// TestDirectoryEntrySize: a home page carries one blockDir per block
// (128 at 32-byte blocks), allocated whenever a page gets a home, so the
// sharer set keeps the paper's one-byte pointers.
func TestDirectoryEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(sharerSet{}); got != 16 {
		t.Errorf("unsafe.Sizeof(sharerSet{}) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(blockDir{}); got != 56 {
		t.Errorf("unsafe.Sizeof(blockDir{}) = %d, want 56", got)
	}
}

func TestSharerSetOverflowTransition(t *testing.T) {
	var s sharerSet
	var pool vectorPool
	for n := 0; n < 6; n++ {
		s.add(n, &pool)
	}
	if s.usingOverflow() {
		t.Fatal("six sharers should fit the pointers")
	}
	s.add(6, &pool)
	if !s.usingOverflow() {
		t.Fatal("seventh sharer must trigger overflow")
	}
	if s.count() != 7 {
		t.Fatalf("count = %d, want 7", s.count())
	}
	for n := 0; n < 7; n++ {
		if !s.has(n) {
			t.Fatalf("sharer %d lost in overflow conversion", n)
		}
	}
	s.remove(3)
	if s.has(3) || s.count() != 6 {
		t.Fatal("remove in overflow mode failed")
	}
	vec := s.overflow
	s.clear(&pool)
	if s.usingOverflow() || s.count() != 0 || len(pool) != 1 {
		t.Fatalf("clear: overflow %v, count %d, pool %d; want pointers, 0, the vector back in the pool",
			s.usingOverflow(), s.count(), len(pool))
	}
	for n := 10; n < 17; n++ {
		s.add(n, &pool)
	}
	if s.overflow != vec || len(pool) != 0 {
		t.Fatal("second overflow did not reuse the pooled vector")
	}
	if s.count() != 7 || s.has(0) || s.has(6) {
		t.Fatalf("reused vector kept old members: count %d", s.count())
	}
}

// TestDeadlockNamesStuckBlock: when the home's NP never hears a request,
// the deadlock report names the block the faulting processor waits for
// and its home, not just "block access fault".
func TestDeadlockNamesStuckBlock(t *testing.T) {
	m, _ := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	m.Net.Endpoint(0).Notify = nil // node 0's NP sleeps through every request
	_, err := m.Run(func(p *machine.Proc) {
		if p.ID() == 1 {
			p.ReadU64(seg.At(0x48))
		}
	})
	const want = "(parked: block access fault 0x400000000040 home 0)"
	if err == nil || !strings.Contains(err.Error(), "sim: deadlock") || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run = %v, want a deadlock naming %s", err, want)
	}
}
