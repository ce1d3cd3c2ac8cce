package tsync

import (
	"testing"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/stache"
	"github.com/tempest-sim/tempest/internal/typhoon"
	"github.com/tempest-sim/tempest/internal/vm"
)

func newM(t *testing.T, nodes int) (*machine.Machine, *Manager, *stache.Protocol) {
	t.Helper()
	m := machine.New(machine.Config{Nodes: nodes, CacheSize: 4096, Seed: 1})
	st := stache.New()
	sys := typhoon.New(m, st)
	mgr := New(sys, 4, 4)
	return m, mgr, st
}

// TestMutualExclusion increments a shared counter non-atomically under a
// lock: without mutual exclusion updates would be lost (the unprotected
// version provably loses them in TestRacyBaselineLosesUpdates).
func TestMutualExclusion(t *testing.T) {
	const nodes, iters = 6, 8
	m, mgr, st := newM(t, nodes)
	seg := m.AllocShared("ctr", mem.PageSize, vm.OnNode{Node: 0}, 0)
	_, err := m.Run(func(p *machine.Proc) {
		for i := 0; i < iters; i++ {
			mgr.Acquire(p, 0)
			v := p.ReadU64(seg.At(0))
			p.Compute(5)
			p.WriteU64(seg.At(0), v+1)
			mgr.Release(p, 0)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := apps.ReadBackU64(m, seg.At(0)); got != nodes*iters {
		t.Fatalf("counter = %d, want %d", got, nodes*iters)
	}
}

// TestRacyBaselineLosesUpdates demonstrates why the lock matters: the
// same increment loop without the lock loses updates.
func TestRacyBaselineLosesUpdates(t *testing.T) {
	const nodes, iters = 6, 8
	m, _, _ := newM(t, nodes)
	seg := m.AllocShared("ctr", mem.PageSize, vm.OnNode{Node: 0}, 0)
	if _, err := m.Run(func(p *machine.Proc) {
		for i := 0; i < iters; i++ {
			v := p.ReadU64(seg.At(0))
			p.Compute(5)
			p.WriteU64(seg.At(0), v+1)
		}
		p.Barrier()
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := apps.ReadBackU64(m, seg.At(0)); got >= nodes*iters {
		t.Skipf("racy run coincidentally lost nothing (%d)", got)
	}
}

// TestDeadlockNamesTheLock: a lock never released ends the run as a
// deadlock whose report names the lock each blocked processor waits for.
func TestDeadlockNamesTheLock(t *testing.T) {
	m, mgr, _ := newM(t, 3)
	_, err := m.Run(func(p *machine.Proc) {
		if p.ID() > 0 {
			p.Compute(50 * p.ID())
		}
		mgr.Acquire(p, 3) // processor 0 gets it and never lets go
	})
	const want = "sim: deadlock at cycle 118; blocked contexts: cpu1@57(parked: lock 3), cpu2@107(parked: lock 3)"
	if err == nil || err.Error() != want {
		t.Fatalf("Run() = %v, want %q", err, want)
	}
}

// TestLockFIFOFairness: waiters are granted in arrival order.
func TestLockFIFOFairness(t *testing.T) {
	const nodes = 5
	m, mgr, _ := newM(t, nodes)
	var order []int
	_, err := m.Run(func(p *machine.Proc) {
		// Stagger arrivals deterministically.
		p.Compute(10 * (p.ID() + 1))
		mgr.Acquire(p, 1)
		order = append(order, p.ID())
		p.Compute(200) // hold long enough that everyone queues
		mgr.Release(p, 1)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != nodes {
		t.Fatalf("grants = %v", order)
	}
	// Arrival order is by staggered compute: 0,1,2,...
	for i := range order {
		if order[i] != i {
			t.Fatalf("grant order = %v, want FIFO by arrival", order)
		}
	}
}

// TestFetchAddTotalsExactly: concurrent fetch-and-adds never lose
// updates and return unique pre-images.
func TestFetchAddTotalsExactly(t *testing.T) {
	const nodes, iters = 8, 5
	m, mgr, _ := newM(t, nodes)
	seen := make(map[uint64]bool)
	_, err := m.Run(func(p *machine.Proc) {
		for i := 0; i < iters; i++ {
			old := mgr.FetchAdd(p, 2, 1)
			if seen[old] {
				t.Errorf("duplicate pre-image %d", old)
			}
			seen[old] = true
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(seen) != nodes*iters {
		t.Fatalf("pre-images = %d, want %d", len(seen), nodes*iters)
	}
	for v := uint64(0); v < nodes*iters; v++ {
		if !seen[v] {
			t.Fatalf("missing pre-image %d", v)
		}
	}
}

// TestMultipleLocksIndependent: different locks do not serialize each
// other (they live on different home nodes).
func TestMultipleLocksIndependent(t *testing.T) {
	m, mgr, _ := newM(t, 4)
	_, err := m.Run(func(p *machine.Proc) {
		id := p.ID() % 4
		for i := 0; i < 5; i++ {
			mgr.Acquire(p, id)
			p.Compute(10)
			mgr.Release(p, id)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestLockOutOfRangePanics(t *testing.T) {
	m, mgr, _ := newM(t, 2)
	_, err := m.Run(func(p *machine.Proc) {
		if p.ID() == 0 {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
				panic("rethrow to end context cleanly")
			}()
			mgr.Acquire(p, 99)
		}
	})
	if err == nil {
		t.Fatal("expected run error from rethrown panic")
	}
}
