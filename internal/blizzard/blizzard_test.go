package blizzard

import (
	"testing"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/apps/ocean"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stache"
	"github.com/tempest-sim/tempest/internal/typhoon"
	"github.com/tempest-sim/tempest/internal/vm"
)

func newBlizzard(t *testing.T, nodes int) (*machine.Machine, *stache.Protocol) {
	t.Helper()
	m := machine.New(machine.Config{Nodes: nodes, CacheSize: 4096, Seed: 1})
	st := stache.New()
	New(m, st)
	return m, st
}

// TestUnmodifiedStacheRunsOnSoftwareTempest is the portability claim of
// §2: the exact same Stache library, attached to the software
// implementation, provides correct transparent shared memory.
func TestUnmodifiedStacheRunsOnSoftwareTempest(t *testing.T) {
	m, st := newBlizzard(t, 4)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	vals := make([]uint64, 4)
	_, err := m.Run(func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteU64(seg.At(0), 99)
		}
		p.Barrier()
		vals[p.ID()] = p.ReadU64(seg.At(0))
		p.Barrier()
		if p.ID() == 2 {
			p.WriteU64(seg.At(0), 100)
		}
		p.Barrier()
		vals[p.ID()] = p.ReadU64(seg.At(0))
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	for n, v := range vals {
		if v != 100 {
			t.Errorf("node %d read %d, want 100", n, v)
		}
	}
}

// TestInlineCheckOverheadCharged: even pure cache hits on shared data
// pay the software access-check cost.
func TestInlineCheckOverheadCharged(t *testing.T) {
	m, _ := newBlizzard(t, 1)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	priv := m.AllocPrivate(0, mem.PageSize)
	if _, err := m.Run(func(p *machine.Proc) {
		p.ReadU64(seg.At(0))
		p.ReadU64(priv)
		t0 := p.Ctx.Time()
		p.ReadU64(seg.At(0)) // shared hit: 1 + check overhead
		sharedHit := p.Ctx.Time() - t0
		t0 = p.Ctx.Time()
		p.ReadU64(priv) // private hit: 1 cycle, unchecked
		privHit := p.Ctx.Time() - t0
		if sharedHit != 1+typhoon.SoftwareCheckCycles {
			t.Errorf("shared hit cost %d, want %d", sharedHit, 1+typhoon.SoftwareCheckCycles)
		}
		if privHit != 1 {
			t.Errorf("private hit cost %d, want 1", privHit)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestHandlerCyclesStolenFromCPU: the home's compute processor pays for
// the protocol handlers it served.
func TestHandlerCyclesStolenFromCPU(t *testing.T) {
	m, _ := newBlizzard(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	var homeCost sim.Time
	if _, err := m.Run(func(p *machine.Proc) {
		if p.ID() == 1 {
			p.ReadU64(seg.At(0)) // remote fetch: the home serves a GETS
		}
		p.Barrier()
		if p.ID() == 0 {
			t0 := p.Ctx.Time()
			p.ReadU64(seg.At(64)) // first reference after serving: absorbs the stall
			homeCost = p.Ctx.Time() - t0
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Local miss (29) + 1 + check overhead alone is 33; the stolen GETS
	// handler plus dispatch overhead must push it well past that.
	if homeCost <= 33+typhoon.SoftwareDispatchCycles {
		t.Errorf("home reference cost %d; handler cycles not stolen", homeCost)
	}
}

// TestSoftwareSlowerThanTyphoon quantifies what the NP hardware buys:
// the same benchmark on the same protocol is slower on the software
// implementation.
func TestSoftwareSlowerThanTyphoon(t *testing.T) {
	exec := func(software bool) sim.Time {
		m := machine.New(machine.Config{Nodes: 4, CacheSize: 4096, Seed: 1})
		st := stache.New()
		if software {
			New(m, st)
		} else {
			typhoon.New(m, st)
		}
		app := ocean.New(ocean.Tiny())
		app.Setup(m)
		res, err := m.Run(app.Body)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := app.Verify(m); err != nil {
			t.Fatal(err)
		}
		return res.ROICycles
	}
	hw := exec(false)
	sw := exec(true)
	ratio := float64(sw) / float64(hw)
	t.Logf("software/hardware = %.2f (hw=%d sw=%d)", ratio, hw, sw)
	if ratio <= 1.05 {
		t.Errorf("software Tempest should cost measurably more than Typhoon (ratio %.2f)", ratio)
	}
	if ratio > 10 {
		t.Errorf("software Tempest ratio %.2f implausibly high", ratio)
	}
}

// TestCustomProtocolPortable: the EM3D update protocol also runs
// unmodified on the software implementation (exercised via the harness
// in the comparison experiment; here a smoke test of attachment).
func TestCustomProtocolPortable(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096, Seed: 1})
	st := stache.New(stache.WithMigratory())
	sys := New(m, st)
	if sys == nil {
		t.Fatal("nil system")
	}
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	if _, err := m.Run(func(p *machine.Proc) {
		for i := 0; i < 5; i++ {
			if i%2 == p.ID() {
				v := p.ReadU64(seg.At(0))
				p.WriteU64(seg.At(0), v+1)
			}
			p.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := apps.ReadBackU64(m, seg.At(0)); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

// TestBarrierAbsorbsStealsInLastQuantum: handler cycles stolen while a
// processor runs its last quantum before a barrier are paid before it
// arrives, not leaked past the barrier. Node 0's last quantum starts at
// cycle 555 (a 55-cycle cold private read, then a 500-cycle compute that
// yields); its Compute(63) and the barrier's 1-cycle charge reach 619,
// crossing the quantum. Node 1's read, issued at cycle 160, lands its
// GETS on node 0 inside [555, 619), so only the yield on the barrier's
// charge lets that handler run, and steal, before the absorption.
func TestBarrierAbsorbsStealsInLastQuantum(t *testing.T) {
	m, _ := newBlizzard(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	priv := m.AllocPrivate(0, mem.PageSize)
	var cost sim.Time
	if _, err := m.Run(func(p *machine.Proc) {
		if p.ID() == 1 {
			p.Compute(160)
			p.ReadU64(seg.At(0)) // the home serves a GETS
			p.Barrier()
			return
		}
		p.ReadU64(priv)
		p.Compute(500)
		p.Compute(63)
		p.Barrier()
		t0 := p.Ctx.Time()
		p.ReadU64(priv) // private hit: 1 cycle, unless a steal leaked past the barrier
		cost = p.Ctx.Time() - t0
	}); err != nil {
		t.Fatal(err)
	}
	if cost != 1 {
		t.Errorf("first reference after the barrier cost %d, want 1: stolen cycles leaked past it", cost)
	}
}
