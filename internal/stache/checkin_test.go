package stache

import (
	"testing"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/typhoon"
	"github.com/tempest-sim/tempest/internal/vm"
)

func TestCheckInReturnsDirtyBlock(t *testing.T) {
	m, st := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	res := run(t, m, st, func(p *machine.Proc) {
		if p.ID() == 1 {
			p.WriteU64(seg.At(0), 321) // node 1 owns the block
			st.CheckIn(p, seg.At(0))
			p.Ctx.Sleep(100)
		}
		p.Barrier()
		if p.ID() == 0 {
			// The home read must now be LOCAL: no recall round trip.
			t0 := p.Ctx.Time()
			if got := p.ReadU64(seg.At(0)); got != 321 {
				t.Errorf("value = %d", got)
			}
			if d := p.Ctx.Time() - t0; d > 60 {
				t.Errorf("home read after check-in cost %d; recall not avoided", d)
			}
		}
	})
	if res.Counters.Get("stache.checkins") != 1 {
		t.Errorf("checkins = %d", res.Counters.Get("stache.checkins"))
	}
}

func TestCheckInDropsCleanCopy(t *testing.T) {
	m, st := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	run(t, m, st, func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteU64(seg.At(0), 5)
		}
		p.Barrier()
		if p.ID() == 1 {
			p.ReadU64(seg.At(0)) // RO copy
			st.CheckIn(p, seg.At(0))
			p.Ctx.Sleep(100)
		}
		p.Barrier()
		if p.ID() == 0 {
			// Writing at home needs no invalidation round trip now.
			t0 := p.Ctx.Time()
			p.WriteU64(seg.At(0), 6)
			if d := p.Ctx.Time() - t0; d > 80 {
				t.Errorf("home write after check-in cost %d; sharer not dropped", d)
			}
		}
	})
}

func TestCheckInOnAbsentBlockIsHarmless(t *testing.T) {
	m, st := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	run(t, m, st, func(p *machine.Proc) {
		if p.ID() == 1 {
			st.CheckIn(p, seg.At(0)) // no copy at all
			p.Ctx.Sleep(50)
			if got := p.ReadU64(seg.At(0)); got != 0 {
				t.Errorf("value = %d", got)
			}
			st.CheckIn(p, seg.At(64)) // page mapped, block Invalid
			p.Ctx.Sleep(50)
		}
	})
}

// TestMigratoryCollapsesRMWRoundTrips: with migratory detection on, a
// ping-ponging read-modify-write block costs one round trip per handoff
// instead of two.
func TestMigratoryCollapsesRMWRoundTrips(t *testing.T) {
	exec := func(opts ...Option) (cycles uint64, grants uint64) {
		m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096, Seed: 1})
		st := New(opts...)
		typhoon.New(m, st)
		seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
		res, err := m.Run(func(p *machine.Proc) {
			for i := 0; i < 20; i++ {
				if i%2 == p.ID() {
					v := p.ReadU64(seg.At(0))
					p.WriteU64(seg.At(0), v+1)
				}
				p.Barrier()
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got := apps2ReadBack(m, seg.At(0)); got != 20 {
			t.Fatalf("counter = %d, want 20", got)
		}
		return uint64(res.ROICycles + res.Cycles), res.Counters.Get("stache.migratory_grants")
	}
	plainCycles, plainGrants := exec()
	migCycles, migGrants := exec(WithMigratory())
	if plainGrants != 0 {
		t.Fatalf("baseline recorded %d migratory grants", plainGrants)
	}
	if migGrants == 0 {
		t.Fatal("migratory detection never fired")
	}
	if migCycles >= plainCycles {
		t.Errorf("migratory (%d) not faster than plain (%d)", migCycles, plainCycles)
	}
}

// TestMigratoryDemotesOnReadSharing: when a migratory block turns out to
// be read-shared, the protocol stops granting exclusively and stays
// correct.
func TestMigratoryDemotesOnReadSharing(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 4, CacheSize: 4096, Seed: 1})
	st := New(WithMigratory())
	typhoon.New(m, st)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	vals := make([]uint64, 4)
	_, err := m.Run(func(p *machine.Proc) {
		// Phase 1: establish the migratory pattern on node 1.
		if p.ID() == 1 {
			for i := 0; i < 3; i++ {
				v := p.ReadU64(seg.At(0))
				p.WriteU64(seg.At(0), v+1)
				p.Barrier()
			}
		} else {
			for i := 0; i < 3; i++ {
				p.Barrier()
			}
		}
		p.Barrier()
		// Phase 2: pure read sharing by everyone, repeatedly.
		for i := 0; i < 5; i++ {
			vals[p.ID()] = p.ReadU64(seg.At(0))
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for n, v := range vals {
		if v != 3 {
			t.Errorf("node %d read %d, want 3", n, v)
		}
	}
}

// TestMigratoryGrantBranches drives a migratory GetS through each
// directory state it can meet — Idle, Exclusive at another node (the
// owner is recalled) and Shared with another sharer (the sharer is
// invalidated) — and pins each step's cycles and the grant, invalidation
// and data-reply counts.
func TestMigratoryGrantBranches(t *testing.T) {
	m, st := newM(t, 4, WithMigratory())
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	a := seg.At(0)
	steps := []struct {
		what  string
		node  int
		write bool
	}{
		{"node 1 reads", 1, false},
		{"node 1 upgrades: the block turns migratory", 1, true},
		{"home writes: recall leaves it Idle", 0, true},
		{"migratory grant from Idle", 2, false},
		{"migratory grant recalls the owner", 3, false},
		{"home reads: downgrade leaves it Shared", 0, false},
		{"migratory grant invalidates the sharer", 1, false},
	}
	took := make([]sim.Time, len(steps))
	res := run(t, m, st, func(p *machine.Proc) {
		for i, s := range steps {
			if p.ID() == s.node {
				t0 := p.Ctx.Time()
				if s.write {
					p.WriteU64(a, uint64(i))
				} else {
					p.ReadU64(a)
				}
				took[i] = p.Ctx.Time() - t0
			}
			p.Barrier()
		}
	})
	want := []sim.Time{403, 94, 169, 325, 411, 144, 192}
	for i, s := range steps {
		if took[i] != want[i] {
			t.Errorf("%s: %d cycles, want %d", s.what, took[i], want[i])
		}
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"stache.migratory_grants", 3},
		{"stache.invals_sent", 4},
		{"stache.data_replies", 4},
	} {
		if got := res.Counters.Get(c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if res.Cycles != 1822 {
		t.Errorf("run took %d cycles, want 1822", res.Cycles)
	}
}

// apps2ReadBack reads a coherent value without importing internal/apps
// (which would create an import cycle with this package's tests).
func apps2ReadBack(m *machine.Machine, va mem.VA) uint64 {
	home := m.VM.Home(va)
	pa, _, _ := m.VM.Translate(home, va)
	if m.Mems[home].Tag(pa) == mem.TagReadWrite {
		return m.Mems[home].ReadU64(pa)
	}
	for n := 0; n < m.Cfg.Nodes; n++ {
		if n == home {
			continue
		}
		if pa2, _, ok := m.VM.Translate(n, va); ok && m.Mems[n].Tag(pa2) == mem.TagReadWrite {
			return m.Mems[n].ReadU64(pa2)
		}
	}
	return m.Mems[home].ReadU64(pa)
}
