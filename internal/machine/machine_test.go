package machine

import (
	"strings"
	"testing"

	"github.com/tempest-sim/tempest/internal/cache"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stats"
	"github.com/tempest-sim/tempest/internal/vm"
)

// flatSys is a minimal memory system: every shared page is eagerly homed
// and globally mapped; misses cost the local miss latency.
type flatSys struct {
	m *Machine
	c *stats.Counters
}

func newFlat(cfg Config) (*Machine, *flatSys) {
	m := New(cfg)
	s := &flatSys{m: m, c: stats.NewCounters()}
	m.SetMemSystem(s)
	return m, s
}

func (s *flatSys) Name() string              { return "flat" }
func (s *flatSys) Counters() *stats.Counters { return s.c }
func (s *flatSys) SetupSegment(seg *vm.Segment) {
	for i := 0; i < seg.Pages(); i++ {
		va := seg.Base + mem.VA(i*mem.PageSize)
		home := s.m.VM.Home(va)
		pa := s.m.Mems[home].AllocFrame(mem.TagReadWrite)
		for n := 0; n < s.m.Cfg.Nodes; n++ {
			s.m.VM.Table(n).Map(va.VPN(), vm.PTE{PA: pa, Writable: true, Mode: seg.Mode})
		}
	}
}
func (s *flatSys) PageFault(p *Proc, va mem.VA, write bool) {
	panic("flatSys: page fault")
}
func (s *flatSys) ServiceMiss(p *Proc, va mem.VA, pa mem.PA, pte vm.PTE, write, upgrade bool) cache.LineState {
	p.Ctx.Advance(LocalMissCycles)
	s.c.Add("flat.misses", 1)
	return cache.LineExclusive
}
func (s *flatSys) Evicted(p *Proc, victim mem.PA, state cache.LineState) {}

// TestTable2Defaults pins the paper's Table 2 simulation parameters: the
// constants and the defaults of the fields some experiment varies.
func TestTable2Defaults(t *testing.T) {
	cfg := DefaultConfig()
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"nodes", uint64(cfg.Nodes), 32},
		{"cache ways", CacheWays, 4},
		{"block size", uint64(cfg.BlockSize), 32},
		{"TLB entries", TLBEntries, 64},
		{"page size", uint64(mem.PageSize), 4096},
		{"local miss", uint64(LocalMissCycles), 29},
		{"TLB miss", uint64(TLBMissCycles), 25},
		{"network latency", uint64(cfg.NetLatency), 11},
		{"barrier latency", uint64(BarrierLatency), 11},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (Table 2)", c.name, c.got, c.want)
		}
	}
}

func TestRunRequiresMemSystem(t *testing.T) {
	m := New(Config{Nodes: 1, CacheSize: 4096})
	if _, err := m.Run(func(p *Proc) {}); err == nil {
		t.Fatal("Run without a memory system must fail")
	}
}

func TestRunTwiceFails(t *testing.T) {
	m, _ := newFlat(Config{Nodes: 1, CacheSize: 4096})
	if _, err := m.Run(func(p *Proc) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(func(p *Proc) {}); err == nil {
		t.Fatal("second Run must fail")
	}
}

func TestAllocSharedNormalisesMode(t *testing.T) {
	m, _ := newFlat(Config{Nodes: 2, CacheSize: 4096})
	seg := m.AllocShared("x", 100, vm.RoundRobin{}, 0)
	if seg.Mode != vm.ModeUser {
		t.Fatalf("mode = %d, want normalised to %d", seg.Mode, vm.ModeUser)
	}
}

func TestReferencePathCharges(t *testing.T) {
	m, _ := newFlat(Config{Nodes: 1, CacheSize: 4096})
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	res, err := m.Run(func(p *Proc) {
		t0 := p.Ctx.Time()
		p.ReadU64(seg.At(0)) // 1 + TLB 25 + miss 29
		if d := p.Ctx.Time() - t0; d != 55 {
			t.Errorf("cold read = %d, want 55", d)
		}
		t0 = p.Ctx.Time()
		p.ReadU64(seg.At(8)) // same block: 1
		if d := p.Ctx.Time() - t0; d != 1 {
			t.Errorf("hit = %d, want 1", d)
		}
		p.WriteU64(seg.At(16), 7) // Exclusive fill: a write hit
		p.Compute(10)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get("cpu.loads") != 2 {
		t.Errorf("loads = %d", res.Counters.Get("cpu.loads"))
	}
	if res.Counters.Get("cpu.stores") != 1 {
		t.Errorf("stores = %d, want 1", res.Counters.Get("cpu.stores"))
	}
	if res.Counters.Get("cpu.compute_cycles") != 10 {
		t.Errorf("compute = %d", res.Counters.Get("cpu.compute_cycles"))
	}
	if res.Counters.Get("flat.misses") != 1 {
		t.Errorf("misses = %d", res.Counters.Get("flat.misses"))
	}
}

func TestROIWindow(t *testing.T) {
	m, _ := newFlat(Config{Nodes: 2, CacheSize: 4096})
	res, err := m.Run(func(p *Proc) {
		p.Compute(100) // setup, not measured
		p.Barrier()
		p.ROIStart()
		p.Compute(50)
		p.ROIEnd()
		p.Compute(500) // teardown, not measured
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ROICycles >= res.Cycles {
		t.Fatalf("ROI %d not smaller than total %d", res.ROICycles, res.Cycles)
	}
	if res.ROICycles != 50 {
		t.Fatalf("ROI = %d, want 50", res.ROICycles)
	}
}

func TestBarrierLatencyCharged(t *testing.T) {
	m, _ := newFlat(Config{Nodes: 2, CacheSize: 4096})
	if _, err := m.Run(func(p *Proc) {
		t0 := p.Ctx.Time()
		p.Barrier()
		// 1 instruction + 11 release latency (both arrive at ~0).
		if d := p.Ctx.Time() - t0; d < 12 {
			t.Errorf("barrier cost %d, want >= 12", d)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPrivateMemoryIsPerNode(t *testing.T) {
	m, _ := newFlat(Config{Nodes: 2, CacheSize: 4096})
	va0 := m.AllocPrivate(0, 64)
	va1 := m.AllocPrivate(1, 64)
	if _, err := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.WriteU64(va0, 111)
		} else {
			p.WriteU64(va1, 222)
		}
	}); err != nil {
		t.Fatal(err)
	}
	pa0, _, _ := m.VM.Translate(0, va0)
	pa1, _, _ := m.VM.Translate(1, va1)
	if m.Mems[0].ReadU64(pa0) != 111 || m.Mems[1].ReadU64(pa1) != 222 {
		t.Fatal("private values wrong")
	}
}

func TestLivelockGuardFires(t *testing.T) {
	m := New(Config{Nodes: 1, CacheSize: 4096})
	s := &retrySys{flatSys{m: m, c: stats.NewCounters()}}
	m.SetMemSystem(s)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	_, err := m.Run(func(p *Proc) {
		p.ReadU64(seg.At(0))
	})
	if err == nil {
		t.Fatal("expected livelock diagnostic")
	}
}

// retrySys always asks for a retry, triggering the livelock guard.
type retrySys struct{ flatSys }

func (s *retrySys) ServiceMiss(p *Proc, va mem.VA, pa mem.PA, pte vm.PTE, write, upgrade bool) cache.LineState {
	p.Ctx.Advance(1)
	return cache.LineInvalid
}

// TestValidateBoundsCycleFields: a cycle count arrives unsigned, so a
// wrapped −1 is 2^64−1 — a value the engine's arithmetic runs to a
// verified result on. Every cycle-valued field is refused above
// MaxCycles and accepted at it.
func TestValidateBoundsCycleFields(t *testing.T) {
	fields := map[string]func(*Config) *sim.Time{
		"NetLatency":      func(c *Config) *sim.Time { return &c.NetLatency },
		"OccupancyCycles": func(c *Config) *sim.Time { return &c.OccupancyCycles },
		"Quantum":         func(c *Config) *sim.Time { return &c.Quantum },
	}
	for name, field := range fields {
		for _, tc := range []struct {
			v  sim.Time
			ok bool
		}{{MaxCycles, true}, {MaxCycles + 1, false}, {^sim.Time(0), false}} {
			cfg := DefaultConfig()
			*field(&cfg) = tc.v
			if err := cfg.Validate(); (err == nil) != tc.ok {
				t.Errorf("%s = %d: Validate() = %v, want ok=%v", name, tc.v, err, tc.ok)
			}
		}
	}
}

// TestValidateBoundsGeometry: New sizes allocations from Nodes and
// CacheSize, and both arrive over the wire. Each is
// accepted at its bound and refused above it by an error naming the
// field — before New gets to ask the host for the memory.
func TestValidateBoundsGeometry(t *testing.T) {
	for _, f := range []struct {
		name  string
		field func(*Config) *int
		max   int
	}{
		{"nodes", func(c *Config) *int { return &c.Nodes }, MaxNodes},
		{"cache size", func(c *Config) *int { return &c.CacheSize }, MaxCacheBytes},
	} {
		for _, tc := range []struct {
			v  int
			ok bool
		}{{f.max, true}, {f.max + f.max, false}, {1 << 40, false}, {1 << 50, false}} {
			cfg := DefaultConfig()
			*f.field(&cfg) = tc.v
			err := cfg.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("%s = %d: Validate() = %v, want ok=%v", f.name, tc.v, err, tc.ok)
			}
			if err != nil && !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %d: error %q does not name the field", f.name, tc.v, err)
			}
		}
	}
}

// TestValidateWantsPowerOfTwoSets: the cache finds a set by shift and
// mask, so a geometry whose set count is not a power of two is refused
// here, by an error naming the three numbers and the count they make.
func TestValidateWantsPowerOfTwoSets(t *testing.T) {
	for _, tc := range []struct {
		size, block int
		want        string // "" = accepted
	}{
		{12 << 10, 32, "cache size 12288 in 4-way sets of 32-byte blocks makes 96 sets, which is not a power of two"},
		{4096, 1024, ""},
		{64 << 10, 32, ""},
	} {
		cfg := DefaultConfig()
		cfg.CacheSize, cfg.BlockSize = tc.size, tc.block
		switch err := cfg.Validate(); {
		case tc.want == "" && err != nil:
			t.Errorf("%d/%d: Validate() = %v, want accepted", tc.size, tc.block, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%d/%d: Validate() = %v, want %q", tc.size, tc.block, err, tc.want)
		}
	}
}

// TestCacheLineHoldsTheLargestPA: a cache line is one word, block<<2 |
// state, which is lossless only while no physical address reaches 2^48
// over the smallest block. The largest address MaxNodes allows comes
// back from an eviction as the block it went in as.
func TestCacheLineHoldsTheLargestPA(t *testing.T) {
	top := mem.MakePA(MaxNodes-1, 1<<40-1)
	if top >= 1<<48 {
		t.Fatalf("largest PA %#x needs more than 48 bits", top)
	}
	c := cache.New(8, 1, 8, 1) // one 8-byte line: the next fill evicts
	c.Fill(top, cache.LineExclusive)
	if st := c.Lookup(top); st != cache.LineExclusive {
		t.Fatalf("Lookup(%#x) = %v after Fill", top, st)
	}
	if victim, st := c.Fill(0, cache.LineShared); victim != top&^7 || st != cache.LineExclusive {
		t.Fatalf("evicted (%#x, %v), want (%#x, Exclusive)", victim, st, top&^7)
	}
}

// TestHitCheckChargesLikeAdvance pins the inlined hit check in access to
// the charges of the reference path it short-cuts: one cycle through
// Advance(1), then any stolen cycles, then the per-reference overhead.
func TestHitCheckChargesLikeAdvance(t *testing.T) {
	// run has both processors warm one line each (a miss), then make
	// 300 references to it through ref, logging every step in host
	// order. A quantum yield shows in the log as the other processor's
	// steps cutting in.
	type step struct {
		node, i int
		at      sim.Time
	}
	run := func(ref func(p *Proc, va mem.VA)) ([]step, uint64) {
		m, _ := newFlat(Config{Nodes: 2, CacheSize: 4096})
		seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
		var log []step
		res, err := m.Run(func(p *Proc) {
			va := seg.At(uint64(p.ID()) * 64)
			p.ReadU64(va)
			for i := 0; i < 300; i++ {
				ref(p, va)
				log = append(log, step{p.ID(), i, p.Ctx.Time()})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return log, res.Counters.Get("engine.goroutine_switches")
	}
	hits, hitSwitches := run(func(p *Proc, va mem.VA) { p.ReadU64(va) })
	ticks, tickSwitches := run(func(p *Proc, va mem.VA) { p.Ctx.Advance(1) })
	if hitSwitches != tickSwitches {
		t.Errorf("resident hits made %d context switches, Advance(1) %d", hitSwitches, tickSwitches)
	}
	if len(hits) != len(ticks) {
		t.Fatalf("logged %d steps with hits, %d with Advance(1)", len(hits), len(ticks))
	}
	for i := range ticks {
		if hits[i] != ticks[i] {
			t.Fatalf("step %d of the host-order log: hits %+v, Advance(1) %+v", i, hits[i], ticks[i])
		}
	}

	// hitCost is the cycles of one hit on a warm line after prep runs.
	hitCost := func(prep func(m *Machine)) sim.Time {
		m, _ := newFlat(Config{Nodes: 1, CacheSize: 4096})
		seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
		var d sim.Time
		if _, err := m.Run(func(p *Proc) {
			p.ReadU64(seg.At(0))
			prep(m)
			t0 := p.Ctx.Time()
			p.WriteU64(seg.At(8), 1)
			d = p.Ctx.Time() - t0
		}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	if d := hitCost(func(m *Machine) { m.PerRefOverhead = 3 }); d != 1+3 {
		t.Errorf("hit with a 3-cycle per-reference overhead cost %d cycles, want 4", d)
	}
	if d := hitCost(func(m *Machine) { m.StealCycles(0, 7) }); d != 1+7 {
		t.Errorf("hit with 7 stolen cycles pending cost %d cycles, want 8", d)
	}
	if d := hitCost(func(*Machine) {}); d != 1 {
		t.Errorf("hit cost %d cycles, want 1", d)
	}
}
