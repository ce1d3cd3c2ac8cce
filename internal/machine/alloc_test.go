package machine

import (
	"testing"

	"github.com/tempest-sim/tempest/internal/mem"
)

// TestAllocFreeCacheHit asserts the flattened reference fast path — one
// instruction cycle, TLB lookup, cached translation, cache probe hit,
// DRAM read — allocates nothing. Cache hits dominate every workload in
// the paper, so an allocation here would dwarf everything else the
// simulator does.
func TestAllocFreeCacheHit(t *testing.T) {
	m, _ := newFlat(Config{Nodes: 1, CacheSize: 4096, Seed: 1, Quantum: MaxCycles})
	va := m.AllocPrivate(0, mem.PageSize)

	var allocs float64
	if _, err := m.Run(func(p *Proc) {
		p.WriteU64(va, 42) // warm the TLB, translation cache, and cache line
		if got := p.ReadU64(va); got != 42 {
			t.Errorf("read back %d, want 42", got)
			return
		}
		allocs = testing.AllocsPerRun(200, func() {
			p.ReadU64(va)
		})
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if allocs != 0 {
		t.Errorf("cache-hit reference allocates %.1f times per run, want 0", allocs)
	}
}
