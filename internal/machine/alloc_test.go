package machine

import (
	"reflect"
	"testing"

	"github.com/tempest-sim/tempest/internal/cache"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/vm"
)

// TestAllocFreeCacheHit asserts the flattened reference fast path — one
// instruction cycle, TLB lookup, page-table lookup, cache probe hit,
// DRAM read — allocates nothing. Cache hits dominate every workload in
// the paper, so an allocation here would dwarf everything else the
// simulator does. The second measurement cycles over twice as many pages
// as the TLB holds, so every reference is a TLB miss and a FIFO
// replacement on top of the cache hit: that path must not allocate
// either. The cache has a set for each of those pages' lines.
func TestAllocFreeCacheHit(t *testing.T) {
	const pages = 2 * TLBEntries
	m, _ := newFlat(Config{Nodes: 1, CacheSize: pages * CacheWays * 32, Seed: 1, Quantum: MaxCycles})
	va := m.AllocPrivate(0, pages*mem.PageSize)

	var allocs, thrashAllocs float64
	var tlbMisses uint64
	if _, err := m.Run(func(p *Proc) {
		p.WriteU64(va, 42) // warm the TLB and the cache line
		if got := p.ReadU64(va); got != 42 {
			t.Errorf("read back %d, want 42", got)
			return
		}
		allocs = testing.AllocsPerRun(200, func() {
			p.ReadU64(va)
		})

		// One line per page, each in its own cache set.
		page := func(i int) mem.VA { return va + mem.VA(i*mem.PageSize+i*32) }
		for i := 0; i < pages; i++ {
			p.WriteU64(page(i), uint64(i))
		}
		before := p.Stats
		thrashAllocs = testing.AllocsPerRun(50, func() {
			for i := 0; i < pages; i++ {
				p.ReadU64(page(i))
			}
		})
		if p.Stats.CacheMisses != before.CacheMisses {
			t.Errorf("the page-alternating loop missed the cache %d times; it is meant to hit", p.Stats.CacheMisses-before.CacheMisses)
		}
		tlbMisses = p.Stats.TLBMisses - before.TLBMisses
		if refs := p.Stats.Loads - before.Loads; tlbMisses != refs {
			t.Errorf("the page-alternating loop missed the TLB on %d of %d references, want all", tlbMisses, refs)
		}
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if allocs != 0 {
		t.Errorf("cache-hit reference allocates %.1f times per run, want 0", allocs)
	}
	if thrashAllocs != 0 {
		t.Errorf("cache hits with a TLB replacement each allocate %.1f times per %d references, want 0", thrashAllocs, pages)
	}
}

// TestReferencePathDeclaresNoMaps keeps the reference path hash-free the
// way AllocsPerRun keeps it allocation-free: none of the structures a
// simulated reference goes through — TLB, cache, frame pool, frame, page
// table, page record, the processor itself — may declare a map field.
// They are indexed by the page, frame and set numbers their keys already
// are, and the TLB finds a page through the hint in its record
// (DESIGN.md §6).
func TestReferencePathDeclaresNoMaps(t *testing.T) {
	for _, v := range []any{cache.TLB{}, cache.Cache{}, mem.Memory{}, mem.Frame{}, vm.PageTable{}, vm.Record{}, Proc{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type.Kind() == reflect.Map {
				t.Errorf("%s.%s is a %s: the reference path indexes, it does not hash", typ, f.Name, f.Type)
			}
		}
	}
}
