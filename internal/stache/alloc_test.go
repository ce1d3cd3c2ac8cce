package stache

import (
	"testing"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/vm"
)

// TestAllocFreeOverflowedInvalidation locks the zero-allocation property
// of the invalidation fan-out at the sharer set's worst case: a block
// with more than six sharers, whose set has overflowed to a bit vector.
// Each run, fifteen remote nodes read the block and the home then writes
// it, invalidating all fifteen. The fan-out walks the set in place and
// the overflow vector comes back from the home's pool, so after the
// warm-up run nothing allocates. testing.AllocsPerRun counts the whole
// process, so every node's handlers are inside the count.
func TestAllocFreeOverflowedInvalidation(t *testing.T) {
	const nodes, runs = 16, 50
	m, st := newM(t, nodes)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	var allocs float64
	res := run(t, m, st, func(p *machine.Proc) {
		if p.ID() != 0 {
			for i := 0; i <= runs; i++ {
				p.ReadU64(seg.At(0))
				p.Barrier()
				p.Barrier() // the home writes
			}
			return
		}
		allocs = testing.AllocsPerRun(runs, func() {
			p.Barrier() // the sharers read
			p.WriteU64(seg.At(0), 1)
			p.Barrier()
		})
	})
	if inv := res.Counters.Get("stache.invals_sent"); inv < (nodes-1)*runs {
		t.Fatalf("%d invalidations in %d runs; want at least %d per run", inv, runs, nodes-1)
	}
	if allocs != 0 {
		t.Errorf("write invalidating %d sharers allocates %.1f times per run, want 0", nodes-1, allocs)
	}
}
