package dirnnb

import (
	"testing"
	"unsafe"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/vm"
)

// These guards lock the zero-allocation property of the directory's
// miss path: a directory entry is a fixed-size value, a transaction is
// recycled, and the invalidation fan-out walks the sharer set in place.
// testing.AllocsPerRun counts every allocation in the process while the
// measured function runs, so the home agent's and the sharers' handlers
// are inside the count along with the requesting processor.

// TestAllocFreeRemoteReadMiss measures a remote read-miss round trip:
// request to the home, directory evaluation, reply, fill. Each run reads
// a fresh block of the same page, so every run misses.
func TestAllocFreeRemoteReadMiss(t *testing.T) {
	m, _ := newM(t, 2)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	var allocs float64
	var misses int
	run(t, m, func(p *machine.Proc) {
		if p.ID() != 1 {
			return
		}
		next := 0
		read := func() {
			p.ReadU64(seg.At(uint64(next * mem.DefaultBlockSize)))
			next++
		}
		read() // warm the TLB and the page's directory entries
		allocs = testing.AllocsPerRun(100, read)
		misses = next
	})
	if misses < 100 {
		t.Fatalf("measured %d reads; the measurement exercised nothing", misses)
	}
	if allocs != 0 {
		t.Errorf("remote read miss allocates %.1f times per run, want 0", allocs)
	}
}

// TestAllocFreeWriteInvalidatesSharers measures a write that must
// invalidate three remote sharers. Each run, nodes 2–4 read the block
// (the first read recalls node 1's dirty copy), then node 1 writes it
// again: an upgrade whose transaction fans out three invalidations and
// collects three acks before the home replies.
func TestAllocFreeWriteInvalidatesSharers(t *testing.T) {
	const runs = 50
	m, _ := newM(t, 5)
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	var allocs float64
	res := run(t, m, func(p *machine.Proc) {
		if p.ID() == 1 {
			p.WriteU64(seg.At(0), 1)
		}
		p.Barrier()
		switch p.ID() {
		case 0:
			for i := 0; i <= runs; i++ {
				p.Barrier()
				p.Barrier()
			}
		case 1:
			allocs = testing.AllocsPerRun(runs, func() {
				p.Barrier() // the sharers read
				p.WriteU64(seg.At(0), 2)
				p.Barrier()
			})
		default:
			for i := 0; i <= runs; i++ {
				p.ReadU64(seg.At(0))
				p.Barrier()
				p.Barrier() // node 1 writes
			}
		}
	})
	if inv := res.Counters.Get("dirnnb.invalidations"); inv < 3*runs {
		t.Fatalf("%d invalidations in %d runs; want at least 3 per run", inv, runs)
	}
	if allocs != 0 {
		t.Errorf("write invalidating three sharers allocates %.1f times per run, want 0", allocs)
	}
}

// TestDirectoryEntrySize: every home frame that is ever asked for gets
// an array of entries, one per block, so an entry stays one full-map
// vector sized for machine.MaxNodes plus an owner — no pointer.
func TestDirectoryEntrySize(t *testing.T) {
	if got, want := unsafe.Sizeof(nodeSet{}), uintptr(machine.MaxNodes/8); got != want {
		t.Errorf("unsafe.Sizeof(nodeSet{}) = %d, want %d", got, want)
	}
	if got, want := unsafe.Sizeof(entry{}), uintptr(machine.MaxNodes/8+8); got != want {
		t.Errorf("unsafe.Sizeof(entry{}) = %d, want %d", got, want)
	}
}
