package typhoon

import (
	"testing"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/vm"
)

// These guards lock the zero-allocation property of the inline NP
// dispatch fast path — the engine invokes the dispatch loop's step
// function on the scheduler goroutine, so any allocation here lands on
// the hottest loop in the simulator. One step is one protocol dispatch:
// a message handler, a block-access-fault handler, or a bulk chunk.

// TestAllocFreeMessageDispatch measures a full user-level message
// round trip in steady state: CPU send, NP dispatch + handler on the
// remote node, reply dispatch + handler back home. Packets are pooled
// and handlers run inline, so the whole exchange must not allocate.
func TestAllocFreeMessageDispatch(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096, Seed: 1})
	sys := New(m, &nullProto{})
	const hPing = HandlerUserBase + 1
	const hPong = HandlerUserBase + 2
	sys.RegisterHandler(hPing, func(np *NP, pkt *network.Packet) {
		np.Charge(3)
		np.SendReply(pkt.Src, hPong, pkt.Args[:1], nil)
	})
	pongs := 0
	sys.RegisterHandler(hPong, func(np *NP, pkt *network.Packet) {
		pongs++
	})
	args := []uint64{21}
	var allocs float64
	if _, err := m.Run(func(p *machine.Proc) {
		if p.ID() != 0 {
			return
		}
		allocs = testing.AllocsPerRun(100, func() {
			sys.Send(p, network.VNetRequest, 1, hPing, args, nil)
			p.Ctx.Sleep(100) // let both dispatches complete
		})
	}); err != nil {
		t.Fatal(err)
	}
	if pongs == 0 {
		t.Fatal("no pongs handled; the measurement exercised nothing")
	}
	if allocs != 0 {
		t.Errorf("message round trip allocates %.1f times per run, want 0", allocs)
	}
}

// TestAllocFreeFaultDispatch measures a block-access-fault round trip:
// the CPU's read misses on an invalid tag, the BAF is queued to the NP,
// the fault handler runs inline (grant + Resume), and the read retries.
// Each run faults on a fresh block so the fault path runs every time.
func TestAllocFreeFaultDispatch(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 1, CacheSize: 4096, Seed: 1})
	sys := New(m, &nullProto{})
	_ = sys
	seg := m.AllocShared("x", 2*mem.PageSize, vm.OnNode{Node: 0}, vm.ModeUser)
	m.Mems[0].SetPageTags(mem.MakePA(0, 0), mem.TagInvalid)
	m.Mems[0].SetPageTags(mem.MakePA(0, 1), mem.TagInvalid)
	var allocs float64
	if _, err := m.Run(func(p *machine.Proc) {
		next := 0
		read := func() {
			p.ReadU64(seg.At(uint64(next * mem.DefaultBlockSize)))
			next++
		}
		read() // warm the TLB
		allocs = testing.AllocsPerRun(100, read)
	}); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("fault round trip allocates %.1f times per run, want 0", allocs)
	}
}

// TestAllocFreeBulkChunkDispatch measures the marginal allocation cost
// of one bulk-transfer chunk. Initiating a transfer allocates (the Bulk
// handle, the queue entry, the arrival event), so the guard compares a
// long transfer against a short one: the extra chunks — source-side
// chunk sends, destination-side data handlers, all dispatched inline —
// must not allocate at all.
func TestAllocFreeBulkChunkDispatch(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096, Seed: 1})
	sys := New(m, &nullProto{})
	srcVA := m.AllocPrivate(0, mem.PageSize)
	dstVA := m.AllocPrivate(1, mem.PageSize)
	const runs = 20
	const shortChunks, longChunks = 4, 36
	var short, long float64
	if _, err := m.Run(func(p *machine.Proc) {
		if p.ID() != 0 {
			return
		}
		transfer := func(chunks int) func() {
			n := chunks * BulkChunkBytes
			return func() {
				b := sys.BulkTransfer(p, 1, srcVA, dstVA, n)
				b.Wait(p)
			}
		}
		short = testing.AllocsPerRun(runs, transfer(shortChunks))
		long = testing.AllocsPerRun(runs, transfer(longChunks))
	}); err != nil {
		t.Fatal(err)
	}
	if perChunk := (long - short) / (longChunks - shortChunks); perChunk != 0 {
		t.Errorf("bulk chunk allocates %.2f times per chunk, want 0 (short transfer %.1f, long %.1f per run)",
			perChunk, short, long)
	}
}
