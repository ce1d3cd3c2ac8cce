package cache

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/vm"
)

func TestTLBFIFOReplacement(t *testing.T) {
	tlb := NewTLB(4)
	hints := make([]uint16, 5)
	for pn := uint64(0); pn < 4; pn++ {
		if tlb.Lookup(pn, &hints[pn]) {
			t.Fatalf("cold lookup of %d hit", pn)
		}
	}
	for pn := uint64(0); pn < 4; pn++ {
		if !tlb.Lookup(pn, &hints[pn]) {
			t.Fatalf("warm lookup of %d missed", pn)
		}
	}
	// Insert a 5th entry: FIFO evicts pn 0 (oldest), not the LRU-est.
	tlb.Lookup(4, &hints[4])
	if tlb.find(0, hints[0]) >= 0 {
		t.Fatal("FIFO should have evicted page 0")
	}
	if tlb.find(1, hints[1]) < 0 || tlb.find(4, hints[4]) < 0 {
		t.Fatal("wrong entry evicted")
	}
	// Page 4 took page 0's slot, so page 0's stale hint names page 4.
	if hints[0] != hints[4] {
		t.Fatalf("page 4 went to slot %d, not to page 0's %d", hints[4]-1, hints[0]-1)
	}
}

func TestTLBInvalidateEntry(t *testing.T) {
	tlb := NewTLB(4)
	var hint uint16
	tlb.Lookup(7, &hint)
	tlb.InvalidateEntry(7, hint)
	if tlb.find(7, hint) >= 0 {
		t.Fatal("entry survived invalidation")
	}
	if tlb.Lookup(7, &hint) {
		t.Fatal("lookup after invalidation must miss")
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(8)
	var hint uint16
	if tlb.Lookup(1, &hint) || !tlb.Lookup(1, &hint) {
		t.Fatal("want a miss, then a hit")
	}
	tlb.Flush()
	if tlb.find(1, hint) >= 0 {
		t.Fatal("flush left entries")
	}
	if tlb.Lookup(1, &hint) {
		t.Fatal("lookup after flush must miss")
	}
}

// refTLB is the TLB's specification written the obvious way: a slice of
// slots scanned on every operation, FIFO pointer and all, with no hints.
type refTLB struct {
	slots []uint64
	valid []bool
	fifo  int
	hits  int // lookups that hit, so a stream that never hits fails
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{slots: make([]uint64, capacity), valid: make([]bool, capacity)}
}

func (r *refTLB) find(pn uint64) int {
	for i, s := range r.slots {
		if r.valid[i] && s == pn {
			return i
		}
	}
	return -1
}

func (r *refTLB) lookup(pn uint64) bool {
	if r.find(pn) >= 0 {
		r.hits++
		return true
	}
	r.slots[r.fifo], r.valid[r.fifo] = pn, true
	r.fifo = (r.fifo + 1) % len(r.slots)
	return false
}

func (r *refTLB) invalidate(pn uint64) {
	if i := r.find(pn); i >= 0 {
		r.valid[i] = false
	}
}

// tlbRig drives a CPU-style TLB, hinted by the page records of a real
// page table, and an RTLB-style one, keyed by frame base and hinted by a
// slice by frame number, beside a refTLB each. Mapping operations go
// through vm and mem exactly as protocols make them, and reserving more
// address space moves every record, so the rig checks what the
// simulator relies on: that no Map, Unmap, table growth, free or reuse
// loses a resident page's hint.
type tlbRig struct {
	tb         testing.TB
	node       int
	m          *mem.Memory
	sys        *vm.System
	pt         *vm.PageTable
	vpns       []uint64
	frames     int // frame budget: RTLB keys are the frame bases below it
	cpu, rtlb  *TLB
	cpuRef     *refTLB
	rtlbRef    *refTLB
	frameHints []uint16
	step       int
}

func newTLBRig(tb testing.TB, capacity int) *tlbRig {
	const node = 3
	pages := 2*capacity + 3
	mems := make([]*mem.Memory, node+1)
	for i := range mems {
		mems[i] = mem.New(i, mem.Config{})
	}
	sys := vm.NewSystem(mems)
	seg := sys.AllocShared("tlb", uint64(pages)*mem.PageSize, vm.OnNode{Node: node}, vm.ModeUser)
	r := &tlbRig{
		tb: tb, node: node, m: mems[node], sys: sys, pt: sys.Table(node),
		frames: pages/2 + 1,
		cpu:    NewTLB(capacity), rtlb: NewTLB(capacity),
		cpuRef: newRefTLB(capacity), rtlbRef: newRefTLB(capacity),
	}
	r.frameHints = make([]uint16, r.frames)
	for i := 0; i < pages; i++ {
		r.vpns = append(r.vpns, seg.At(uint64(i)*mem.PageSize).VPN())
	}
	return r
}

// op applies operation kind%11 to page or frame arg and checks both TLBs
// against their models: return value, FIFO pointer and every slot.
func (r *tlbRig) op(kind, arg int) {
	r.step++
	vpn := r.vpns[arg%len(r.vpns)]
	frameBase := mem.MakePA(r.node, uint64(arg%r.frames)*mem.PageSize)
	var got, want bool
	switch kind % 11 {
	case 0, 1, 2:
		got, want = r.cpu.Lookup(vpn, &r.pt.Record(vpn).CPUHint), r.cpuRef.lookup(vpn)
	case 3:
		got, want = r.cpu.find(vpn, r.pt.Record(vpn).CPUHint) >= 0, r.cpuRef.find(vpn) >= 0
	case 4:
		r.cpu.InvalidateEntry(vpn, r.pt.Record(vpn).CPUHint)
		r.cpuRef.invalidate(vpn)
	case 5:
		r.cpu.Flush()
		clear(r.cpuRef.valid)
	case 6: // map or remap vpn to a fresh frame, or to a live one when all r.frames are in use
		var pa mem.PA
		if r.m.FramesInUse() < r.frames {
			pa = r.m.AllocFrame(mem.TagReadWrite)
		} else {
			pa = r.liveFrame(arg)
		}
		r.pt.Map(vpn, vm.PTE{PA: pa, Writable: true, Mode: vm.ModeUser})
	case 7: // unmap, and free the frame once no page maps it
		if pte, ok := r.pt.Unmap(vpn); ok && r.m.Frame(pte.PA).Mapped() == 0 {
			r.m.FreeFrame(pte.PA)
		}
	case 8:
		fn := frameBase.Offset() / mem.PageSize
		got, want = r.rtlb.Lookup(uint64(frameBase), &r.frameHints[fn]), r.rtlbRef.lookup(uint64(frameBase))
	case 9:
		fn := frameBase.Offset() / mem.PageSize
		r.rtlb.InvalidateEntry(uint64(frameBase), r.frameHints[fn])
		r.rtlbRef.invalidate(uint64(frameBase))
	case 10: // reserve one more page: the table grows and its records move
		r.sys.AllocShared("more", mem.PageSize, vm.OnNode{Node: r.node}, vm.ModeUser)
	}
	if got != want {
		r.tb.Fatalf("step %d: op %d on page %#x / frame %#x returned %v, the model %v", r.step, kind%11, vpn, frameBase, got, want)
	}
	for _, p := range [...]struct {
		name string
		tlb  *TLB
		ref  *refTLB
	}{{"CPU TLB", r.cpu, r.cpuRef}, {"RTLB", r.rtlb, r.rtlbRef}} {
		if p.tlb.fifo != p.ref.fifo || !slices.Equal(p.tlb.slots, p.ref.slots) || !slices.Equal(p.tlb.valid, p.ref.valid) {
			r.tb.Fatalf("step %d after op %d on page %#x / frame %#x: %s fifo %d slots %#x valid %v; the model %d %#x %v",
				r.step, kind%11, vpn, frameBase, p.name, p.tlb.fifo, p.tlb.slots, p.tlb.valid,
				p.ref.fifo, p.ref.slots, p.ref.valid)
		}
	}
}

// liveFrame returns some allocated frame, counting from arg.
func (r *tlbRig) liveFrame(arg int) mem.PA {
	for i := range r.frames {
		if pa := mem.MakePA(r.node, uint64((arg+i)%r.frames)*mem.PageSize); r.m.Frame(pa) != nil {
			return pa
		}
	}
	r.tb.Fatalf("step %d: out of frames with none allocated", r.step)
	return 0
}

// TestTLBMatchesReferenceModel drives the hinted TLBs and the scanning
// model with one random stream of lookups, residency checks,
// invalidations, flushes, maps, remaps, unmaps and frame frees and
// reuses, and demands identical results and slot contents after every
// operation.
func TestTLBMatchesReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 16, 64} {
		r := newTLBRig(t, capacity)
		rng := rand.New(rand.NewSource(int64(capacity)))
		for range 6000 {
			r.op(rng.Intn(11), rng.Intn(1<<16))
		}
		if r.cpuRef.hits == 0 || r.rtlbRef.hits == 0 || r.m.FramesInUse() == 0 {
			t.Errorf("capacity %d: %d CPU and %d RTLB hits, %d frames in use: the stream exercised too little",
				capacity, r.cpuRef.hits, r.rtlbRef.hits, r.m.FramesInUse())
		}
	}
}

// FuzzTLB turns bytes into the same operations against the same models.
// The first byte picks the capacity (1–16); then an operation is two
// bytes, kind and the page or frame it applies to (see tlbRig.op).
func FuzzTLB(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})                                            // one slot, one page twice
	f.Add([]byte{3, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 1, 0, 2})              // thrash four slots with five pages
	f.Add([]byte{3, 6, 1, 0, 1, 10, 0, 0, 1, 7, 1, 0, 1, 6, 2, 0, 1, 0, 2}) // map, grow the table, unmap and free, remap elsewhere
	f.Add([]byte{2, 8, 0, 8, 1, 8, 2, 9, 1, 8, 1, 8, 0, 5, 0})              // RTLB keys, invalidate, reinsert
	f.Add([]byte{7, 0, 9, 4, 9, 0, 9, 3, 9, 6, 9, 0, 9, 7, 9})              // invalidate, reinsert, then map and unmap a resident page
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		r := newTLBRig(t, int(ops[0])%16+1)
		for ops = ops[1:]; len(ops) >= 2; ops = ops[2:] {
			r.op(int(ops[0]), int(ops[1]))
		}
	})
}
