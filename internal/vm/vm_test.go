package vm

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/tempest-sim/tempest/internal/mem"
)

// newSystem returns a System over n fresh, unbounded node memories.
func newSystem(n int) (*System, []*mem.Memory) {
	mems := make([]*mem.Memory, n)
	for i := range mems {
		mems[i] = mem.New(i, mem.Config{})
	}
	return NewSystem(mems), mems
}

func TestSharedAllocLayout(t *testing.T) {
	s, _ := newSystem(4)
	a := s.AllocShared("a", 3*mem.PageSize, RoundRobin{}, ModeUser)
	b := s.AllocShared("b", 100, RoundRobin{}, ModeUser)
	if a.Base != SharedBase {
		t.Fatalf("first segment base = %#x", a.Base)
	}
	if b.Base != SharedBase+3*mem.PageSize {
		t.Fatalf("second segment base = %#x, want page-aligned after first", b.Base)
	}
	if a.Pages() != 3 || b.Pages() != 1 {
		t.Fatalf("pages = %d, %d", a.Pages(), b.Pages())
	}
	if !IsShared(a.Base) || IsShared(PrivateBase) {
		t.Fatal("IsShared misclassifies")
	}
}

func TestSegmentAtBounds(t *testing.T) {
	s, _ := newSystem(2)
	seg := s.AllocShared("x", 64, RoundRobin{}, ModeUser)
	if seg.At(0) != seg.Base || seg.At(63) != seg.Base+63 {
		t.Fatal("At arithmetic wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At past end must panic")
		}
	}()
	seg.At(64)
}

func TestRoundRobinHomes(t *testing.T) {
	s, _ := newSystem(4)
	seg := s.AllocShared("rr", 8*mem.PageSize, RoundRobin{}, ModeUser)
	for i := 0; i < 8; i++ {
		home := s.Home(seg.At(uint64(i * mem.PageSize)))
		if home != i%4 {
			t.Fatalf("page %d home = %d, want %d", i, home, i%4)
		}
	}
}

func TestBlockedHomes(t *testing.T) {
	s, _ := newSystem(4)
	seg := s.AllocShared("blk", 8*mem.PageSize, Blocked{}, ModeUser)
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i := 0; i < 8; i++ {
		if home := s.Home(seg.At(uint64(i * mem.PageSize))); home != want[i] {
			t.Fatalf("page %d home = %d, want %d", i, home, want[i])
		}
	}
}

func TestBlockedHomesUneven(t *testing.T) {
	s, _ := newSystem(3)
	seg := s.AllocShared("blk", 7*mem.PageSize, Blocked{}, ModeUser)
	for i := 0; i < 7; i++ {
		home := s.Home(seg.At(uint64(i * mem.PageSize)))
		if home < 0 || home >= 3 {
			t.Fatalf("page %d home = %d out of range", i, home)
		}
	}
	// Last page must land on the last node, not past it.
	if home := s.Home(seg.At(6 * mem.PageSize)); home != 2 {
		t.Fatalf("last page home = %d, want 2", home)
	}
}

func TestOnNodeHomes(t *testing.T) {
	s, _ := newSystem(4)
	seg := s.AllocShared("on2", 3*mem.PageSize, OnNode{Node: 2}, ModeUser)
	for i := 0; i < 3; i++ {
		if home := s.Home(seg.At(uint64(i * mem.PageSize))); home != 2 {
			t.Fatalf("page %d home = %d, want 2", i, home)
		}
	}
}

func TestHomeOfUnallocatedPanics(t *testing.T) {
	s, _ := newSystem(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Home(SharedBase + 0x100000)
}

func TestPageTableMapUnmap(t *testing.T) {
	s, mems := newSystem(2)
	priv, err := s.AllocPrivate(1, 3*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	seg := s.AllocShared("a", 8*mem.PageSize, nil, ModeUser)
	pt := s.Table(1)
	if pt.Mapped() != 3 {
		t.Fatalf("Mapped = %d after a 3-page private allocation", pt.Mapped())
	}
	pa, _ := mems[0].AllocFrame(mem.TagReadWrite)
	pte := PTE{PA: pa, Writable: true, Mode: 5}
	mapAndCheck := func(vpn uint64, wantMapped int) {
		t.Helper()
		pt.Map(vpn, pte)
		if got, ok := pt.Lookup(vpn); !ok || got != pte {
			t.Fatalf("Lookup(%#x) = %+v, %v", vpn, got, ok)
		}
		if _, ok := s.Table(0).Lookup(vpn); ok {
			t.Fatalf("node 0 sees node 1's mapping of %#x", vpn)
		}
		if pt.Mapped() != wantMapped {
			t.Fatalf("Mapped = %d after mapping %#x, want %d", pt.Mapped(), vpn, wantMapped)
		}
	}
	// Two shared pages of eight, then a remap of a private page that
	// replaces what AllocPrivate installed.
	mapAndCheck(seg.At(7*mem.PageSize).VPN(), 4)
	mapAndCheck(seg.At(2*mem.PageSize).VPN(), 5)
	mapAndCheck(priv.VPN()+2, 5)
	for page := uint64(0); page < 8; page++ {
		if _, ok := pt.Lookup(seg.At(page * mem.PageSize).VPN()); ok != (page == 2 || page == 7) {
			t.Fatalf("shared page %d: mapped = %v", page, ok)
		}
	}
	vpn := seg.At(7 * mem.PageSize).VPN()
	pt.Map(vpn, PTE{PA: pte.PA, Mode: 6}) // a remap replaces, it does not add
	if got, _ := pt.Lookup(vpn); got.Mode != 6 || got.Writable || pt.Mapped() != 5 {
		t.Fatalf("after remap: Lookup = %+v, Mapped = %d", got, pt.Mapped())
	}
	old, ok := pt.Unmap(vpn)
	if !ok || old.Mode != 6 {
		t.Fatal("Unmap did not return old entry")
	}
	if _, ok := pt.Lookup(vpn); ok {
		t.Fatal("entry survived unmap")
	}
	if _, ok := pt.Unmap(vpn); ok || pt.Mapped() != 4 {
		t.Fatalf("double unmap: ok = %v, Mapped = %d", ok, pt.Mapped())
	}
	// Addresses no table covers: below, between and beyond the regions.
	for _, vpn := range []uint64{0, 7, PrivateBase.VPN() - 1, priv.VPN() + 3, SharedBase.VPN() - 1, seg.End().VPN(), ^uint64(0) >> 12} {
		if _, ok := pt.Lookup(vpn); ok {
			t.Errorf("Lookup(%#x) found a translation", vpn)
		}
		if _, ok := pt.Unmap(vpn); ok {
			t.Errorf("Unmap(%#x) found a translation", vpn)
		}
	}
}

// TestMapOutsideReservedRangesPanics: the tables are indexed by VPN, so
// a Map the System never reserved must be refused by name — not answered
// by growing a table to wherever the VPN points.
func TestMapOutsideReservedRangesPanics(t *testing.T) {
	s, _ := newSystem(2)
	if _, err := s.AllocPrivate(0, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	seg := s.AllocShared("a", 2*mem.PageSize, nil, ModeUser)
	for name, tc := range map[string]struct {
		node int
		vpn  uint64
	}{
		"below the private heap":        {0, 7},
		"past node 0's private heap":    {0, PrivateBase.VPN() + 1},
		"node 1 has no private heap":    {1, PrivateBase.VPN()},
		"between the regions":           {0, SharedBase.VPN() - 1},
		"past the last shared segment":  {0, seg.End().VPN()},
		"far past it (2^40 pages away)": {0, SharedBase.VPN() + 1<<40},
	} {
		func() {
			defer func() {
				want := fmt.Sprintf("VPN %#x", tc.vpn)
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
					t.Errorf("%s: Map(%#x) panicked with %v, want a panic naming %s", name, tc.vpn, r, want)
				}
			}()
			s.Table(tc.node).Map(tc.vpn, PTE{})
		}()
		if n := s.Table(tc.node).Mapped(); n != 1-tc.node {
			t.Errorf("%s: Mapped = %d after the refused Map", name, n)
		}
	}
}

// TestMapOfUnallocatedPAPanics: a record holds the frame it maps, so a
// Map whose PA no allocated frame holds is refused by name at the Map,
// not found by the first reference through it.
func TestMapOfUnallocatedPAPanics(t *testing.T) {
	s, mems := newSystem(2)
	seg := s.AllocShared("a", 2*mem.PageSize, nil, ModeUser)
	freed, _ := mems[1].AllocFrame(mem.TagReadWrite)
	mems[1].FreeFrame(freed)
	vpn := seg.Base.VPN() + 1
	for name, pa := range map[string]mem.PA{
		"never allocated": mem.MakePA(0, 0),
		"freed":           freed,
		"no such node":    mem.MakePA(2, 0),
	} {
		func() {
			defer func() {
				want := fmt.Sprintf("vm: Map of VPN %#x on node 0 to %#x, which no allocated frame holds", vpn, pa)
				if r := recover(); r != want {
					t.Errorf("%s: Map panicked with %v, want %q", name, r, want)
				}
			}()
			s.Table(0).Map(vpn, PTE{PA: pa, Writable: true})
		}()
	}
	if n := s.Table(0).Mapped(); n != 0 {
		t.Errorf("Mapped = %d after refused Maps", n)
	}
}

// TestFreeFrameOfMappedFramePanics: FreeFrame refuses a frame while any
// page table maps it, counting every mapping across nodes and remaps.
func TestFreeFrameOfMappedFramePanics(t *testing.T) {
	s, mems := newSystem(2)
	seg := s.AllocShared("a", 2*mem.PageSize, nil, ModeUser)
	pa, _ := mems[1].AllocFrame(mem.TagReadWrite)
	other, _ := mems[1].AllocFrame(mem.TagReadWrite)
	v0, v1 := seg.Base.VPN(), seg.Base.VPN()+1
	s.Table(0).Map(v0, PTE{PA: pa})
	s.Table(1).Map(v0, PTE{PA: pa})
	s.Table(1).Map(v1, PTE{PA: other})
	s.Table(1).Map(v1, PTE{PA: pa}) // a remap moves the count
	s.Table(1).Map(v1, PTE{PA: pa}) // and a same-frame remap keeps it
	mems[1].FreeFrame(other)
	free := func() (r any) {
		defer func() { r = recover() }()
		mems[1].FreeFrame(pa + 40)
		return nil
	}
	for i, unmap := range []struct {
		node int
		vpn  uint64
	}{{1, v1}, {0, v0}, {1, v0}} {
		want := fmt.Sprintf("mem: FreeFrame of frame %#x on node 1, which %d page-table slots still map", pa, 3-i)
		if r := free(); r != want {
			t.Fatalf("FreeFrame panicked with %v, want %q", r, want)
		}
		s.Table(unmap.node).Unmap(unmap.vpn)
	}
	if r := free(); r != nil || mems[1].FramesInUse() != 0 {
		t.Fatalf("FreeFrame of an unmapped frame: panic %v, %d frames in use", r, mems[1].FramesInUse())
	}
}

// TestRecordKeepsTLBHints: a page's TLB hints live in its record and
// outlive Map, Unmap and the table growing under them; a VPN outside
// every reserved range gets the never-mapped stray record.
func TestRecordKeepsTLBHints(t *testing.T) {
	s, mems := newSystem(1)
	seg := s.AllocShared("a", 2*mem.PageSize, nil, ModeUser)
	pt := s.Table(0)
	v := seg.Base.VPN()
	r := pt.Record(v)
	r.CPUHint, r.NPHint = 3, 5
	s.AllocShared("b", 64*mem.PageSize, nil, ModeUser) // grows the table: r is stale from here
	pa, _ := mems[0].AllocFrame(mem.TagReadWrite)
	pt.Map(v, PTE{PA: pa, Writable: true, Mode: 7})
	if r := pt.Record(v); r.CPUHint != 3 || r.NPHint != 5 || !r.Mapped() || r.Frame() != mems[0].Frame(pa) ||
		r.PTE() != (PTE{PA: pa, Writable: true, Mode: 7}) {
		t.Fatalf("after growth and Map: %+v", *r)
	}
	pt.Unmap(v)
	if r := pt.Record(v); r.CPUHint != 3 || r.NPHint != 5 || r.Mapped() || r.Frame() != nil {
		t.Fatalf("after Unmap: %+v", *r)
	}
	stray := pt.Record(seg.End().VPN() + 64)
	if stray.Mapped() || stray != pt.Record(SharedBase.VPN()+1<<40) || stray != pt.Record(0) {
		t.Fatal("VPNs outside the reserved ranges do not share the unmapped stray record")
	}
	if got := unsafe.Sizeof(Record{}); got != 32 {
		t.Errorf("a page record is %d bytes, want 32", got)
	}
}

// TestHomePanicsOutsideSharedAllocations: the home table is a slice
// over the shared segment; a private or unallocated address must still
// be refused with the message the map gave.
func TestHomePanicsOutsideSharedAllocations(t *testing.T) {
	s, _ := newSystem(2)
	seg := s.AllocShared("a", 2*mem.PageSize, OnNode{Node: 1}, ModeUser)
	for _, va := range []mem.VA{0, PrivateBase, SharedBase - 8, seg.End(), seg.End() + 1<<40} {
		func() {
			defer func() {
				want := fmt.Sprintf("vm: %#x is not an allocated shared address", va)
				if r := recover(); r != want {
					t.Errorf("Home(%#x) panicked with %v, want %q", va, r, want)
				}
			}()
			s.Home(va)
		}()
	}
	if s.Home(seg.Base) != 1 || s.Home(seg.At(mem.PageSize+8)) != 1 {
		t.Errorf("homes %d/%d, want 1/1", s.Home(seg.Base), s.Home(seg.At(mem.PageSize+8)))
	}
}

// TestSegmentOf: every address of a segment finds that segment, and an
// address outside all of them — past a segment's last byte, or private —
// finds none.
func TestSegmentOf(t *testing.T) {
	s, _ := newSystem(2)
	segs := []*Segment{
		s.AllocShared("first", 100, nil, ModeUser),
		s.AllocShared("middle", 2*mem.PageSize+40, nil, ModeUser+1),
		s.AllocShared("last", mem.PageSize+8, nil, ModeUser+2),
	}
	for _, seg := range segs {
		for _, va := range []mem.VA{seg.Base, seg.Base + mem.VA(seg.Size/2), seg.End() - 1} {
			if got := s.SegmentOf(va); got != seg {
				t.Errorf("SegmentOf(%#x) = %v, want segment %q", va, got, seg.Name)
			}
		}
		if got := s.SegmentOf(seg.End()); got != nil {
			t.Errorf("SegmentOf(%#x), one byte past %q, = segment %q, want nil", seg.End(), seg.Name, got.Name)
		}
	}
	priv, err := s.AllocPrivate(0, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SegmentOf(priv); got != nil {
		t.Errorf("SegmentOf(private %#x) = segment %q, want nil", priv, got.Name)
	}
}

func TestTranslate(t *testing.T) {
	s, _ := newSystem(2)
	base, err := s.AllocPrivate(0, 2*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	pa, pte, ok := s.Translate(0, base+100)
	if !ok {
		t.Fatal("private page not mapped")
	}
	if pte.Mode != ModePrivate || !pte.Writable {
		t.Fatalf("pte = %+v", pte)
	}
	if pa.PageOffset() != 100 {
		t.Fatalf("pa offset = %d, want 100", pa.PageOffset())
	}
	if _, _, ok := s.Translate(1, base+100); ok {
		t.Fatal("node 1 must not see node 0's private mapping")
	}
	if _, _, ok := s.Translate(0, SharedBase); ok {
		t.Fatal("unmapped shared page must not translate")
	}
}

func TestPrivateAllocsDisjoint(t *testing.T) {
	s, mems := newSystem(2)
	m := mems[0]
	a, _ := s.AllocPrivate(0, mem.PageSize)
	b, _ := s.AllocPrivate(0, 10)
	if b < a+mem.PageSize {
		t.Fatalf("allocations overlap: %#x then %#x", a, b)
	}
	m.WriteU64(mustPA(t, s, 0, a), 1)
	m.WriteU64(mustPA(t, s, 0, b), 2)
	if m.ReadU64(mustPA(t, s, 0, a)) != 1 {
		t.Fatal("write to b clobbered a")
	}
}

func TestPrivateAllocOutOfFrames(t *testing.T) {
	s := NewSystem([]*mem.Memory{mem.New(0, mem.Config{MaxFrames: 1})})
	if _, err := s.AllocPrivate(0, 2*mem.PageSize); err == nil {
		t.Fatal("expected out-of-frames error")
	}
}

func mustPA(t *testing.T, s *System, node int, va mem.VA) mem.PA {
	t.Helper()
	pa, _, ok := s.Translate(node, va)
	if !ok {
		t.Fatalf("translate %#x failed", va)
	}
	return pa
}

// Property: every page of every segment gets a home in [0, nodes), and
// segments never overlap.
func TestAllocationProperty(t *testing.T) {
	f := func(sizes []uint16, nodesRaw uint8) bool {
		nodes := int(nodesRaw)%8 + 1
		s, _ := newSystem(nodes)
		var prevEnd mem.VA
		for i, sz := range sizes {
			if len(sizes) > 20 {
				sizes = sizes[:20]
			}
			size := uint64(sz) + 1
			var place Placement
			switch i % 3 {
			case 0:
				place = RoundRobin{}
			case 1:
				place = Blocked{}
			default:
				place = OnNode{Node: i % nodes}
			}
			seg := s.AllocShared("s", size, place, ModeUser)
			if seg.Base < SharedBase || (prevEnd != 0 && seg.Base < prevEnd) {
				return false
			}
			prevEnd = seg.Base + mem.VA(seg.Pages()*mem.PageSize)
			for p := 0; p < seg.Pages(); p++ {
				if h := s.Home(seg.At(uint64(p * mem.PageSize))); h < 0 || h >= nodes {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPageTableLookup times Record, the page-record load every
// simulated reference starts with, cycling over 256 mapped shared pages
// with a private page every eighth lookup.
func BenchmarkPageTableLookup(b *testing.B) {
	s, mems := newSystem(1)
	priv, err := s.AllocPrivate(0, mem.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	seg := s.AllocShared("a", 256*mem.PageSize, nil, ModeUser)
	pt := s.Table(0)
	vpns := make([]uint64, 256)
	for i := range vpns {
		vpns[i] = seg.Base.VPN() + uint64(i)
		pa, _ := mems[0].AllocFrame(mem.TagReadWrite)
		pt.Map(vpns[i], PTE{PA: pa, Writable: true, Mode: ModeUser})
		if i%8 == 7 {
			vpns[i] = priv.VPN()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !pt.Record(vpns[i%len(vpns)]).Mapped() {
			b.Fatal("mapped page not found")
		}
	}
}
