package vm

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"github.com/tempest-sim/tempest/internal/mem"
)

func TestSharedAllocLayout(t *testing.T) {
	s := NewSystem(4)
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
	s := NewSystem(2)
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
	s := NewSystem(4)
	seg := s.AllocShared("rr", 8*mem.PageSize, RoundRobin{}, ModeUser)
	for i := 0; i < 8; i++ {
		home := s.Home(seg.At(uint64(i * mem.PageSize)))
		if home != i%4 {
			t.Fatalf("page %d home = %d, want %d", i, home, i%4)
		}
	}
}

func TestBlockedHomes(t *testing.T) {
	s := NewSystem(4)
	seg := s.AllocShared("blk", 8*mem.PageSize, Blocked{}, ModeUser)
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i := 0; i < 8; i++ {
		if home := s.Home(seg.At(uint64(i * mem.PageSize))); home != want[i] {
			t.Fatalf("page %d home = %d, want %d", i, home, want[i])
		}
	}
}

func TestBlockedHomesUneven(t *testing.T) {
	s := NewSystem(3)
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
	s := NewSystem(4)
	seg := s.AllocShared("on2", 3*mem.PageSize, OnNode{Node: 2}, ModeUser)
	for i := 0; i < 3; i++ {
		if home := s.Home(seg.At(uint64(i * mem.PageSize))); home != 2 {
			t.Fatalf("page %d home = %d, want 2", i, home)
		}
	}
}

func TestFirstTouchClaim(t *testing.T) {
	s := NewSystem(4)
	seg := s.AllocShared("ft", 2*mem.PageSize, FirstTouch{}, ModeUser)
	va := seg.At(0)
	if s.Home(va) != -1 {
		t.Fatal("first-touch page should be unclaimed")
	}
	if got := s.ClaimHome(va, 3); got != 3 {
		t.Fatalf("claim = %d, want 3", got)
	}
	if got := s.ClaimHome(va, 1); got != 3 {
		t.Fatalf("second claim = %d, want original 3", got)
	}
	if s.Home(va) != 3 {
		t.Fatal("home not recorded")
	}
	// Other page still unclaimed.
	if s.Home(seg.At(mem.PageSize)) != -1 {
		t.Fatal("claim leaked to sibling page")
	}
}

func TestHomeOfUnallocatedPanics(t *testing.T) {
	s := NewSystem(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Home(SharedBase + 0x100000)
}

func TestPageTableMapUnmap(t *testing.T) {
	s := NewSystem(2)
	priv, err := s.AllocPrivate(1, 3*mem.PageSize, mem.New(1, mem.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	seg := s.AllocShared("a", 8*mem.PageSize, nil, ModeUser)
	pt := s.Table(1)
	if pt.Mapped() != 3 {
		t.Fatalf("Mapped = %d after a 3-page private allocation", pt.Mapped())
	}
	pte := PTE{PA: mem.MakePA(0, 0x3000), Writable: true, Mode: 5}
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
	// The last shared page grows the shared table past seven unmapped
	// slots; the next Map lands inside it; the private one replaces what
	// AllocPrivate installed.
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
	s := NewSystem(2)
	if _, err := s.AllocPrivate(0, mem.PageSize, mem.New(0, mem.Config{})); err != nil {
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

// TestHomePanicsOutsideSharedAllocations: the home table is a slice
// over the shared segment; a private or unallocated address must still
// be refused with the message the map gave.
func TestHomePanicsOutsideSharedAllocations(t *testing.T) {
	s := NewSystem(2)
	seg := s.AllocShared("a", 2*mem.PageSize, FirstTouch{}, ModeUser)
	for _, va := range []mem.VA{0, PrivateBase, SharedBase - 8, seg.End(), seg.End() + 1<<40} {
		for name, call := range map[string]func(){
			"Home":      func() { s.Home(va) },
			"ClaimHome": func() { s.ClaimHome(va, 1) },
		} {
			func() {
				defer func() {
					want := fmt.Sprintf("vm: %#x is not an allocated shared address", va)
					if r := recover(); r != want {
						t.Errorf("%s(%#x) panicked with %v, want %q", name, va, r, want)
					}
				}()
				call()
			}()
		}
	}
	if got := s.ClaimHome(seg.At(mem.PageSize+8), 1); got != 1 || s.Home(seg.At(mem.PageSize)) != 1 || s.Home(seg.Base) != -1 {
		t.Errorf("ClaimHome = %d, homes now %d/%d", got, s.Home(seg.Base), s.Home(seg.At(mem.PageSize)))
	}
}

func TestTranslate(t *testing.T) {
	s := NewSystem(2)
	m := mem.New(0, mem.Config{})
	base, err := s.AllocPrivate(0, 2*mem.PageSize, m)
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
	s := NewSystem(2)
	m := mem.New(0, mem.Config{})
	a, _ := s.AllocPrivate(0, mem.PageSize, m)
	b, _ := s.AllocPrivate(0, 10, m)
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
	s := NewSystem(1)
	m := mem.New(0, mem.Config{MaxFrames: 1})
	if _, err := s.AllocPrivate(0, 2*mem.PageSize, m); err == nil {
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

// Property: every page of every segment gets a home in [0, nodes) (or -1
// for first-touch), and segments never overlap.
func TestAllocationProperty(t *testing.T) {
	f := func(sizes []uint16, nodesRaw uint8) bool {
		nodes := int(nodesRaw)%8 + 1
		s := NewSystem(nodes)
		var prevEnd mem.VA
		for i, sz := range sizes {
			if len(sizes) > 20 {
				sizes = sizes[:20]
			}
			size := uint64(sz) + 1
			var place Placement
			switch i % 4 {
			case 0:
				place = RoundRobin{}
			case 1:
				place = Blocked{}
			case 2:
				place = OnNode{Node: i % nodes}
			default:
				place = FirstTouch{}
			}
			seg := s.AllocShared("s", size, place, ModeUser)
			if seg.Base < SharedBase || (prevEnd != 0 && seg.Base < prevEnd) {
				return false
			}
			prevEnd = seg.Base + mem.VA(seg.Pages()*mem.PageSize)
			for p := 0; p < seg.Pages(); p++ {
				h := s.Home(seg.At(uint64(p * mem.PageSize)))
				if _, ft := place.(FirstTouch); ft {
					if h != -1 {
						return false
					}
				} else if h < 0 || h >= nodes {
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

// BenchmarkPageTableLookup times Lookup, which every simulated reference
// performs, cycling over 256 mapped shared pages with a private page
// every eighth lookup.
func BenchmarkPageTableLookup(b *testing.B) {
	s := NewSystem(1)
	priv, err := s.AllocPrivate(0, mem.PageSize, mem.New(0, mem.Config{}))
	if err != nil {
		b.Fatal(err)
	}
	seg := s.AllocShared("a", 256*mem.PageSize, nil, ModeUser)
	pt := s.Table(0)
	vpns := make([]uint64, 256)
	for i := range vpns {
		vpns[i] = seg.Base.VPN() + uint64(i)
		pt.Map(vpns[i], PTE{PA: mem.MakePA(0, uint64(i)*mem.PageSize), Writable: true, Mode: ModeUser})
		if i%8 == 7 {
			vpns[i] = priv.VPN()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := pt.Lookup(vpns[i%len(vpns)]); !ok {
			b.Fatal("mapped page not found")
		}
	}
}
