package cache

import (
	"testing"
	"testing/quick"

	"github.com/tempest-sim/tempest/internal/mem"
)

func newSmall() *Cache { return New(4096, 4, 32, 1) } // 32 sets

func TestMissThenHit(t *testing.T) {
	c := newSmall()
	pa := mem.PA(0x1000)
	if hit, up := c.Probe(pa, false); hit || up {
		t.Fatal("cold probe must miss")
	}
	c.Fill(pa, LineExclusive)
	if hit, _ := c.Probe(pa, false); !hit {
		t.Fatal("probe after fill must hit")
	}
	if hit, _ := c.Probe(pa+31, true); !hit {
		t.Fatal("whole block must hit")
	}
	if hit, _ := c.Probe(pa+32, false); hit {
		t.Fatal("next block must miss")
	}
}

func TestWriteToSharedNeedsUpgrade(t *testing.T) {
	c := newSmall()
	pa := mem.PA(0x2000)
	c.Fill(pa, LineShared)
	if hit, _ := c.Probe(pa, false); !hit {
		t.Fatal("read of Shared line must hit")
	}
	hit, up := c.Probe(pa, true)
	if hit || !up {
		t.Fatalf("write to Shared line: hit=%v upgrade=%v, want upgrade", hit, up)
	}
	c.Upgrade(pa)
	if hit, _ := c.Probe(pa, true); !hit {
		t.Fatal("write after upgrade must hit")
	}
}

func TestEvictionOnFullSet(t *testing.T) {
	c := newSmall() // 32 sets * 32B blocks: same set every 1024 bytes
	base := mem.PA(0)
	for i := 0; i < 4; i++ {
		c.Fill(base+mem.PA(i*1024), LineExclusive)
	}
	victim, vs := c.Fill(base+mem.PA(4*1024), LineExclusive)
	if vs != LineExclusive {
		t.Fatalf("victim state = %v, want Exclusive", vs)
	}
	if victim%1024 != 0 || victim >= 4*1024 {
		t.Fatalf("victim = %#x, want one of the four original blocks", victim)
	}
	if c.Lookup(victim) != LineInvalid {
		t.Fatal("victim still resident")
	}
}

func TestFillExistingLineJustChangesState(t *testing.T) {
	c := newSmall()
	pa := mem.PA(0x3000)
	c.Fill(pa, LineShared)
	victim, vs := c.Fill(pa, LineExclusive)
	if victim != 0 || vs != LineInvalid {
		t.Fatal("refill of resident line must not evict")
	}
	if c.Lookup(pa) != LineExclusive {
		t.Fatal("state not updated")
	}
}

func TestInvalidate(t *testing.T) {
	c := newSmall()
	pa := mem.PA(0x4000)
	c.Fill(pa, LineExclusive)
	if prev := c.Invalidate(pa); prev != LineExclusive {
		t.Fatalf("prev = %v, want Exclusive", prev)
	}
	if prev := c.Invalidate(pa); prev != LineInvalid {
		t.Fatalf("second invalidate prev = %v, want Invalid", prev)
	}
	if c.Lookup(pa) != LineInvalid {
		t.Fatal("line still resident")
	}
}

func TestDowngrade(t *testing.T) {
	c := newSmall()
	pa := mem.PA(0x5000)
	c.Fill(pa, LineExclusive)
	if prev := c.Downgrade(pa); prev != LineExclusive {
		t.Fatalf("prev = %v", prev)
	}
	if c.Lookup(pa) != LineShared {
		t.Fatal("line not Shared after downgrade")
	}
	if prev := c.Downgrade(mem.PA(0x6000)); prev != LineInvalid {
		t.Fatalf("downgrade of absent line = %v", prev)
	}
}

func TestInvalidatePage(t *testing.T) {
	c := New(16384, 4, 32, 1)
	page := mem.PA(0x10000)
	for i := 0; i < 16; i++ {
		c.Fill(page+mem.PA(i*32), LineExclusive)
	}
	c.Fill(page+mem.PageSize, LineExclusive) // next page, must survive
	if n := c.InvalidatePage(page + 100); n != 16 {
		t.Fatalf("dropped %d lines, want 16", n)
	}
	if c.Lookup(page) != LineInvalid {
		t.Fatal("page line survived")
	}
	if c.Lookup(page+mem.PageSize) == LineInvalid {
		t.Fatal("neighbouring page was wrongly invalidated")
	}
}

func TestFlush(t *testing.T) {
	c := newSmall()
	c.Fill(0x100, LineExclusive)
	c.Fill(0x2100, LineShared)
	c.Flush()
	if c.Lookup(0x100) != LineInvalid || c.Lookup(0x2100) != LineInvalid {
		t.Fatal("flush left resident lines")
	}
}

func TestDeterministicReplacement(t *testing.T) {
	run := func() []mem.PA {
		c := New(1024, 2, 32, 7)
		var victims []mem.PA
		for i := 0; i < 64; i++ {
			v, vs := c.Fill(mem.PA(i*1024), LineExclusive)
			if vs != LineInvalid {
				victims = append(victims, v)
			}
		}
		return victims
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("victim counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("victim %d differs: %#x vs %#x", i, a[i], b[i])
		}
	}
}

func TestCapacityObserved(t *testing.T) {
	c := New(4096, 4, 32, 1)
	if c.Size() != 4096 {
		t.Fatalf("Size = %d", c.Size())
	}
	// Fill 128 distinct blocks (exactly capacity); with random
	// replacement inside sets every set holds its own 4 blocks since we
	// touch each set exactly 4 times.
	for i := 0; i < 128; i++ {
		c.Fill(mem.PA(i*32), LineExclusive)
	}
	for i := 0; i < 128; i++ {
		if c.Lookup(mem.PA(i*32)) == LineInvalid {
			t.Fatalf("block %d missing though cache holds exactly capacity", i)
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, g := range [][3]int{
		{100, 3, 32},   // not divisible into sets
		{12288, 4, 32}, // 96 sets: not a power of two
		{9216, 3, 32},  // 96 sets of three ways
		{6144, 4, 48},  // 32 sets of 48-byte blocks
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d, %d): expected panic", g[0], g[1], g[2])
				}
			}()
			New(g[0], g[1], g[2], 1)
		}()
	}
	New(3072, 3, 32, 1) // 32 sets of three ways is fine
}

// Property: a resident block stays resident across fills that map to
// other sets.
func TestSetIsolationProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		c := New(2048, 2, 32, 3)
		paA := mem.PA(a) * 32
		paB := mem.PA(b) * 32
		sameSet := (uint64(paA)/32)%32 == (uint64(paB)/32)%32
		c.Fill(paA, LineExclusive)
		c.Fill(paB, LineShared)
		if sameSet {
			return true // may or may not evict paA
		}
		return c.Lookup(paA) != LineInvalid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
