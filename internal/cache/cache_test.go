package cache

import (
	"math/rand"
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
	if c.Stats().Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", c.Stats().Upgrades)
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
	if c.Stats().Evictions != 1 || c.Stats().DirtyEvicts != 1 {
		t.Fatalf("stats = %+v", c.Stats())
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

func TestTLBFIFOReplacement(t *testing.T) {
	tlb := NewTLB(4)
	for pn := uint64(0); pn < 4; pn++ {
		if tlb.Lookup(pn) {
			t.Fatalf("cold lookup of %d hit", pn)
		}
	}
	for pn := uint64(0); pn < 4; pn++ {
		if !tlb.Lookup(pn) {
			t.Fatalf("warm lookup of %d missed", pn)
		}
	}
	// Insert a 5th entry: FIFO evicts pn 0 (oldest), not the LRU-est.
	tlb.Lookup(4)
	if tlb.Contains(0) {
		t.Fatal("FIFO should have evicted page 0")
	}
	if !tlb.Contains(1) || !tlb.Contains(4) {
		t.Fatal("wrong entry evicted")
	}
}

func TestTLBInvalidateEntry(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Lookup(7)
	tlb.InvalidateEntry(7)
	if tlb.Contains(7) {
		t.Fatal("entry survived invalidation")
	}
	if tlb.Lookup(7) {
		t.Fatal("lookup after invalidation must miss")
	}
}

func TestTLBFlushAndCounters(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Lookup(1)
	tlb.Lookup(1)
	tlb.Flush()
	if tlb.Contains(1) {
		t.Fatal("flush left entries")
	}
	if tlb.Hits() != 1 || tlb.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", tlb.Hits(), tlb.Misses())
	}
}

// The two shapes of key the simulator gives a TLB: consecutive shared
// VPNs (CPU and NP TLBs) and frame base addresses, node<<40 | frame<<12,
// spread over four nodes (the RTLB).
func vpnKey(i int) uint64       { return 0x4000_0000_0 + uint64(i) }
func frameBaseKey(i int) uint64 { return uint64(i%4)<<40 | uint64(i/4)<<12 }

// refTLB is the TLB's specification written the obvious way: a slice of
// slots scanned on every operation, FIFO pointer and all.
type refTLB struct {
	slots        []uint64
	valid        []bool
	fifo         int
	hits, misses uint64
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
	r.misses++
	r.slots[r.fifo], r.valid[r.fifo] = pn, true
	r.fifo = (r.fifo + 1) % len(r.slots)
	return false
}

func (r *refTLB) invalidate(pn uint64) {
	if i := r.find(pn); i >= 0 {
		r.valid[i] = false
	}
}

// TestTLBMatchesReferenceModel drives the TLB and the naive model above
// with the same random Lookup/Contains/InvalidateEntry/Flush sequence
// and compares, after every operation, the return value, both counters
// and the residency of every page in the universe. The universes are
// the two shapes of key the simulator uses — small consecutive VPNs
// (CPU and NP TLBs) and frame base addresses, node<<40 | frame<<12
// (the RTLB) — plus keys that differ only above bit 40. Contains may
// repair a hint, so each sequence also runs with the residency sweep
// only every 97th operation, leaving stale hints in place in between.
func TestTLBMatchesReferenceModel(t *testing.T) {
	universes := map[string]func(i int) uint64{
		"vpn":        vpnKey,
		"frame-base": frameBaseKey,
		"node-only":  func(i int) uint64 { return uint64(i) << 40 },
	}
	for _, capacity := range []int{1, 2, 16, 64} {
		for name, key := range universes {
			for _, sweepEvery := range []int{1, 97} {
				testTLBAgainstModel(t, name, capacity, sweepEvery, key)
			}
		}
	}
}

func testTLBAgainstModel(t *testing.T, name string, capacity, sweepEvery int, key func(int) uint64) {
	universe := make([]uint64, 2*capacity+3)
	for i := range universe {
		universe[i] = key(i)
	}
	tlb := NewTLB(capacity)
	ref := &refTLB{slots: make([]uint64, capacity), valid: make([]bool, capacity)}
	rng := rand.New(rand.NewSource(int64(capacity)))
	for step := 0; step < 4000; step++ {
		pn := universe[rng.Intn(len(universe))]
		what := "Lookup"
		switch op := rng.Intn(100); {
		case op < 70:
			if got, want := tlb.Lookup(pn), ref.lookup(pn); got != want {
				t.Fatalf("%s/%d step %d: Lookup(%#x) = %v, model says %v", name, capacity, step, pn, got, want)
			}
		case op < 80:
			what = "Contains"
			if got, want := tlb.Contains(pn), ref.find(pn) >= 0; got != want {
				t.Fatalf("%s/%d step %d: Contains(%#x) = %v, model says %v", name, capacity, step, pn, got, want)
			}
		case op < 98:
			what = "InvalidateEntry"
			tlb.InvalidateEntry(pn)
			ref.invalidate(pn)
		default:
			what = "Flush"
			tlb.Flush()
			clear(ref.valid)
		}
		if tlb.Hits() != ref.hits || tlb.Misses() != ref.misses {
			t.Fatalf("%s/%d step %d after %s(%#x): hits/misses %d/%d, model says %d/%d",
				name, capacity, step, what, pn, tlb.Hits(), tlb.Misses(), ref.hits, ref.misses)
		}
		if step%sweepEvery != 0 {
			continue
		}
		for _, q := range universe {
			if got, want := tlb.Contains(q), ref.find(q) >= 0; got != want {
				t.Fatalf("%s/%d step %d after %s(%#x): Contains(%#x) = %v, model says %v",
					name, capacity, step, what, pn, q, got, want)
			}
		}
	}
}

// TestTLBHintSpreadsFrameBaseKeys pins the one thing the model test
// cannot see: that the hint is worth having for RTLB keys. Their low
// twelve bits are zero, so a hint indexed by the key's low bits would
// put every resident page in one bucket and turn every hit into a scan.
func TestTLBHintSpreadsFrameBaseKeys(t *testing.T) {
	tlb := NewTLB(64)
	buckets := map[*uint16]bool{}
	for i := 0; i < 64; i++ {
		buckets[tlb.bucket(frameBaseKey(i))] = true
	}
	if len(buckets) < 48 {
		t.Errorf("64 frame-base keys share %d hint buckets, want at least 48", len(buckets))
	}
}
