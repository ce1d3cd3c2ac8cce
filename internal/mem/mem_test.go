package mem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPAEncoding(t *testing.T) {
	pa := MakePA(17, 0x12340)
	if pa.Node() != 17 {
		t.Fatalf("Node = %d, want 17", pa.Node())
	}
	if pa.Offset() != 0x12340 {
		t.Fatalf("Offset = %#x, want 0x12340", pa.Offset())
	}
	if pa.FrameBase().Offset() != 0x12000 {
		t.Fatalf("FrameBase offset = %#x, want 0x12000", pa.FrameBase().Offset())
	}
	if pa.PageOffset() != 0x340 {
		t.Fatalf("PageOffset = %#x, want 0x340", pa.PageOffset())
	}
}

func TestVAHelpers(t *testing.T) {
	va := VA(3*PageSize + 100)
	if va.VPN() != 3 {
		t.Fatalf("VPN = %d, want 3", va.VPN())
	}
	if va.PageBase() != VA(3*PageSize) {
		t.Fatalf("PageBase = %#x", va.PageBase())
	}
	if va.PageOffset() != 100 {
		t.Fatalf("PageOffset = %d, want 100", va.PageOffset())
	}
}

// TestTable1 exercises the memory-resident semantics of the paper's
// Table 1 operations: read/write tag checks, force-read/force-write,
// read-tag, set-RW, set-RO, and the tag-change half of invalidate.
func TestTable1(t *testing.T) {
	m := New(0, Config{})
	pa := m.AllocFrame(TagInvalid)

	// Invalid blocks: both read and write fault.
	if m.Tag(pa).PermitsRead() || m.Tag(pa).PermitsWrite() {
		t.Fatal("Invalid block must fault on read and write")
	}
	// force-write bypasses the tag check.
	m.WriteU64(pa, 0xdeadbeef)
	// force-read bypasses the tag check.
	if got := m.ReadU64(pa); got != 0xdeadbeef {
		t.Fatalf("force-read = %#x", got)
	}
	// set-RO: reads succeed, writes fault.
	m.SetTag(pa, TagReadOnly)
	if !m.Tag(pa).PermitsRead() {
		t.Fatal("ReadOnly block must not fault on read")
	}
	if m.Tag(pa).PermitsWrite() {
		t.Fatal("ReadOnly block must fault on write")
	}
	// set-RW: both succeed.
	m.SetTag(pa, TagReadWrite)
	if !m.Tag(pa).PermitsRead() || !m.Tag(pa).PermitsWrite() {
		t.Fatal("ReadWrite block must not fault")
	}
	// read-tag.
	if m.Tag(pa) != TagReadWrite {
		t.Fatalf("Tag = %v, want ReadWrite", m.Tag(pa))
	}
	// invalidate: tag goes Invalid (the cache purge lives in typhoon).
	m.SetTag(pa, TagInvalid)
	if m.Tag(pa).PermitsRead() || m.Tag(pa).PermitsWrite() {
		t.Fatal("invalidated block must fault")
	}
	// Busy behaves like Invalid for access checks but is distinguishable.
	m.SetTag(pa, TagBusy)
	if m.Tag(pa).PermitsRead() || m.Tag(pa).PermitsWrite() {
		t.Fatal("Busy block must fault like Invalid")
	}
	if m.Tag(pa) == TagInvalid {
		t.Fatal("Busy must be distinguishable from Invalid")
	}
}

func TestTagStringer(t *testing.T) {
	cases := map[Tag]string{
		TagInvalid: "Invalid", TagReadOnly: "ReadOnly",
		TagReadWrite: "ReadWrite", TagBusy: "Busy", Tag(9): "Tag(9)",
	}
	for tag, want := range cases {
		if tag.String() != want {
			t.Errorf("%d.String() = %q, want %q", tag, tag.String(), want)
		}
	}
}

func TestTagsArePerBlock(t *testing.T) {
	m := New(0, Config{})
	pa := m.AllocFrame(TagInvalid)
	m.SetTag(pa+PA(DefaultBlockSize), TagReadWrite)
	if m.Tag(pa) != TagInvalid {
		t.Fatal("block 0 tag changed")
	}
	if m.Tag(pa+PA(DefaultBlockSize)) != TagReadWrite {
		t.Fatal("block 1 tag not set")
	}
	if m.Tag(pa+PA(DefaultBlockSize)+8) != TagReadWrite {
		t.Fatal("tag must cover the whole block")
	}
}

func TestSetPageTags(t *testing.T) {
	m := New(0, Config{})
	pa := m.AllocFrame(TagInvalid)
	m.SetPageTags(pa, TagReadWrite)
	for i := 0; i < m.BlocksPerPage(); i++ {
		if m.Tag(pa+PA(i*m.BlockSize())) != TagReadWrite {
			t.Fatalf("block %d not ReadWrite", i)
		}
	}
}

// TestFrameBudgetAndReuse checks the pool's accounting: it has no cap,
// FramesInUse counts live frames, and a freed frame is the next one
// handed out, zeroed.
func TestFrameBudgetAndReuse(t *testing.T) {
	m := New(0, Config{})
	a := m.AllocFrame(TagReadWrite)
	m.AllocFrame(TagReadWrite)
	m.AllocFrame(TagReadWrite)
	if m.FramesInUse() != 3 {
		t.Fatalf("FramesInUse = %d, want 3", m.FramesInUse())
	}
	m.WriteU64(a, 123)
	m.FreeFrame(a)
	if m.FramesInUse() != 2 {
		t.Fatalf("FramesInUse = %d, want 2", m.FramesInUse())
	}
	b := m.AllocFrame(TagReadWrite)
	if b != a {
		t.Fatalf("expected frame reuse: got %#x, freed %#x", b, a)
	}
	if got := m.ReadU64(b); got != 0 {
		t.Fatalf("reused frame not zeroed: %#x", got)
	}
}

func TestFrameIsolationBetweenNodes(t *testing.T) {
	m0 := New(0, Config{})
	m1 := New(1, Config{})
	pa0 := m0.AllocFrame(TagReadWrite)
	if m1.Frame(pa0) != nil {
		t.Fatal("node 1 must not resolve node 0's physical address")
	}
}

func TestBlockCopy(t *testing.T) {
	m := New(0, Config{})
	src := m.AllocFrame(TagReadWrite)
	dst := m.AllocFrame(TagReadWrite)
	m.WriteU64(src, 0x1111)
	m.WriteU64(src+8, 0x2222)
	m.WriteU64(src+24, 0x4444)
	buf := make([]byte, m.BlockSize())
	if n := m.ReadBlock(src+8, buf); n != m.BlockSize() {
		t.Fatalf("ReadBlock copied %d bytes", n)
	}
	m.WriteBlock(dst, buf)
	if m.ReadU64(dst) != 0x1111 || m.ReadU64(dst+8) != 0x2222 || m.ReadU64(dst+24) != 0x4444 {
		t.Fatal("block copy mismatch")
	}
}

func TestReadWriteRange(t *testing.T) {
	m := New(0, Config{})
	pa := m.AllocFrame(TagReadWrite)
	src := make([]byte, 100)
	for i := range src {
		src[i] = byte(i)
	}
	m.WriteRange(pa+40, src)
	dst := make([]byte, 100)
	m.ReadRange(pa+40, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("byte %d = %d, want %d", i, dst[i], src[i])
		}
	}
}

func TestRangeCrossingPagePanics(t *testing.T) {
	m := New(0, Config{})
	pa := m.AllocFrame(TagReadWrite)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on page-crossing range")
		}
	}()
	m.ReadRange(pa+PageSize-4, make([]byte, 8))
}

func TestFloatRoundTrip(t *testing.T) {
	m := New(0, Config{})
	pa := m.AllocFrame(TagReadWrite)
	for _, v := range []float64{0, 1.5, -math.Pi, math.Inf(1), math.SmallestNonzeroFloat64} {
		m.WriteF64(pa+16, v)
		if got := m.ReadF64(pa + 16); got != v {
			t.Fatalf("ReadF64 = %v, want %v", got, v)
		}
	}
}

func TestConfigurableBlockSize(t *testing.T) {
	for _, bs := range []int{32, 64, 128} {
		m := New(0, Config{BlockSize: bs})
		if m.BlocksPerPage() != PageSize/bs {
			t.Fatalf("bs=%d: BlocksPerPage = %d", bs, m.BlocksPerPage())
		}
		pa := m.AllocFrame(TagInvalid)
		m.SetTag(pa, TagReadWrite)
		if m.Tag(pa+PA(bs-1)) != TagReadWrite {
			t.Fatalf("bs=%d: tag must span whole block", bs)
		}
		if m.Tag(pa+PA(bs)) != TagInvalid {
			t.Fatalf("bs=%d: tag must not span next block", bs)
		}
	}
}

func TestInvalidBlockSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two block size")
		}
	}()
	New(0, Config{BlockSize: 48})
}

// Property: any 8-byte-aligned word written within a frame reads back
// identically and neighbouring words are untouched.
func TestWordWriteProperty(t *testing.T) {
	m := New(0, Config{})
	pa := m.AllocFrame(TagReadWrite)
	f := func(slot uint16, v uint64) bool {
		off := (uint64(slot) % (PageSize/8 - 2) * 8) + 8 // keep a neighbour on each side
		lo, hi := m.ReadU64(pa+PA(off-8)), m.ReadU64(pa+PA(off+8))
		m.WriteU64(pa+PA(off), v)
		return m.ReadU64(pa+PA(off)) == v &&
			m.ReadU64(pa+PA(off-8)) == lo &&
			m.ReadU64(pa+PA(off+8)) == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PA encode/decode round-trips for any node/offset in range.
func TestPARoundTripProperty(t *testing.T) {
	f := func(node uint8, off uint32) bool {
		pa := MakePA(int(node), uint64(off))
		return pa.Node() == int(node) && pa.Offset() == uint64(off)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: tag transitions never affect other blocks in the same frame.
func TestTagIsolationProperty(t *testing.T) {
	m := New(0, Config{})
	pa := m.AllocFrame(TagInvalid)
	n := m.BlocksPerPage()
	shadow := make([]Tag, n)
	f := func(block uint8, tag uint8) bool {
		b := int(block) % n
		tg := Tag(tag % 4)
		m.SetTag(pa+PA(b*m.BlockSize()), tg)
		shadow[b] = tg
		for i := 0; i < n; i++ {
			if m.Tag(pa+PA(i*m.BlockSize())) != shadow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFramePoolMatchesMapModel drives the frame pool with a random
// alloc/free sequence beside the model it replaced — a map of live
// offsets, a bump pointer and a LIFO free list — and demands the same
// physical address from every allocation: PAs index the caches, so the
// order frames are reused in is part of a run's determinism. Along the
// way Frame must find exactly the live frames, FramesInUse must agree,
// and every frame, a reused one too, must come back zeroed.
func TestFramePoolMatchesMapModel(t *testing.T) {
	const node = 5
	m := New(node, Config{})
	live := map[uint64]bool{}
	var nextOff uint64
	var freeOffs []uint64
	var everSeen []PA

	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 5000; step++ {
		if rng.Intn(5) < 3 { // allocate
			pa := m.AllocFrame(TagReadOnly)
			var off uint64
			if n := len(freeOffs); n > 0 {
				off, freeOffs = freeOffs[n-1], freeOffs[:n-1]
			} else {
				off, nextOff = nextOff, nextOff+PageSize
			}
			if pa != MakePA(node, off) {
				t.Fatalf("step %d: alloc = %#x; the map model hands out %#x", step, pa, MakePA(node, off))
			}
			if got := m.ReadU64(pa + 8); got != 0 {
				t.Fatalf("step %d: frame %#x not zeroed: %#x", step, pa, got)
			}
			m.WriteU64(pa+8, uint64(step)+1)
			live[off] = true
			everSeen = append(everSeen, pa)
		} else if len(everSeen) > 0 { // free a live frame
			pa := everSeen[rng.Intn(len(everSeen))]
			if !live[pa.Offset()] {
				continue
			}
			m.FreeFrame(pa + PA(rng.Intn(PageSize))) // any address in the frame names it
			delete(live, pa.Offset())
			freeOffs = append(freeOffs, pa.Offset())
		}
		if m.FramesInUse() != len(live) {
			t.Fatalf("step %d: FramesInUse = %d, want %d", step, m.FramesInUse(), len(live))
		}
		for _, pa := range everSeen {
			if got := m.Frame(pa+8) != nil; got != live[pa.Offset()] {
				t.Fatalf("step %d: Frame(%#x) found = %v, live = %v", step, pa, got, live[pa.Offset()])
			}
		}
	}
	if f := m.Frame(MakePA(node, nextOff)); f != nil {
		t.Errorf("Frame of the never-allocated offset %#x = %p", nextOff, f)
	}
	if f := m.Frame(MakePA(node, 1<<39)); f != nil {
		t.Errorf("Frame far past the pool = %p", f)
	}
	for _, pa := range everSeen {
		if f := m.Frame(MakePA(node+1, pa.Offset())); f != nil {
			t.Fatalf("Frame of node %d's address %#x resolved on node %d", node+1, pa.Offset(), node)
		}
	}
}

func TestFreeUnallocatedFramePanics(t *testing.T) {
	m := New(0, Config{})
	pa := m.AllocFrame(TagReadWrite)
	m.FreeFrame(pa)
	for name, bad := range map[string]PA{"freed twice": pa, "never allocated": pa + PageSize, "another node's": MakePA(1, 0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FreeFrame of a frame %s did not panic", name)
				}
			}()
			m.FreeFrame(bad)
		}()
	}
	if m.FramesInUse() != 0 {
		t.Errorf("FramesInUse = %d after refused frees", m.FramesInUse())
	}
}

// BenchmarkFrameLookup times Frame, the lookup under every simulated
// data access, cycling over 256 live frames.
func BenchmarkFrameLookup(b *testing.B) {
	m := New(3, Config{})
	pas := make([]PA, 256)
	for i := range pas {
		pas[i] = m.AllocFrame(TagReadWrite)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Frame(pas[i%len(pas)]+PA(i%PageSize)) == nil {
			b.Fatal("live frame not found")
		}
	}
}
