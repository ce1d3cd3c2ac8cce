package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/tempest-sim/tempest/internal/mem"
)

// TestLineIsOneWord: a 4-way set is 32 bytes and a 64 KB cache model
// 16 KB only while a line is one word; a field added to it doubles what
// every reference drags through the host's cache.
func TestLineIsOneWord(t *testing.T) {
	if got := unsafe.Sizeof(line(0)); got != 8 {
		t.Fatalf("unsafe.Sizeof(line) = %d, want 8", got)
	}
}

// refCache is the cache's specification written the obvious way: a
// {tag, state} record per way, found by division and modulo, with the
// same xorshift replacement sequence. seen counts the paths the
// sequence reached, so a sequence that stops reaching one fails instead
// of passing vacuously.
type refCache struct {
	blockSize, ways, numSets int
	sets                     []refLine
	rng                      uint64
	seen                     struct{ upgrades, evictions, dirtyEvicts, invals int }
}

type refLine struct {
	tag   uint64
	state LineState
}

func (r *refCache) set(pa mem.PA) ([]refLine, uint64) {
	block := uint64(pa) / uint64(r.blockSize)
	base := int(block%uint64(r.numSets)) * r.ways
	return r.sets[base : base+r.ways], block
}

func (r *refCache) resident(pa mem.PA) *refLine {
	set, block := r.set(pa)
	for w := range set {
		if set[w].state != LineInvalid && set[w].tag == block {
			return &set[w]
		}
	}
	return nil
}

func (r *refCache) probe(pa mem.PA, write bool) (hit, upgrade bool) {
	l := r.resident(pa)
	switch {
	case l == nil:
		return false, false
	case write && l.state == LineShared:
		r.seen.upgrades++
		return false, true
	}
	return true, false
}

func (r *refCache) lookup(pa mem.PA) LineState {
	if l := r.resident(pa); l != nil {
		return l.state
	}
	return LineInvalid
}

func (r *refCache) fill(pa mem.PA, state LineState) (mem.PA, LineState) {
	if l := r.resident(pa); l != nil {
		l.state = state
		return 0, LineInvalid
	}
	set, block := r.set(pa)
	for w := range set {
		if set[w].state == LineInvalid {
			set[w] = refLine{block, state}
			return 0, LineInvalid
		}
	}
	x := r.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.rng = x
	l := &set[x%uint64(r.ways)]
	victim, victimState := mem.PA(l.tag*uint64(r.blockSize)), l.state
	r.seen.evictions++
	if victimState == LineExclusive {
		r.seen.dirtyEvicts++
	}
	*l = refLine{block, state}
	return victim, victimState
}

// setState is Downgrade (to Shared) and Invalidate (to Invalid).
func (r *refCache) setState(pa mem.PA, state LineState) LineState {
	l := r.resident(pa)
	if l == nil {
		return LineInvalid
	}
	prev := l.state
	l.state = state
	if state == LineInvalid {
		r.seen.invals++
	}
	return prev
}

func (r *refCache) invalidatePage(pa mem.PA) int {
	dropped := 0
	for off := 0; off < mem.PageSize; off += r.blockSize {
		if l := r.resident(pa.FrameBase() + mem.PA(off)); l != nil {
			l.state = LineInvalid
			dropped++
		}
	}
	return dropped
}

// TestCacheMatchesReferenceModel drives the cache and the naive model
// above through the same random operation sequence at every
// associativity and block size a machine or an NP data cache is built
// with, and compares every return value and every victim. Addresses
// fall on three nodes (the highest
// legal one among them) within eight cache-fuls of each node's base, so
// sets fill, conflict and evict.
func TestCacheMatchesReferenceModel(t *testing.T) {
	const ops = 120_000
	for _, ways := range []int{1, 2, 4} {
		for _, blockSize := range []int{8, 32, 128} {
			t.Run(fmt.Sprintf("%d-way/%dB", ways, blockSize), func(t *testing.T) {
				const size = 8192
				seed := uint64(ways*1000 + blockSize)
				c := New(size, ways, blockSize, seed)
				ref := &refCache{
					blockSize: blockSize, ways: ways, numSets: size / (ways * blockSize),
					sets: make([]refLine, size/blockSize), rng: seed,
				}
				rng := rand.New(rand.NewSource(int64(seed)))
				nodes := []int{0, 3, 63}
				for step := 0; step < ops; step++ {
					pa := mem.MakePA(nodes[rng.Intn(len(nodes))], uint64(rng.Intn(8*size)))
					var got, want any
					var what string
					switch op := rng.Intn(1000); {
					case op < 400:
						what = "Probe and Hit"
						write := rng.Intn(3) == 0
						h, u := c.Probe(pa, write)
						rh, ru := ref.probe(pa, write)
						got, want = [3]bool{h, u, c.Hit(pa, write)}, [3]bool{rh, ru, rh}
					case op < 500:
						what = "Lookup"
						got, want = c.Lookup(pa), ref.lookup(pa)
					case op < 800:
						what = "Fill"
						state := LineShared + LineState(rng.Intn(2))
						v, vs := c.Fill(pa, state)
						rv, rvs := ref.fill(pa, state)
						got, want = [2]uint64{uint64(v), uint64(vs)}, [2]uint64{uint64(rv), uint64(rvs)}
					case op < 850:
						what = "Upgrade"
						if ref.lookup(pa) == LineInvalid {
							continue // Upgrade of a non-resident block panics
						}
						c.Upgrade(pa)
						ref.setState(pa, LineExclusive)
						got, want = c.Lookup(pa), ref.lookup(pa)
					case op < 900:
						what = "Downgrade"
						got, want = c.Downgrade(pa), ref.setState(pa, LineShared)
					case op < 990:
						what = "Invalidate"
						got, want = c.Invalidate(pa), ref.setState(pa, LineInvalid)
					case op < 998:
						what = "InvalidatePage"
						got, want = c.InvalidatePage(pa), ref.invalidatePage(pa)
					default:
						what = "Flush"
						c.Flush()
						clear(ref.sets)
					}
					if got != want {
						t.Fatalf("step %d: %s(%#x) = %v, model says %v", step, what, pa, got, want)
					}
				}
				if s := ref.seen; s.evictions == 0 || s.dirtyEvicts == 0 || s.upgrades == 0 || s.invals == 0 {
					t.Fatalf("the sequence never reached one of its paths: %+v", s)
				}
			})
		}
	}
}

// BenchmarkProbeAcrossNodes times one hitting Probe the way a run issues
// them: 32 caches of 64 KB, each warm with its node's own 64 KB, visited
// round-robin in turns of 40 references (a 64-cycle quantum of hits). A
// loop over one cache keeps its sets in the host's L1 and does not show
// what a line's size costs.
func BenchmarkProbeAcrossNodes(b *testing.B) {
	const nodes, size, turn = 32, 64 << 10, 40
	caches := make([]*Cache, nodes)
	for n := range caches {
		caches[n] = New(size, 4, 32, uint64(n+1))
		for off := uint64(0); off < size; off += 32 {
			caches[n].Fill(mem.MakePA(n, off), LineExclusive)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := i / turn % nodes
		caches[n].Probe(mem.MakePA(n, uint64(i)*8*1031%size), false) // a stride that wanders over every set
	}
}
