// Package apps defines the benchmark-application abstraction shared by
// the harness, plus layout and PRNG helpers. The concrete applications —
// the paper's five benchmarks (Appbt, Barnes, MP3D, Ocean, EM3D) — live
// in subpackages. Each reproduces the sharing pattern and data-set
// geometry of the original program (Table 3) over the simulated shared
// address space; see DESIGN.md for the substitution argument.
package apps

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/vm"
)

// App is one benchmark instance: Setup allocates simulated memory and
// builds Go-side layout tables, Body is the SPMD program, and Verify
// checks the parallel result against a sequential reference after the
// run.
type App interface {
	// Name is the benchmark's short name ("em3d", "ocean", ...).
	Name() string
	// Setup allocates segments and builds layout state. It is called
	// once, before Run.
	Setup(m *machine.Machine)
	// Body is the per-processor SPMD program.
	Body(p *machine.Proc)
	// Verify compares the simulated result with a sequential reference.
	Verify(m *machine.Machine) error
}

// Rand is a small deterministic PRNG (splitmix64) for workload
// construction. Simulated runs must not consult Go's global rand.
type Rand struct{ s uint64 }

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand { return &Rand{s: seed + 0x9E3779B97F4A7C15} }

// Next returns the next 64-bit value.
func (r *Rand) Next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("apps: Intn with non-positive bound")
	}
	return int(r.Next() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}

// DistArray is a shared array of fixed-size elements distributed so each
// processor's elements are homed on that processor (owner-computes
// layout): each processor's chunk is padded to whole pages and the
// segment uses blocked placement.
type DistArray struct {
	Seg      *vm.Segment
	ElemSize uint64
	PerProc  int
	pad      uint64 // page padding after each processor's elements
	nodes    int
	total    int // PerProc * nodes
	// recip is ceil(2^64 / PerProc), so that AtGlobal splits an index
	// with a multiply instead of a division. At PerProc 1 the reciprocal
	// overflows to 0 and unit is all ones, adding the index itself as
	// the quotient; otherwise unit is 0.
	recip, unit uint64
}

// IndexError is the panic value of a DistArray address past the array:
// At's element Index of chunk Proc, or AtGlobal's Index (Global set). It
// formats only when printed, which keeps the accessors inlinable.
type IndexError struct {
	Array       *DistArray
	Global      bool
	Proc, Index int
}

func (e *IndexError) Error() string {
	a := e.Array
	if e.Global {
		return fmt.Sprintf("apps: DistArray %s: global index %d out of %d", a.Seg.Name, e.Index, a.total)
	}
	return fmt.Sprintf("apps: DistArray %s: element %d of chunk %d out of %d chunks of %d",
		a.Seg.Name, e.Index, e.Proc, a.nodes, a.PerProc)
}

// NewDistArray allocates a distributed array with perProc elements of
// elemSize bytes per processor, homed on the owning processor (the
// owner-computes layout EM3D's Split-C original uses). mode selects the
// protocol page mode (0 = the memory system's default).
func NewDistArray(m *machine.Machine, name string, perProc int, elemSize uint64, mode int) *DistArray {
	return NewDistArrayPlaced(m, name, perProc, elemSize, mode, vm.Blocked{})
}

// NewDistArrayNaive allocates a distributed array whose pages are placed
// round-robin across the machine regardless of which processor computes
// on them — the placement a shared-memory malloc gives the SPLASH
// programs, which the paper runs unmodified ("the Typhoon/Stache
// simulations required no modifications to the existing applications";
// careful placement is the DirNNB improvement the paper discusses but
// does not apply).
func NewDistArrayNaive(m *machine.Machine, name string, perProc int, elemSize uint64, mode int) *DistArray {
	return NewDistArrayPlaced(m, name, perProc, elemSize, mode, vm.RoundRobin{})
}

// NewDistArrayPlaced is NewDistArray with an explicit placement policy.
// The array holds fewer than 2^32 elements, which keeps AtGlobal's
// reciprocal split exact.
func NewDistArrayPlaced(m *machine.Machine, name string, perProc int, elemSize uint64, mode int, place vm.Placement) *DistArray {
	nodes := m.Cfg.Nodes
	if perProc <= 0 || elemSize == 0 || uint64(perProc)*uint64(nodes) >= 1<<32 {
		panic(fmt.Sprintf("apps: bad DistArray geometry %d x %d on %d nodes", perProc, elemSize, nodes))
	}
	chunk := (uint64(perProc)*elemSize + mem.PageSize - 1) / mem.PageSize * mem.PageSize
	seg := m.AllocShared(name, chunk*uint64(nodes), place, mode)
	a := &DistArray{Seg: seg, ElemSize: elemSize, PerProc: perProc,
		pad: chunk - uint64(perProc)*elemSize, nodes: nodes, total: perProc * nodes}
	if a.recip = ^uint64(0)/uint64(perProc) + 1; a.recip == 0 {
		a.unit = ^uint64(0)
	}
	return a
}

// At returns the address of element idx of processor proc's chunk. An
// index outside the array panics with an *IndexError.
func (a *DistArray) At(proc, idx int) mem.VA {
	if uint(idx) >= uint(a.PerProc) || uint(proc) >= uint(a.nodes) {
		panic(&IndexError{Array: a, Proc: proc, Index: idx})
	}
	return a.Seg.Base + mem.VA(uint64(proc*a.PerProc+idx)*a.ElemSize+uint64(proc)*a.pad)
}

// AtGlobal maps a global element index (proc-major) to its address. The
// chunk is the high word of idx·ceil(2^64/PerProc), which equals
// idx/PerProc whenever idx and PerProc are below 2^32 (Lemire, Kaser
// and Kurz, "Faster Remainder by Direct Computation", 2019); the bound
// check guarantees the first, NewDistArrayPlaced the second.
func (a *DistArray) AtGlobal(idx int) mem.VA {
	if uint(idx) >= uint(a.total) {
		panic(&IndexError{Array: a, Global: true, Index: idx})
	}
	hi, _ := bits.Mul64(uint64(idx), a.recip)
	proc := hi + uint64(idx)&a.unit
	return a.Seg.Base + mem.VA(uint64(idx)*a.ElemSize+proc*a.pad)
}

// coherentPA locates the current copy of va at quiescence, with no
// simulated cost — for Verify. Under Typhoon protocols the home copy is
// stale while a remote node holds the block ReadWrite, so the search
// prefers a writable copy; under DirNNB every node maps the home frame
// and the home copy is always current.
func coherentPA(m *machine.Machine, va mem.VA) (mem.PA, *mem.Memory) {
	home := m.VM.Home(va)
	homePA, _, ok := m.VM.Translate(home, va)
	if !ok {
		panic(fmt.Sprintf("apps: %#x not mapped at home %d", va, home))
	}
	if m.Mems[home].Tag(homePA) == mem.TagReadWrite {
		return homePA, m.Mems[home]
	}
	for n := 0; n < m.Cfg.Nodes; n++ {
		if n == home {
			continue
		}
		pa, _, ok := m.VM.Translate(n, va)
		if !ok || pa.Node() != n {
			continue
		}
		if m.Mems[n].Tag(pa) == mem.TagReadWrite {
			return pa, m.Mems[n]
		}
	}
	return homePA, m.Mems[home]
}

// ReadBackF64 reads the coherent value of the float64 at va with no
// simulated cost — for Verify.
func ReadBackF64(m *machine.Machine, va mem.VA) float64 {
	pa, mm := coherentPA(m, va)
	return mm.ReadF64(pa)
}

// ReadBackU64 is ReadBackF64 for integers.
func ReadBackU64(m *machine.Machine, va mem.VA) uint64 {
	pa, mm := coherentPA(m, va)
	return mm.ReadU64(pa)
}

// CeilDiv returns ceil(a/b).
func CeilDiv(a, b int) int { return (a + b - 1) / b }

// ApproxEqual reports |a-b| <= tol * max(1, |a|, |b|).
func ApproxEqual(a, b, tol float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := 1.0
	if aa := abs(a); aa > scale {
		scale = aa
	}
	if bb := abs(b); bb > scale {
		scale = bb
	}
	return diff <= tol*scale
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// MemIO abstracts simulated memory access so an application kernel can
// run both on a Proc (charging cycles) and on a Backdoor (free replay
// for verification) with identical semantics.
type MemIO interface {
	ReadF64(va mem.VA) float64
	WriteF64(va mem.VA, v float64)
	ReadU64(va mem.VA) uint64
	WriteU64(va mem.VA, v uint64)
	Compute(n int)
}

// Backdoor replays kernels against the machine's memory with no
// simulated cost and without mutating it: writes land in an overlay that
// subsequent reads observe. Verify implementations replay each
// processor's kernel in program order through one Backdoor and compare
// the overlay against the simulated memory.
type Backdoor struct {
	M *machine.Machine
	// pages is the overlay, indexed by a shared page's distance from
	// vm.SharedBase; a page gets its array at the first write into it.
	pages []*overlayPage
	// written marks, per page of pages, the words the replay has
	// written. It lives beside the pages, not in them, so that an
	// overlay page is exactly one 4 KiB size class.
	written []writtenBits
}

const wordsPerPage = mem.PageSize / 8

// overlayPage holds the replayed value of every aligned word of one page.
type overlayPage [wordsPerPage]uint64

// writtenBits has one bit per word of an overlay page.
type writtenBits [wordsPerPage / 64]uint64

// NewBackdoor returns an empty-overlay backdoor for m.
func NewBackdoor(m *machine.Machine) *Backdoor { return &Backdoor{M: m} }

// overlayIndex locates va's word in the overlay: its page's index (past
// any table for a private address) and the word's index in the page.
func overlayIndex(va mem.VA) (page, word uint64) {
	if va%8 != 0 {
		panic(fmt.Sprintf("apps: Backdoor access to unaligned address %#x", va))
	}
	return va.VPN() - vm.SharedBase.VPN(), va.PageOffset() / 8
}

// ReadU64 implements MemIO.
func (b *Backdoor) ReadU64(va mem.VA) uint64 {
	if i, w := overlayIndex(va); i < uint64(len(b.pages)) && b.written[i][w/64]>>(w%64)&1 != 0 {
		return b.pages[i][w]
	}
	return ReadBackU64(b.M, va)
}

// WriteU64 implements MemIO.
func (b *Backdoor) WriteU64(va mem.VA, v uint64) {
	i, w := overlayIndex(va)
	if i >= uint64(len(b.pages)) {
		b.M.VM.Home(va) // panics unless va is allocated shared memory
		b.pages = slices.Grow(b.pages, int(i)+1-len(b.pages))[:i+1]
		b.written = slices.Grow(b.written, int(i)+1-len(b.written))[:i+1]
	}
	if b.pages[i] == nil {
		b.pages[i] = new(overlayPage)
	}
	b.pages[i][w] = v
	b.written[i][w/64] |= 1 << (w % 64)
}

// ReadF64 implements MemIO.
func (b *Backdoor) ReadF64(va mem.VA) float64 {
	return math.Float64frombits(b.ReadU64(va))
}

// WriteF64 implements MemIO.
func (b *Backdoor) WriteF64(va mem.VA, v float64) { b.WriteU64(va, math.Float64bits(v)) }

// Compute implements MemIO as a no-op.
func (b *Backdoor) Compute(int) {}

// Expect compares the replayed float64 at va with the simulated value.
// format and args name the word; they are rendered only on a mismatch,
// so a Verify over every word of a result formats nothing when it passes.
func (b *Backdoor) Expect(va mem.VA, format string, args ...int) error {
	want := b.ReadF64(va)
	got := ReadBackF64(b.M, va)
	if !ApproxEqual(got, want, 1e-12) {
		return fmt.Errorf("%s at %#x: simulated %v, replay %v", label(format, args), va, got, want)
	}
	return nil
}

// ExpectU64 compares the replayed uint64 at va with the simulated value.
func (b *Backdoor) ExpectU64(va mem.VA, format string, args ...int) error {
	want := b.ReadU64(va)
	got := ReadBackU64(b.M, va)
	if got != want {
		return fmt.Errorf("%s at %#x: simulated %d, replay %d", label(format, args), va, got, want)
	}
	return nil
}

// label renders an Expect's name for the word that failed. The indices
// are ints, not ...any, so that a caller boxes nothing on the passing path.
func label(format string, args []int) string {
	boxed := make([]any, len(args))
	for i, a := range args {
		boxed[i] = a
	}
	return fmt.Sprintf(format, boxed...)
}
