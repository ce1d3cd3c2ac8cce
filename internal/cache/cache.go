// Package cache models the hardware caches and TLBs of a Typhoon or
// DirNNB node (paper Table 2): a set-associative, randomly replaced CPU
// cache whose lines carry a Shared/Exclusive ownership state (the MBus
// distinction Typhoon's NP exploits), and a fully associative,
// FIFO-replaced TLB. Replacement randomness comes from a per-cache seeded
// xorshift generator so simulations stay deterministic.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/tempest-sim/tempest/internal/mem"
)

// LineState is the ownership state of a resident cache line.
type LineState uint8

// Line states. Exclusive corresponds to an MBus "owned" copy: the CPU may
// write it silently. Shared lines require a bus upgrade before a write,
// which is the hook Typhoon's NP uses to enforce ReadOnly tags.
const (
	LineInvalid LineState = iota
	LineShared
	LineExclusive
)

func (s LineState) String() string {
	switch s {
	case LineInvalid:
		return "Invalid"
	case LineShared:
		return "Shared"
	case LineExclusive:
		return "Exclusive"
	}
	return fmt.Sprintf("LineState(%d)", uint8(s))
}

// line is one cache line in one word: block<<stateBits | state, where
// block is pa >> blockShift. LineInvalid is 0 and an empty way is the
// zero word. Physical addresses stay below 2^46 (mem.MakePA is
// node<<40 | offset and machine.MaxNodes is 64), so the shift cannot
// lose a bit.
type line uint64

const (
	stateBits = 2
	stateMask = 1<<stateBits - 1
)

// holds returns the state in which l holds the block whose key
// (block<<stateBits) is given: LineInvalid if l is empty or holds
// another block. No resident word equals a key, because its state bits
// are not zero.
func (l line) holds(key line) LineState {
	if d := l ^ key; d <= stateMask {
		return LineState(d)
	}
	return LineInvalid
}

// Cache is a set-associative cache with random replacement. Block size
// and set count are powers of two: a set is found by a shift and a mask
// and is ways consecutive words (32 bytes at Table 2's four ways).
type Cache struct {
	blockShift uint
	setMask    uint64 // number of sets - 1
	ways       int
	sets       []line // (setMask+1) * ways, row-major
	rng        uint64
}

// New returns a cache of size bytes with the given associativity and
// block size. Size must divide evenly into a power-of-two number of sets
// of power-of-two blocks; machine.Config.Validate refuses other
// geometries with an error, the panic is for callers that bypass it.
func New(size, ways, blockSize int, seed uint64) *Cache {
	if size <= 0 || ways <= 0 || blockSize <= 0 {
		panic("cache: size, ways and blockSize must be positive")
	}
	numSets := size / (ways * blockSize)
	if numSets == 0 || size%(ways*blockSize) != 0 {
		panic(fmt.Sprintf("cache: size %d not divisible into %d-way sets of %d-byte blocks", size, ways, blockSize))
	}
	if blockSize&(blockSize-1) != 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets of %d-byte blocks: both must be powers of two", numSets, blockSize))
	}
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Cache{
		blockShift: uint(bits.TrailingZeros(uint(blockSize))),
		setMask:    uint64(numSets - 1),
		ways:       ways,
		sets:       make([]line, numSets*ways),
		rng:        seed,
	}
}

// BlockSize returns the line size in bytes.
func (c *Cache) BlockSize() int { return 1 << c.blockShift }

// Size returns the cache capacity in bytes.
func (c *Cache) Size() int { return len(c.sets) << c.blockShift }

// index returns the ways of the set pa's block maps to and the block's key.
func (c *Cache) index(pa mem.PA) (set []line, key line) {
	block := uint64(pa) >> c.blockShift
	base := int(block&c.setMask) * c.ways
	return c.sets[base : base+c.ways], line(block << stateBits)
}

// find returns index(pa) and the way holding pa's block in a valid state,
// or -1.
func (c *Cache) find(pa mem.PA) (set []line, key line, way int) {
	set, key = c.index(pa)
	for w, l := range set {
		if l.holds(key) != LineInvalid {
			return set, key, w
		}
	}
	return set, key, -1
}

func (c *Cache) next() uint64 {
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return x
}

// Probe looks up pa for the given access type without changing cache
// contents. It reports whether the access hits silently and, if not,
// whether the line is present in Shared state so a write needs only a bus
// upgrade rather than a full miss.
func (c *Cache) Probe(pa mem.PA, write bool) (hit, upgrade bool) {
	set, key := c.index(pa)
	for _, l := range set {
		st := l.holds(key)
		if st == LineInvalid {
			continue
		}
		if write && st == LineShared {
			return false, true
		}
		return true, false
	}
	return false, false
}

// Hit reports whether an access to pa of the given type hits silently:
// Probe's hit, without the upgrade answer. A read hits a Shared or an
// Exclusive line, a write only an Exclusive one.
func (c *Cache) Hit(pa mem.PA, write bool) bool {
	need := line(LineShared)
	if write {
		need = line(LineExclusive)
	}
	set, key := c.index(pa)
	for _, l := range set {
		if d := l ^ key; d-1 < stateMask { // l holds the block: holds(key) != LineInvalid
			return d >= need
		}
	}
	return false
}

// Lookup returns the state of pa's line.
func (c *Cache) Lookup(pa mem.PA) LineState {
	set, key := c.index(pa)
	for _, l := range set {
		if st := l.holds(key); st != LineInvalid {
			return st
		}
	}
	return LineInvalid
}

// Fill inserts pa's block in the given state, choosing a random victim if
// the set is full. It returns the physical address and state of the
// evicted line (victimState is LineInvalid when nothing was evicted).
func (c *Cache) Fill(pa mem.PA, state LineState) (victim mem.PA, victimState LineState) {
	if state == LineInvalid {
		panic("cache: Fill with LineInvalid")
	}
	// Reuse an existing or invalid way first.
	set, key, w := c.find(pa)
	if w < 0 {
		w = slices.Index(set, 0)
	}
	if w < 0 {
		// Random replacement.
		w = int(c.next() % uint64(c.ways))
		victim = mem.PA(uint64(set[w]>>stateBits) << c.blockShift)
		victimState = LineState(set[w] & stateMask)
	}
	set[w] = key | line(state)
	return victim, victimState
}

// Upgrade promotes pa's line to Exclusive. It panics if the line is not
// resident (the caller must have probed first).
func (c *Cache) Upgrade(pa mem.PA) {
	set, key, w := c.find(pa)
	if w < 0 {
		panic(fmt.Sprintf("cache: Upgrade of non-resident block %#x", pa))
	}
	set[w] = key | line(LineExclusive)
}

// Downgrade demotes pa's line to Shared if resident (a remote read of an
// exclusively held block). It returns the previous state.
func (c *Cache) Downgrade(pa mem.PA) LineState {
	set, key, w := c.find(pa)
	if w < 0 {
		return LineInvalid
	}
	prev := set[w].holds(key)
	set[w] = key | line(LineShared)
	return prev
}

// Invalidate removes pa's line and returns its previous state. Typhoon's
// invalidate tag operation and DirNNB's invalidation messages use it.
func (c *Cache) Invalidate(pa mem.PA) LineState {
	set, key, w := c.find(pa)
	if w < 0 {
		return LineInvalid
	}
	prev := set[w].holds(key)
	set[w] = 0
	return prev
}

// InvalidatePage removes every line belonging to pa's physical page and
// returns how many lines were dropped (Stache page replacement).
func (c *Cache) InvalidatePage(pa mem.PA) int {
	dropped := 0
	for b := mem.PA(0); b < mem.PageSize; b += 1 << c.blockShift {
		if set, _, w := c.find(pa.FrameBase() + b); w >= 0 {
			set[w] = 0
			dropped++
		}
	}
	return dropped
}

// Flush empties the cache.
func (c *Cache) Flush() { clear(c.sets) }
