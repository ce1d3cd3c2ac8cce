package cache

import "math/bits"

// TLB is a fully associative translation buffer with FIFO replacement
// (Table 2: 64 entries for the CPU TLB, NP TLB, and RTLB alike). It
// caches only the presence of a translation; the translation itself is
// read from the page table by the caller, which charges the miss penalty.
// The same structure serves the RTLB by keying on physical page numbers.
type TLB struct {
	capacity int
	slots    []uint64
	valid    []bool
	fifo     int

	// hint remembers, per hash bucket, the slot that last held a page
	// hashing there. It is only ever a guess: a lookup believes it after
	// checking the slot itself, and falls back to scanning the slots
	// when the guess is wrong — so nothing is deleted on eviction and a
	// stale or colliding hint costs a scan, never a wrong answer.
	hint  []uint16
	shift uint // 64 − log2(len(hint))

	hits, misses uint64
}

// hintsPerEntry oversizes the hint table so two resident pages seldom
// share a bucket (each collision turns one of the pair's hits into
// scans).
const hintsPerEntry = 8

// NewTLB returns an empty TLB with the given number of entries.
func NewTLB(entries int) *TLB {
	if entries <= 0 || entries > 1<<16 {
		panic("cache: TLB needs between 1 and 65536 entries (a hint is 16 bits)")
	}
	hintBits := bits.Len(uint(entries*hintsPerEntry - 1))
	return &TLB{
		capacity: entries,
		slots:    make([]uint64, entries),
		valid:    make([]bool, entries),
		hint:     make([]uint16, 1<<hintBits),
		shift:    uint(64 - hintBits),
	}
}

// bucket hashes a page number to its hint. The multiply folds every key
// bit into the top ones: RTLB keys are frame base addresses (node<<40 |
// frame<<12), whose low twelve bits are all zero.
func (t *TLB) bucket(pn uint64) *uint16 {
	return &t.hint[pn*0x9E3779B97F4A7C15>>t.shift]
}

// find returns the slot holding pn, or -1.
func (t *TLB) find(pn uint64) int {
	h := t.bucket(pn)
	if i := int(*h); t.slots[i] == pn && t.valid[i] {
		return i
	}
	for i, s := range t.slots {
		if s == pn && t.valid[i] {
			*h = uint16(i)
			return i
		}
	}
	return -1
}

// Lookup reports whether the page number is cached, inserting it (with
// FIFO replacement) on a miss. The caller charges the miss penalty when
// it returns false.
func (t *TLB) Lookup(pn uint64) bool {
	if t.find(pn) >= 0 {
		t.hits++
		return true
	}
	t.misses++
	i := t.fifo
	t.fifo = (t.fifo + 1) % t.capacity
	t.slots[i] = pn
	t.valid[i] = true
	*t.bucket(pn) = uint16(i)
	return false
}

// Contains reports residency without side effects.
func (t *TLB) Contains(pn uint64) bool { return t.find(pn) >= 0 }

// InvalidateEntry drops a single page number (page remap or unmap).
func (t *TLB) InvalidateEntry(pn uint64) {
	if i := t.find(pn); i >= 0 {
		t.valid[i] = false
	}
}

// Flush empties the TLB.
func (t *TLB) Flush() {
	clear(t.valid)
}

// Hits returns the hit count.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the miss count.
func (t *TLB) Misses() uint64 { return t.misses }
