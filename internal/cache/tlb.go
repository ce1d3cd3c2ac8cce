package cache

// TLB is a fully associative translation buffer with FIFO replacement
// (Table 2: 64 entries for the CPU TLB, NP TLB, and RTLB alike). It
// caches only the presence of a translation; the translation itself is
// read from the page table by the caller, which charges the miss penalty.
// The same structure serves the RTLB by keying on physical page numbers.
//
// A TLB does not search for a key: the caller keeps, beside what the key
// names, a hint — the slot index + 1 the key was last inserted at, zero
// for none — and passes it on every call. The CPU and NP TLBs keep theirs
// in the page record (vm.Record), the RTLB in a slice by frame number.
// A hint is believed only after the slot it names is checked, so a stale
// hint costs a miss only if the key really is gone: Lookup writes the
// hint of every key it inserts, and a resident key's hint is that of its
// last insertion as long as the caller never loses or shares it.
type TLB struct {
	slots []uint64
	valid []bool
	fifo  int
}

// NewTLB returns an empty TLB with the given number of entries.
func NewTLB(entries int) *TLB {
	if entries <= 0 || entries >= 1<<16 {
		panic("cache: TLB needs between 1 and 65535 entries (a hint is 16 bits)")
	}
	return &TLB{slots: make([]uint64, entries), valid: make([]bool, entries)}
}

// find returns the slot holding pn if hint names it, or -1.
func (t *TLB) find(pn uint64, hint uint16) int {
	if i := int(hint) - 1; uint(i) < uint(len(t.slots)) && t.slots[i] == pn && t.valid[i] {
		return i
	}
	return -1
}

// Lookup reports whether the page number is cached, inserting it (with
// FIFO replacement) on a miss and recording its slot in *hint. The caller
// charges the miss penalty when it returns false.
func (t *TLB) Lookup(pn uint64, hint *uint16) bool {
	if t.find(pn, *hint) >= 0 {
		return true
	}
	i := t.fifo
	if t.fifo++; t.fifo == len(t.slots) {
		t.fifo = 0
	}
	t.slots[i] = pn
	t.valid[i] = true
	*hint = uint16(i + 1)
	return false
}

// Has reports whether the page number is cached in the slot hint names.
// Unlike Lookup it inserts nothing, so a caller can test for a hit
// before committing to the reference (machine.Proc.access).
func (t *TLB) Has(pn uint64, hint uint16) bool { return t.find(pn, hint) >= 0 }

// InvalidateEntry drops a single page number (page remap or unmap).
func (t *TLB) InvalidateEntry(pn uint64, hint uint16) {
	if i := t.find(pn, hint); i >= 0 {
		t.valid[i] = false
	}
}

// Flush empties the TLB.
func (t *TLB) Flush() {
	clear(t.valid)
}
