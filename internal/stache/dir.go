package stache

import (
	"fmt"
	"math/bits"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
)

// Directory block states.
type dirState uint8

const (
	// dirIdle: no remote copies; the home's tags alone govern access.
	dirIdle dirState = iota
	// dirShared: read-only copies at the listed sharers (home may also
	// read: its tag is ReadOnly).
	dirShared
	// dirExclusive: one remote node owns the block read-write; the
	// home's copy is stale (home tag Invalid).
	dirExclusive
	// dirBusy: a transaction is collecting invalidation or downgrade
	// acknowledgements; conflicting requests are NACKed.
	dirBusy
)

func (s dirState) String() string {
	switch s {
	case dirIdle:
		return "Idle"
	case dirShared:
		return "Shared"
	case dirExclusive:
		return "Exclusive"
	case dirBusy:
		return "Busy"
	}
	return fmt.Sprintf("dirState(%d)", uint8(s))
}

// Kinds of transaction a Busy directory entry is completing.
type pendKind uint8

const (
	pendNone pendKind = iota
	// pendRemoteRead: a remote GETS is waiting for the owner's
	// downgrade.
	pendRemoteRead
	// pendRemoteWrite: a remote GETX/upgrade is waiting for
	// invalidations.
	pendRemoteWrite
	// pendHomeRead: the home CPU's read fault is waiting for the owner.
	pendHomeRead
	// pendHomeWrite: the home CPU's write fault is waiting for
	// invalidations.
	pendHomeWrite
)

// maxPointers is the number of per-block sharer pointers the directory
// preallocates: the paper's layout is two bytes of state plus six
// one-byte pointers per 32-byte block (§3). Beyond six sharers the
// implementation degrades to a bit vector (the paper's overflow scheme).
const maxPointers = 6

// sharerSet is the paper's hybrid sharer representation: a count and six
// one-byte pointers, and past six sharers a bit vector. It is 16 bytes
// and a blockDir 56; a home page carries 128 of those at 32-byte blocks.
type sharerSet struct {
	n        int8
	ptrs     [maxPointers]uint8
	overflow *nodeVector // nil until more than maxPointers sharers
}

// A node number must fit a one-byte pointer.
const _ = uint8(machine.MaxNodes - 1)

// nodeVector is an overflowed sharer set's bit vector.
type nodeVector [machine.MaxNodes / 64]uint64

// vectorPool is one home's spare overflow vectors. A sharer set takes
// one when it overflows and gives it back when it is cleared, so a home
// allocates as many as it ever has overflowed sets at once — not one
// per overflow, and not one per block that ever overflowed.
type vectorPool []*nodeVector

func (p *vectorPool) get() *nodeVector {
	n := len(*p)
	if n == 0 {
		return new(nodeVector)
	}
	v := (*p)[n-1]
	*p = (*p)[:n-1]
	*v = nodeVector{}
	return v
}

func (s *sharerSet) usingOverflow() bool { return s.overflow != nil }

// add records node; past maxPointers sharers it converts the set to a
// bit vector taken from the home's pool.
func (s *sharerSet) add(node int, pool *vectorPool) {
	if s.has(node) {
		return
	}
	if s.overflow != nil {
		s.overflow[node/64] |= 1 << (node % 64)
		return
	}
	if int(s.n) < maxPointers {
		s.ptrs[s.n] = uint8(node)
		s.n++
		return
	}
	// Overflow: convert the pointers to a bit vector (§3).
	s.overflow = pool.get()
	for _, p := range s.ptrs[:s.n] {
		s.overflow[p/64] |= 1 << (p % 64)
	}
	s.overflow[node/64] |= 1 << (node % 64)
}

func (s *sharerSet) remove(node int) {
	if s.overflow != nil {
		s.overflow[node/64] &^= 1 << (node % 64)
		return
	}
	for i := int8(0); i < s.n; i++ {
		if int(s.ptrs[i]) == node {
			s.n--
			s.ptrs[i] = s.ptrs[s.n]
			return
		}
	}
}

func (s *sharerSet) has(node int) bool {
	if s.overflow != nil {
		return s.overflow[node/64]&(1<<(node%64)) != 0
	}
	for i := int8(0); i < s.n; i++ {
		if int(s.ptrs[i]) == node {
			return true
		}
	}
	return false
}

func (s *sharerSet) count() int {
	if s.overflow != nil {
		c := 0
		for _, w := range s.overflow {
			c += bits.OnesCount64(w)
		}
		return c
	}
	return int(s.n)
}

// each calls visit on every member in place: in pointer-insertion
// order, or in node order once the set has overflowed. Event order, and
// so the digests, depend on that order. visit must not change the set.
func (s *sharerSet) each(visit func(node int)) {
	if s.overflow != nil {
		for i, w := range s.overflow {
			for ; w != 0; w &= w - 1 {
				visit(i*64 + bits.TrailingZeros64(w))
			}
		}
		return
	}
	for _, p := range s.ptrs[:s.n] {
		visit(int(p))
	}
}

// clear empties the set, returning its overflow vector to the home's
// pool.
func (s *sharerSet) clear(pool *vectorPool) {
	if s.overflow != nil {
		*pool = append(*pool, s.overflow)
		s.overflow = nil
	}
	s.n = 0
}

// blockDir is one block's home directory entry.
type blockDir struct {
	state   dirState
	owner   int16 // remote owner when dirExclusive
	sharers sharerSet

	// Migratory-sharing detection (Cox/Fowler-style, enabled by
	// WithMigratory): lastGetS remembers the most recent read requester;
	// a subsequent upgrade from the same sole sharer marks the block
	// migratory, after which reads are granted exclusively. A migratory
	// recall that returns clean data demotes the block back to
	// read-sharing.
	migratory bool
	lastGetS  int16
	pendDirty bool

	// Busy-transaction state.
	pend        pendKind
	pendReq     int16 // remote requester (pendRemote*), -1 for the home CPU
	pendOwner   int16 // downgraded ex-owner to keep as a sharer, -1 if none
	pendUpgrade bool  // requester asked for an upgrade
	waiting     sharerSet
}

// homeDir is the per-home-page directory vector the Stache allocation
// functions hang off the page's RTLB user word (§3, §5.4).
type homeDir struct {
	baseVA mem.VA
	blocks []blockDir
}

func newHomeDir(baseVA mem.VA, blocksPerPage int) *homeDir {
	return &homeDir{baseVA: baseVA, blocks: make([]blockDir, blocksPerPage)}
}

// dirMemBase is the synthetic physical region directory entries are timed
// in: each entry occupies eight bytes (two state bytes plus six pointer
// bytes, §3) and is charged through the NP data cache.
const dirMemBase = uint64(1) << 38

// dirAddr returns the synthetic address of the entry for block index bi
// of the page whose frame offset is frameOff.
func dirAddr(node int, frameOff uint64, bi int) mem.PA {
	return mem.MakePA(node, dirMemBase+frameOff/mem.PageSize*1024+uint64(bi)*8)
}
