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
// and holds no pointer; a blockDir is 32, so a home page's directory,
// allocated on first use, is 128 of those at 32-byte blocks: exactly one
// 4 KiB object.
type sharerSet struct {
	n    int8 // pointers in use, or -1 once the set has overflowed
	ptrs [maxPointers]uint8
	vec  uint64 // the bit vector, valid only while n is -1
}

// A node number must fit a one-byte pointer, an int8 node field and a
// bit of a one-word set.
const (
	_ = uint8(machine.MaxNodes - 1)
	_ = int8(machine.MaxNodes - 1)
	_ = uint64(1) << (machine.MaxNodes - 1)
)

func (s *sharerSet) usingOverflow() bool { return s.n < 0 }

// add records node; past maxPointers sharers it converts the set to a
// bit vector.
func (s *sharerSet) add(node int) {
	if s.has(node) {
		return
	}
	if s.n < 0 {
		s.vec |= 1 << node
		return
	}
	if int(s.n) < maxPointers {
		s.ptrs[s.n] = uint8(node)
		s.n++
		return
	}
	// Overflow: convert the pointers to a bit vector (§3).
	s.vec = 1 << node
	for _, p := range s.ptrs[:s.n] {
		s.vec |= 1 << p
	}
	s.n = -1
}

func (s *sharerSet) remove(node int) {
	if s.n < 0 {
		s.vec &^= 1 << node
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
	if s.n < 0 {
		return s.vec&(1<<node) != 0
	}
	for i := int8(0); i < s.n; i++ {
		if int(s.ptrs[i]) == node {
			return true
		}
	}
	return false
}

func (s *sharerSet) count() int {
	if s.n < 0 {
		return bits.OnesCount64(s.vec)
	}
	return int(s.n)
}

// each calls visit on every member in place: in pointer-insertion
// order, or in ascending node order once the set has overflowed. Event
// order, and so the digests, depend on that order. visit must not change
// the set.
func (s *sharerSet) each(visit func(node int)) {
	if s.n < 0 {
		for w := s.vec; w != 0; w &= w - 1 {
			visit(bits.TrailingZeros64(w))
		}
		return
	}
	for _, p := range s.ptrs[:s.n] {
		visit(int(p))
	}
}

// clear empties the set.
func (s *sharerSet) clear() { s.n = 0 }

// nodeMask is a set of nodes as one word, bit n for node n. A Busy
// entry's awaited nodes are one: nothing sends in its order, so it needs
// no pointers.
type nodeMask uint64

func (m nodeMask) has(node int) bool { return m&(1<<node) != 0 }
func (m *nodeMask) add(node int)     { *m |= 1 << node }
func (m *nodeMask) remove(node int)  { *m &^= 1 << node }
func (m nodeMask) count() int        { return bits.OnesCount64(uint64(m)) }
func (m *nodeMask) clear()           { *m = 0 }

// each calls visit on every member in ascending node order.
func (m nodeMask) each(visit func(node int)) {
	for w := uint64(m); w != 0; w &= w - 1 {
		visit(bits.TrailingZeros64(w))
	}
}

// dirFlags are a blockDir's one-bit fields, packed in one byte.
type dirFlags uint8

const (
	// flagMigratory: the block migrates, and reads are granted
	// exclusively (WithMigratory).
	flagMigratory dirFlags = 1 << iota
	// flagPendDirty: an acknowledgement or writeback of the Busy
	// transaction carried modified data.
	flagPendDirty
	// flagPendUpgrade: the Busy transaction's requester asked for an
	// upgrade.
	flagPendUpgrade
)

// blockDir is one block's home directory entry: 32 bytes, so a home
// page's 128 entries fill one 4 KiB size class. Node fields are int8,
// -1 for none (machine.MaxNodes is 64).
type blockDir struct {
	state dirState
	flags dirFlags
	pend  pendKind // Busy-transaction kind
	owner int8     // remote owner when dirExclusive

	// Migratory-sharing detection (Cox/Fowler-style, enabled by
	// WithMigratory): lastGetS remembers the most recent read requester;
	// a subsequent upgrade from the same sole sharer marks the block
	// migratory, after which reads are granted exclusively. A migratory
	// recall that returns clean data demotes the block back to
	// read-sharing.
	lastGetS int8

	// Busy-transaction state.
	pendReq   int8 // remote requester (pendRemote*), -1 for the home CPU
	pendOwner int8 // downgraded ex-owner to keep as a sharer, -1 if none

	sharers sharerSet
	waiting nodeMask // nodes whose acknowledgement the Busy entry awaits
}

func (d *blockDir) has(f dirFlags) bool { return d.flags&f != 0 }

// set sets or clears flag f and leaves the others.
func (d *blockDir) set(f dirFlags, on bool) {
	if on {
		d.flags |= f
	} else {
		d.flags &^= f
	}
}

// homeDir is the per-home-page directory vector the Stache allocation
// functions hang off the page's RTLB user word (§3, §5.4). A home page
// gets one the first time a handler consults it (dirAt); until then its
// user word is nil and every block is Idle, the state a fresh directory
// holds, so a page only its home ever touches costs no directory.
type homeDir struct {
	blocks []blockDir
}

func newHomeDir(blocksPerPage int) *homeDir {
	return &homeDir{blocks: make([]blockDir, blocksPerPage)}
}

// idleBlock is every block of an absent directory. Only readers (the
// audit and the digest) see it, through homeDir.block; no one writes it.
var idleBlock blockDir

// block returns entry bi of a home page's directory. A nil directory is
// one no handler has consulted yet and reads as all Idle.
func (hd *homeDir) block(bi int) *blockDir {
	if hd == nil {
		return &idleBlock
	}
	return &hd.blocks[bi]
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
