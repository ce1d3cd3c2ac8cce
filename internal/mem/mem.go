// Package mem models each node's physical memory: 4 KB frames of real
// bytes plus the fine-grain access tags of the Tempest interface (paper
// §2.4). Every aligned memory block (32 bytes by default) carries a tag —
// ReadWrite, ReadOnly, Invalid, or Busy — and the package implements the
// memory-resident parts of the nine tagged-block operations of the paper's
// Table 1. The operations with hardware- or thread-side effects (read and
// write with tag check on the bus, invalidate's cache purge, resume's
// thread wakeup) acquire those semantics in internal/typhoon, which
// composes this package with the cache and scheduler models.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// VA is a virtual address in a node's (or the shared segment's) address
// space.
type VA uint64

// PA is a global physical address. The owning node's ID is encoded in the
// high bits so a physical address names both a node and an offset in that
// node's DRAM, the way a NUMA machine's address map does.
type PA uint64

const (
	// PageSize is the virtual-memory page size (Table 2).
	PageSize = 4096
	// DefaultBlockSize is the coherence-block size (Table 2). The block
	// size is configurable per Memory for the block-size ablation.
	DefaultBlockSize = 32

	paNodeShift = 40
	paOffMask   = (PA(1) << paNodeShift) - 1
)

// MakePA builds a global physical address from a node ID and a byte
// offset into that node's DRAM.
func MakePA(node int, off uint64) PA {
	return PA(node)<<paNodeShift | PA(off)
}

// Node returns the node that owns this physical address.
func (pa PA) Node() int { return int(pa >> paNodeShift) }

// Offset returns the byte offset within the owning node's DRAM.
func (pa PA) Offset() uint64 { return uint64(pa & paOffMask) }

// FrameBase returns the physical address of the page frame containing pa.
func (pa PA) FrameBase() PA { return pa &^ PA(PageSize-1) }

// PageOffset returns pa's offset within its page.
func (pa PA) PageOffset() uint64 { return uint64(pa) & (PageSize - 1) }

// PageBase returns the page-aligned base of va.
func (va VA) PageBase() VA { return va &^ VA(PageSize-1) }

// PageOffset returns va's offset within its page.
func (va VA) PageOffset() uint64 { return uint64(va) & (PageSize - 1) }

// VPN returns va's virtual page number.
func (va VA) VPN() uint64 { return uint64(va) / PageSize }

// Tag is a fine-grain access tag on a memory block (paper §2.4).
type Tag uint8

// Tag values. Busy has Invalid's access semantics but lets protocol
// software distinguish blocks needing special handling (e.g. an
// outstanding prefetch), exactly as the Typhoon RTLB encodes it.
const (
	TagInvalid Tag = iota
	TagReadOnly
	TagReadWrite
	TagBusy
)

func (t Tag) String() string {
	switch t {
	case TagInvalid:
		return "Invalid"
	case TagReadOnly:
		return "ReadOnly"
	case TagReadWrite:
		return "ReadWrite"
	case TagBusy:
		return "Busy"
	}
	return fmt.Sprintf("Tag(%d)", uint8(t))
}

// PermitsRead reports whether a tag-checked load may complete (Table 1:
// read).
func (t Tag) PermitsRead() bool { return t == TagReadOnly || t == TagReadWrite }

// PermitsWrite reports whether a tag-checked store may complete (Table 1:
// write).
func (t Tag) PermitsWrite() bool { return t == TagReadWrite }

// Frame is one physical page: real data bytes plus one access tag per
// block. A frame also carries the per-page protocol state Typhoon's RTLB
// makes available to fault handlers (page mode plus 48 bits of
// uninterpreted user state; we give user code two full words).
type Frame struct {
	Data []byte
	Tags []Tag

	// Mode selects which user-level fault handlers serve this page
	// (the RTLB's four-bit page-mode field).
	Mode int
	// Home is protocol state: the home node ID cached for this page
	// (part of the RTLB's uninterpreted state in the paper).
	Home int
	// User is an opaque pointer-sized value for protocol software, e.g.
	// Stache hangs its per-page directory vector here.
	User interface{}

	// maps counts the page-table slots that map the frame (vm.PageTable
	// keeps it through Pin and Unpin); FreeFrame refuses a mapped frame.
	maps int
}

// Pin counts one more page-table slot mapping the frame.
func (f *Frame) Pin() { f.maps++ }

// Unpin counts one page-table slot mapping the frame fewer.
func (f *Frame) Unpin() { f.maps-- }

// Mapped returns how many page-table slots map the frame.
func (f *Frame) Mapped() int { return f.maps }

// ReadU64 reads the 8-byte word at pa, which must lie in the frame.
func (f *Frame) ReadU64(pa PA) uint64 {
	off := pa.PageOffset()
	return binary.LittleEndian.Uint64(f.Data[off : off+8])
}

// WriteU64 writes the 8-byte word at pa, which must lie in the frame.
func (f *Frame) WriteU64(pa PA, v uint64) {
	off := pa.PageOffset()
	binary.LittleEndian.PutUint64(f.Data[off:off+8], v)
}

// Memory is one node's DRAM: a pool of frames addressed by physical page
// number.
type Memory struct {
	node      int
	blockSize int

	// frames is indexed by frame number (offset / PageSize); offsets are
	// handed out densely from zero, so it is as long as the high-water
	// mark of live frames. A freed frame's slot is nil until freeOffs
	// (LIFO) hands its offset out again.
	frames   []*Frame
	inUse    int
	freeOffs []uint64
}

// Config configures a node memory.
type Config struct {
	// BlockSize is the coherence-block size in bytes; it must be a power
	// of two in [8, PageSize]. Zero means DefaultBlockSize.
	BlockSize int
}

// New returns an empty memory for the given node.
func New(node int, cfg Config) *Memory {
	bs := cfg.BlockSize
	if bs == 0 {
		bs = DefaultBlockSize
	}
	if bs < 8 || bs > PageSize || bs&(bs-1) != 0 {
		panic(fmt.Sprintf("mem: invalid block size %d", bs))
	}
	return &Memory{node: node, blockSize: bs}
}

// Node returns the node ID this memory belongs to.
func (m *Memory) Node() int { return m.node }

// BlockSize returns the coherence-block size in bytes.
func (m *Memory) BlockSize() int { return m.blockSize }

// BlocksPerPage returns the number of tagged blocks in one page.
func (m *Memory) BlocksPerPage() int { return PageSize / m.blockSize }

// FramesInUse returns the number of allocated frames.
func (m *Memory) FramesInUse() int { return m.inUse }

// BlockBase returns the block-aligned base of a physical address.
func (m *Memory) BlockBase(pa PA) PA { return pa &^ PA(m.blockSize-1) }

// BlockIndex returns the index of pa's block within its page.
func (m *Memory) BlockIndex(pa PA) int { return int(pa.PageOffset()) / m.blockSize }

// AllocFrame allocates a zeroed frame with every block tagged
// initialTag and returns its physical base address.
func (m *Memory) AllocFrame(initialTag Tag) PA {
	var off uint64
	if n := len(m.freeOffs); n > 0 {
		off = m.freeOffs[n-1]
		m.freeOffs = m.freeOffs[:n-1]
	} else {
		off = uint64(len(m.frames)) * PageSize
		m.frames = append(m.frames, nil)
	}
	f := &Frame{
		Data: make([]byte, PageSize),
		Tags: make([]Tag, m.BlocksPerPage()),
		Home: -1,
	}
	if initialTag != TagInvalid {
		for i := range f.Tags {
			f.Tags[i] = initialTag
		}
	}
	m.frames[off/PageSize] = f
	m.inUse++
	return MakePA(m.node, off)
}

// FreeFrame releases a frame back to the pool. A frame some page table
// still maps is refused: its slot would keep reading a frame the pool
// hands out again.
func (m *Memory) FreeFrame(pa PA) {
	f := m.Frame(pa)
	if f == nil {
		panic(fmt.Sprintf("mem: FreeFrame of unallocated frame %#x on node %d", pa, m.node))
	}
	if f.maps > 0 {
		panic(fmt.Sprintf("mem: FreeFrame of frame %#x on node %d, which %d page-table slots still map", pa.FrameBase(), m.node, f.maps))
	}
	off := pa.FrameBase().Offset()
	m.frames[off/PageSize] = nil
	m.inUse--
	m.freeOffs = append(m.freeOffs, off)
}

// Frame returns the frame containing pa, or nil if unallocated or owned
// by another node.
func (m *Memory) Frame(pa PA) *Frame {
	fn := pa.Offset() / PageSize
	if pa.Node() != m.node || fn >= uint64(len(m.frames)) {
		return nil
	}
	return m.frames[fn]
}

// MustFrame returns the frame containing pa and panics, naming pa, if
// there is none.
func (m *Memory) MustFrame(pa PA) *Frame {
	f := m.Frame(pa)
	if f == nil {
		panic(fmt.Sprintf("mem: access to unmapped physical address %#x (node %d, owner %d)", pa, m.node, pa.Node()))
	}
	return f
}

// Tag returns the access tag of the block containing pa (Table 1:
// read-tag).
func (m *Memory) Tag(pa PA) Tag {
	return m.MustFrame(pa).Tags[m.BlockIndex(pa)]
}

// SetTag sets the access tag of the block containing pa (Table 1:
// set-RW / set-RO, and the tag-change half of invalidate).
func (m *Memory) SetTag(pa PA, t Tag) {
	m.MustFrame(pa).Tags[m.BlockIndex(pa)] = t
}

// SetPageTags sets the tag of every block in pa's page.
func (m *Memory) SetPageTags(pa PA, t Tag) {
	f := m.MustFrame(pa)
	for i := range f.Tags {
		f.Tags[i] = t
	}
}

// ReadU64 performs a force-read of the 8-byte word at pa (Table 1:
// force-read — no tag check; the NP and protocol handlers use this).
func (m *Memory) ReadU64(pa PA) uint64 { return m.MustFrame(pa).ReadU64(pa) }

// WriteU64 performs a force-write of the 8-byte word at pa (Table 1:
// force-write).
func (m *Memory) WriteU64(pa PA, v uint64) { m.MustFrame(pa).WriteU64(pa, v) }

// ReadF64 force-reads the float64 at pa.
func (m *Memory) ReadF64(pa PA) float64 { return math.Float64frombits(m.ReadU64(pa)) }

// WriteF64 force-writes the float64 at pa.
func (m *Memory) WriteF64(pa PA, v float64) { m.WriteU64(pa, math.Float64bits(v)) }

// ReadBlock copies the block containing pa into dst, which must be at
// least BlockSize bytes, and returns the number of bytes copied.
func (m *Memory) ReadBlock(pa PA, dst []byte) int {
	f := m.MustFrame(pa)
	base := m.BlockBase(pa).PageOffset()
	return copy(dst, f.Data[base:base+uint64(m.blockSize)])
}

// WriteBlock force-writes src (BlockSize bytes) into the block containing
// pa.
func (m *Memory) WriteBlock(pa PA, src []byte) {
	if len(src) != m.blockSize {
		panic(fmt.Sprintf("mem: WriteBlock with %d bytes, want %d", len(src), m.blockSize))
	}
	f := m.MustFrame(pa)
	base := m.BlockBase(pa).PageOffset()
	copy(f.Data[base:base+uint64(m.blockSize)], src)
}

// ReadRange copies n bytes starting at pa into dst (must stay within one
// page). Bulk transfers use it.
func (m *Memory) ReadRange(pa PA, dst []byte) {
	f := m.MustFrame(pa)
	off := pa.PageOffset()
	if off+uint64(len(dst)) > PageSize {
		panic("mem: ReadRange crosses page boundary")
	}
	copy(dst, f.Data[off:off+uint64(len(dst))])
}

// WriteRange copies src into memory starting at pa (must stay within one
// page).
func (m *Memory) WriteRange(pa PA, src []byte) {
	f := m.MustFrame(pa)
	off := pa.PageOffset()
	if off+uint64(len(src)) > PageSize {
		panic("mem: WriteRange crosses page boundary")
	}
	copy(f.Data[off:off+uint64(len(src))], src)
}
