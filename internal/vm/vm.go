// Package vm models the user-level virtual-memory management mechanisms
// of the Tempest interface (paper §2.3): a flat paged address space per
// node with a user-reserved shared heap segment, explicit page
// map/unmap/remap, page modes that select user-level fault handlers, and
// the distributed table mapping shared virtual pages to their home nodes.
// The package provides mechanism only; replication and coherence policy
// live in the protocol libraries (internal/stache, internal/dirnnb,
// application-specific protocols).
package vm

import (
	"fmt"

	"github.com/tempest-sim/tempest/internal/mem"
)

// Address-space layout. Each node has private text/stack/heap segments
// (we model only the private heap; the paper ignores text and stack) and
// all nodes share one large user-reserved shared heap segment.
const (
	// PrivateBase is the base of each node's private heap.
	PrivateBase mem.VA = 0x0000_1000_0000
	// SharedBase is the base of the user-reserved shared segment.
	SharedBase mem.VA = 0x4000_0000_0000
)

// IsShared reports whether va falls in the shared segment.
func IsShared(va mem.VA) bool { return va >= SharedBase }

// Page modes. Mode selects the set of user-level handlers that serve a
// page's faults (the RTLB's page-mode field, paper §5.4). Values at or
// above ModeUser are free for protocol libraries; Stache and custom
// protocols register their own.
const (
	// ModePrivate pages are node-local with no coherence semantics.
	ModePrivate = 0
	// ModeUser is the first mode value available to protocol software.
	ModeUser = 1
)

// PTE is one page-table entry.
type PTE struct {
	PA mem.PA
	// Writable is the page-level protection bit (coarse-grain access
	// control, §2.3). Fine-grain control is per-block via tags.
	Writable bool
	// Mode selects the page's fault handlers.
	Mode int
}

// PageTable is one node's virtual-to-physical mapping: one dense table
// of page records per address-space region, indexed by the page's
// distance from the region base, so finding a page's record is a bounds
// check and an add. A table covers exactly the pages the owning System
// has reserved for the node (AllocShared, AllocPrivate), and grows only
// when it reserves more.
type PageTable struct {
	sys    *System
	node   int
	priv   []Record // from PrivateBase
	shared []Record // from SharedBase
	// stray is the record of every VPN outside the reserved ranges: never
	// mapped, so a reference there page-faults and the memory system
	// names it; its hints are shared, which costs such references TLB
	// hits, never a wrong translation.
	stray  Record
	mapped int
}

// Record is the page record: a node's page-table slot for one VPN. It
// holds the translation (a PTE, flattened so the record stays 32 bytes),
// the frame the translation maps, and the CPU's and NP's TLB hints, so a
// reference that hits the TLB and the cache loads one record.
type Record struct {
	frame    *mem.Frame
	pa       mem.PA
	mode     int
	writable bool
	mapped   bool
	// CPUHint and NPHint are this node's CPU-TLB and NP-TLB hints for
	// the page (cache.TLB). They survive Map and Unmap: a TLB caches a
	// page's presence, not its mapping.
	CPUHint, NPHint uint16
}

// Mapped reports whether the record holds a translation.
func (r *Record) Mapped() bool { return r.mapped }

// Writable reports the translation's page-level protection bit.
func (r *Record) Writable() bool { return r.writable }

// PA returns the translation's physical address.
func (r *Record) PA() mem.PA { return r.pa }

// Frame returns the frame the translation maps (nil when unmapped).
func (r *Record) Frame() *mem.Frame { return r.frame }

// PTE returns the translation as a page-table entry.
func (r *Record) PTE() PTE { return PTE{PA: r.pa, Writable: r.writable, Mode: r.mode} }

// region returns the table covering vpn and vpn's index in it; an
// address below the region's base wraps to an index past any table.
func (pt *PageTable) region(vpn uint64) ([]Record, uint64) {
	if vpn >= SharedBase.VPN() {
		return pt.shared, vpn - SharedBase.VPN()
	}
	return pt.priv, vpn - PrivateBase.VPN()
}

// Record returns vpn's page record, or the stray record if the System
// never reserved vpn for this node. Records move when the System
// reserves more address space, so a caller holding one across a blocking
// operation looks it up again.
func (pt *PageTable) Record(vpn uint64) *Record {
	if tbl, i := pt.region(vpn); i < uint64(len(tbl)) {
		return &tbl[i]
	}
	return &pt.stray
}

// Lookup returns the PTE for a virtual page number.
func (pt *PageTable) Lookup(vpn uint64) (PTE, bool) {
	r := pt.Record(vpn)
	return r.PTE(), r.mapped
}

// Map installs (or replaces) a translation. Protocol code remaps stache
// pages with it (paper §3: "these pages can be remapped or unmapped and
// freed"). The page must lie in a range the System has handed out
// (AllocShared, or AllocPrivate on this node), and the PA in an
// allocated frame, which the record then holds and which mem.FreeFrame
// refuses to free until Unmap or a remap lets go of it.
func (pt *PageTable) Map(vpn uint64, e PTE) {
	r := pt.Record(vpn)
	if r == &pt.stray {
		panic(fmt.Sprintf("vm: Map of VPN %#x on node %d, outside every reserved range", vpn, pt.node))
	}
	f := pt.sys.frame(e.PA)
	if f == nil {
		panic(fmt.Sprintf("vm: Map of VPN %#x on node %d to %#x, which no allocated frame holds", vpn, pt.node, e.PA))
	}
	if r.mapped {
		r.frame.Unpin()
	} else {
		pt.mapped++
	}
	f.Pin()
	r.frame, r.pa, r.mode, r.writable, r.mapped = f, e.PA, e.Mode, e.Writable, true
}

// Unmap removes a translation, returning the old entry. The record keeps
// its TLB hints.
func (pt *PageTable) Unmap(vpn uint64) (PTE, bool) {
	r := pt.Record(vpn)
	if !r.mapped {
		return PTE{}, false
	}
	e := r.PTE()
	r.frame.Unpin()
	*r = Record{CPUHint: r.CPUHint, NPHint: r.NPHint}
	pt.mapped--
	return e, true
}

// Mapped returns the number of live translations.
func (pt *PageTable) Mapped() int { return pt.mapped }

// Placement assigns shared pages to home nodes. A page's home is fixed
// when its segment is allocated and never changes.
type Placement interface {
	// HomeFor returns the home node, in [0, nodes), of the pageIdx'th of
	// a segment's pages.
	HomeFor(pageIdx, pages, nodes int) int
	String() string
}

// RoundRobin distributes pages cyclically — IVY's fixed distributed
// manager algorithm, Stache's default (paper §7).
type RoundRobin struct{}

// HomeFor implements Placement.
func (RoundRobin) HomeFor(pageIdx, pages, nodes int) int { return pageIdx % nodes }
func (RoundRobin) String() string                        { return "round-robin" }

// Blocked gives each node one contiguous run of ceil(pages/nodes) pages
// (owner-computes layouts want this); a short segment leaves the last
// nodes without pages.
type Blocked struct{}

// HomeFor implements Placement.
func (Blocked) HomeFor(pageIdx, pages, nodes int) int {
	return min(pageIdx/((pages+nodes-1)/nodes), nodes-1)
}
func (Blocked) String() string { return "blocked" }

// OnNode places every page of the segment on one node.
type OnNode struct{ Node int }

// HomeFor implements Placement.
func (p OnNode) HomeFor(pageIdx, pages, nodes int) int { return p.Node }
func (p OnNode) String() string                        { return fmt.Sprintf("on-node-%d", p.Node) }

// Segment is one allocation in the shared segment.
type Segment struct {
	Name  string
	Base  mem.VA
	Size  uint64
	Mode  int
	Place Placement
}

// At returns the virtual address at byte offset off.
func (s *Segment) At(off uint64) mem.VA {
	if off >= s.Size {
		panic(fmt.Sprintf("vm: offset %d out of segment %q (size %d)", off, s.Name, s.Size))
	}
	return s.Base + mem.VA(off)
}

// End returns the first address past the segment.
func (s *Segment) End() mem.VA { return s.Base + mem.VA(s.Size) }

// Pages returns the number of pages the segment spans.
func (s *Segment) Pages() int {
	return int((uint64(s.Base.PageOffset()) + s.Size + mem.PageSize - 1) / mem.PageSize)
}

// System is the machine-wide address-space state: per-node page tables,
// the segment list, and the distributed home-mapping table.
type System struct {
	nodes  int
	mems   []*mem.Memory
	tables []*PageTable
	segs   []*Segment
	// homes is the home node of every allocated shared page, indexed by
	// the page's distance from SharedBase; the next segment starts where
	// it ends.
	homes []int
}

// NewSystem returns an address-space manager for the nodes whose
// memories mems are, in node order.
func NewSystem(mems []*mem.Memory) *System {
	s := &System{nodes: len(mems), mems: mems}
	for i := range mems {
		s.tables = append(s.tables, &PageTable{sys: s, node: i})
	}
	return s
}

// Nodes returns the node count.
func (s *System) Nodes() int { return s.nodes }

// Table returns node's page table.
func (s *System) Table(node int) *PageTable { return s.tables[node] }

// frame returns the frame holding pa, or nil.
func (s *System) frame(pa mem.PA) *mem.Frame {
	if n := pa.Node(); n < len(s.mems) {
		return s.mems[n].Frame(pa)
	}
	return nil
}

// Segments returns the allocated shared segments.
func (s *System) Segments() []*Segment { return s.segs }

// AllocShared reserves a page-aligned range of the shared segment and
// records each page's home node in the distributed mapping table. It does
// not allocate frames: what a mapping means is protocol policy.
func (s *System) AllocShared(name string, size uint64, place Placement, mode int) *Segment {
	if size == 0 {
		panic("vm: zero-size shared allocation")
	}
	if place == nil {
		place = RoundRobin{}
	}
	base := SharedBase + mem.VA(len(s.homes)*mem.PageSize)
	pages := int((size + mem.PageSize - 1) / mem.PageSize)
	seg := &Segment{Name: name, Base: base, Size: size, Mode: mode, Place: place}
	s.segs = append(s.segs, seg)
	for _, pt := range s.tables {
		pt.shared = append(pt.shared, make([]Record, pages)...)
	}
	for i := 0; i < pages; i++ {
		s.homes = append(s.homes, place.HomeFor(i, pages, s.nodes))
	}
	return seg
}

// Home returns the home node of a shared page, fixed when its segment
// was allocated. It panics for addresses outside the shared segments.
func (s *System) Home(va mem.VA) int {
	i := va.VPN() - SharedBase.VPN() // a private address wraps past the table
	if i >= uint64(len(s.homes)) {
		panic(fmt.Sprintf("vm: %#x is not an allocated shared address", va))
	}
	return s.homes[i]
}

// SegmentOf returns the shared segment holding va, or nil when no
// segment does (a private address, or a shared one past a segment's
// last byte).
func (s *System) SegmentOf(va mem.VA) *Segment {
	for _, seg := range s.segs {
		if va >= seg.Base && va < seg.End() {
			return seg
		}
	}
	return nil
}

// AllocPrivate reserves size bytes of node-private address space and maps
// frames for it from the node's memory, tagged ReadWrite with
// ModePrivate. Private pages have no coherence semantics.
func (s *System) AllocPrivate(node int, size uint64) mem.VA {
	if size == 0 {
		panic("vm: zero-size private allocation")
	}
	pt := s.tables[node]
	base := PrivateBase + mem.VA(len(pt.priv)*mem.PageSize)
	pages := int((size + mem.PageSize - 1) / mem.PageSize)
	pt.priv = append(pt.priv, make([]Record, pages)...)
	for i := 0; i < pages; i++ {
		pa := s.mems[node].AllocFrame(mem.TagReadWrite)
		pt.Map(base.VPN()+uint64(i), PTE{PA: pa, Writable: true, Mode: ModePrivate})
	}
	return base
}

// Translate resolves va on node, returning the physical address and PTE.
// ok is false when the page is unmapped (a page fault in Typhoon).
func (s *System) Translate(node int, va mem.VA) (mem.PA, PTE, bool) {
	pte, ok := s.tables[node].Lookup(va.VPN())
	if !ok {
		return 0, PTE{}, false
	}
	return pte.PA.FrameBase() + mem.PA(va.PageOffset()), pte, true
}

// MapPage installs a writable translation for va's page with the given
// mode — the common protocol-handler idiom.
func (pt *PageTable) MapPage(va mem.VA, pa mem.PA, mode int) {
	pt.Map(va.VPN(), PTE{PA: pa.FrameBase(), Writable: true, Mode: mode})
}
