// Package tempest is a simulation library reproducing "Tempest and
// Typhoon: User-Level Shared Memory" (Reinhardt, Larus, and Wood,
// ISCA 1994).
//
// The package simulates two 32-node parallel machines built from the same
// workstation-like nodes and network:
//
//   - Typhoon: each node adds a user-level programmable network-interface
//     processor (NP) that implements the Tempest interface — low-overhead
//     active messages, bulk data transfer, user-level virtual-memory
//     management, and fine-grain access control over tagged 32-byte
//     memory blocks. Shared memory is provided by user-level protocol
//     libraries: the bundled Stache protocol (transparent shared memory
//     over local-DRAM caching of remote data) or application-specific
//     protocols such as the EM3D delayed-update protocol.
//
//   - DirNNB: a conventional all-hardware directory cache-coherence
//     machine, the paper's baseline.
//
// Programs are written as SPMD bodies against Proc, whose loads, stores,
// barriers, and message operations all charge simulated cycles. Runs are
// deterministic: the same configuration always produces bit-identical
// results.
//
// Quick start:
//
//	cfg := tempest.DefaultConfig()
//	cfg.Nodes = 8
//	m, _ := tempest.NewTyphoonStache(cfg)
//	data := m.AllocShared("data", 1<<20, tempest.RoundRobin{}, 0)
//	res, err := m.Run(func(p *tempest.Proc) {
//	    p.WriteU64(data.At(uint64(8*p.ID())), uint64(p.ID()))
//	    p.Barrier()
//	    _ = p.ReadU64(data.At(uint64(8 * ((p.ID() + 1) % p.N()))))
//	})
package tempest

import (
	"github.com/tempest-sim/tempest/internal/blizzard"
	"github.com/tempest-sim/tempest/internal/dirnnb"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/stache"
	"github.com/tempest-sim/tempest/internal/stats"
	"github.com/tempest-sim/tempest/internal/trace"
	"github.com/tempest-sim/tempest/internal/tsync"
	"github.com/tempest-sim/tempest/internal/typhoon"
	"github.com/tempest-sim/tempest/internal/vm"
)

// Core machine types.
type (
	// Config carries the Table 2 simulation parameters.
	Config = machine.Config
	// Machine is one simulated target system.
	Machine = machine.Machine
	// Proc is the SPMD programming surface: one simulated processor.
	Proc = machine.Proc
	// Result summarises one run.
	Result = machine.Result
	// Segment is a shared-memory allocation.
	Segment = vm.Segment
	// Counters is the named event-count set in a Result.
	Counters = stats.Counters
)

// Address and tag types.
type (
	// VA is a simulated virtual address.
	VA = mem.VA
	// Tag is a fine-grain access tag (Table 1 of the paper).
	Tag = mem.Tag
)

// Tag values.
const (
	TagInvalid   = mem.TagInvalid
	TagReadOnly  = mem.TagReadOnly
	TagReadWrite = mem.TagReadWrite
	TagBusy      = mem.TagBusy
)

// Page and block geometry.
const (
	// PageSize is the virtual-memory page size in bytes.
	PageSize = mem.PageSize
	// DefaultBlockSize is the default coherence-block size in bytes.
	DefaultBlockSize = mem.DefaultBlockSize
)

// Placement policies for shared segments.
type (
	// RoundRobin homes consecutive pages on consecutive nodes.
	RoundRobin = vm.RoundRobin
	// Blocked gives each node one contiguous run of pages.
	Blocked = vm.Blocked
	// OnNode homes the whole segment on one node.
	OnNode = vm.OnNode
)

// Typhoon extension surface, for building custom user-level protocols on
// the Tempest interface (the paper's §4).
type (
	// TyphoonSystem exposes the Tempest mechanisms and registries.
	TyphoonSystem = typhoon.System
	// NP is one node's network-interface processor, the execution
	// context of message and fault handlers.
	NP = typhoon.NP
	// TyphoonProtocol is a user-level memory-system policy.
	TyphoonProtocol = typhoon.Protocol
	// PageModeOps holds the fault handlers for one page mode.
	PageModeOps = typhoon.PageModeOps
	// BlockFault describes one block access fault.
	BlockFault = typhoon.Fault
	// Packet is an active message.
	Packet = network.Packet
	// Handler is a user-level message handler running on an NP.
	Handler = typhoon.Handler
	// Bulk is a handle on an asynchronous bulk data transfer.
	Bulk = typhoon.Bulk
	// Stache is the bundled transparent-shared-memory protocol.
	Stache = stache.Protocol
	// StacheOption configures the Stache library.
	StacheOption = stache.Option
	// Tracer records a run's events for debugging: attach one to any
	// machine with m.Net.Tracer = NewTracer(0) before Run. Every system
	// records its network-level message stream; Typhoon machines add
	// protocol-level events (faults, handler dispatches, tag changes).
	Tracer = trace.Tracer
	// TraceEvent is one recorded protocol event.
	TraceEvent = trace.Event
)

// Virtual networks for user-level messaging.
const (
	// VNetRequest is the low-priority request network.
	VNetRequest = network.VNetRequest
	// VNetReply is the high-priority reply network.
	VNetReply = network.VNetReply
)

// DefaultConfig returns the paper's Table 2 parameters: 32 nodes, 256 KB
// 4-way CPU caches, 32-byte blocks, 64-entry TLBs, and the published
// latency set.
func DefaultConfig() Config { return machine.DefaultConfig() }

// NewTyphoonStache builds a Typhoon machine running the Stache
// transparent-shared-memory protocol (the paper's Typhoon/Stache
// system). The returned Stache handle exposes protocol statistics and
// the coherence invariant checker.
func NewTyphoonStache(cfg Config, opts ...StacheOption) (*Machine, *Stache) {
	m := machine.New(cfg)
	st := stache.New(opts...)
	typhoon.New(m, st)
	return m, st
}

// NewTyphoon builds a Typhoon machine running a custom user-level
// protocol. Most custom protocols embed or compose Stache (see
// examples/custom-protocol).
func NewTyphoon(cfg Config, proto TyphoonProtocol) (*Machine, *TyphoonSystem) {
	m := machine.New(cfg)
	sys := typhoon.New(m, proto)
	return m, sys
}

// NewTracer returns a tracer retaining up to max events (0 = a large
// default); set it as a machine's m.Net.Tracer to record the run.
func NewTracer(max int) *Tracer { return trace.New(max) }

// NewDirNNB builds the all-hardware DirNNB baseline machine.
func NewDirNNB(cfg Config) *Machine {
	m := machine.New(cfg)
	dirnnb.New(m)
	return m
}

// BlizzardConfig tunes the software Tempest implementation's costs; the
// zero value selects the defaults.
type BlizzardConfig = blizzard.Config

// NewBlizzardStache builds a software Tempest machine (no NP hardware:
// inline access checks plus handlers on the main processor — the
// paper's §2 "native version for existing machines", later published as
// Blizzard) running the unmodified Stache library.
func NewBlizzardStache(cfg Config, bcfg BlizzardConfig, opts ...StacheOption) (*Machine, *Stache) {
	m := machine.New(cfg)
	st := stache.New(opts...)
	blizzard.New(m, st, bcfg)
	return m, st
}

// StacheMaxPages bounds each node's stache-page budget, enabling FIFO
// page replacement.
func StacheMaxPages(n int) StacheOption { return stache.WithMaxPages(n) }

// StacheMigratory enables migratory-sharing detection: read-then-write
// blocks are granted exclusively on reads, collapsing the fetch+upgrade
// double round trip. Off by default (the paper's Stache is the baseline).
func StacheMigratory() StacheOption { return stache.WithMigratory() }

// TyphoonOf returns the Typhoon system behind a machine, or nil when the
// machine is a DirNNB system. Applications use it to reach the Tempest
// messaging and bulk-transfer mechanisms.
func TyphoonOf(m *Machine) *TyphoonSystem {
	sys, _ := m.Sys.(*typhoon.System)
	return sys
}

// NewStacheProtocol returns an unattached Stache protocol instance for
// composition into custom protocols (embed it and override Attach,
// SetupSegment, and Name; see examples/custom-protocol).
func NewStacheProtocol(opts ...StacheOption) *Stache { return stache.New(opts...) }

// SyncManager provides user-level synchronization primitives — FIFO
// queue locks and fetch-and-add counters served by NP message handlers —
// the extension the paper's §2 footnote sketches.
type SyncManager = tsync.Manager

// NewSync registers a SyncManager with nLocks locks and nCounters
// counters on a Typhoon system. Call before Machine.Run.
func NewSync(sys *TyphoonSystem, nLocks, nCounters int) *SyncManager {
	return tsync.New(sys, nLocks, nCounters)
}
