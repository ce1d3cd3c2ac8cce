package conform

import (
	"bytes"
	"fmt"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/trace"
)

// streamMagic is the format's first line; the trailing v1 is the format
// version — any incompatible change to the layout below must bump it.
const streamMagic = "tempest-conform-trace v1"

// Counter is one footer counter (sorted by name in the stream).
type Counter struct {
	Name  string
	Value uint64
}

// ObsRow is one node's final observation (machine.Proc.Observation).
type ObsRow struct {
	Node int
	Hash uint64
	Ops  uint64
}

// Stream is one recorded conformance trace: the machine configuration
// it ran under, the recorded event stream, and the run's outcome. The
// text form (Encode) is the committed-corpus format; it must be stable,
// so every field below is versioned by streamMagic.
type Stream struct {
	// Header: what ran.
	App      string // "em3d" or "ocean"
	System   string // harness.System name
	Workload string // "tiny" (the only committed scale)
	// Header: the machine configuration the run was recorded under. The
	// stream carries every field but Quantum (no corpus pair sets it) and
	// the one inert field.
	Cfg machine.Config

	// Events is the recorded event stream in its canonical order:
	// node-major, each node's events in emission order (trace.Tracer.
	// NodeEvents). Emission order is the order the node's contexts made
	// the recorded calls, and it is not always monotonic in time (a
	// context can run with a lagging clock); the (time, node) order of
	// trace.Tracer.Events would hide the order the injection port served
	// a node's sends in.
	Events []trace.Event

	// Footer: the run's outcome.
	Cycles      sim.Time
	ROICycles   sim.Time
	Counters    []Counter // name-sorted, engine.* excluded
	Obs         []ObsRow  // one per node, node order
	MemDigest   string    // harness.SharedMemoryDigest
	ProtoDigest uint64    // protocol StateDigest
	TagsDigest  uint64    // typhoon.System.StateDigest (0 for dirnnb)
}

// Encode renders the stream in the committed text format: a fixed-order
// header, the event lines (trace.Event.String), and a fixed-order
// footer closed by an "end" line. The header's truncated flag is always
// 0: Record refuses a recording whose tracer dropped events.
func (s *Stream) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", streamMagic)
	fmt.Fprintf(&b, "app %s\n", s.App)
	fmt.Fprintf(&b, "system %s\n", s.System)
	fmt.Fprintf(&b, "workload %s\n", s.Workload)
	c := &s.Cfg
	fmt.Fprintf(&b, "nodes %d\n", c.Nodes)
	fmt.Fprintf(&b, "cache %d\n", c.CacheSize)
	fmt.Fprintf(&b, "ways %d\n", machine.CacheWays)
	fmt.Fprintf(&b, "block %d\n", c.BlockSize)
	fmt.Fprintf(&b, "tlb %d\n", machine.TLBEntries)
	fmt.Fprintf(&b, "localmiss %d\n", machine.LocalMissCycles)
	fmt.Fprintf(&b, "tlbmiss %d\n", machine.TLBMissCycles)
	fmt.Fprintf(&b, "netlat %d\n", c.NetLatency)
	fmt.Fprintf(&b, "barlat %d\n", machine.BarrierLatency)
	fmt.Fprintf(&b, "linkbw %d\n", c.LinkBytesPerCycle)
	fmt.Fprintf(&b, "occupancy %d\n", c.OccupancyCycles)
	fmt.Fprintf(&b, "seed %d\n", c.Seed)
	fmt.Fprintf(&b, "truncated 0\n")
	fmt.Fprintf(&b, "events %d\n", len(s.Events))
	for _, e := range s.Events {
		fmt.Fprintf(&b, "%s\n", e.String())
	}
	fmt.Fprintf(&b, "cycles %d\n", s.Cycles)
	fmt.Fprintf(&b, "roi %d\n", s.ROICycles)
	fmt.Fprintf(&b, "counters %d\n", len(s.Counters))
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "counter %s %d\n", c.Name, c.Value)
	}
	for _, o := range s.Obs {
		fmt.Fprintf(&b, "obs %d %#x %d\n", o.Node, o.Hash, o.Ops)
	}
	fmt.Fprintf(&b, "mem %s\n", s.MemDigest)
	fmt.Fprintf(&b, "proto %#x\n", s.ProtoDigest)
	fmt.Fprintf(&b, "tags %#x\n", s.TagsDigest)
	fmt.Fprintf(&b, "end\n")
	return b.Bytes()
}
