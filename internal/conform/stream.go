package conform

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/trace"
	"github.com/tempest-sim/tempest/internal/wiretext"
)

// streamMagic is the format's first line; the trailing v1 is the format
// version — any incompatible change to the layout below must bump it.
const streamMagic = "tempest-conform-trace v1"

// Decode limits on the counts a header may claim. The committed corpus
// sits far below all three.
const (
	maxStreamEvents   = 1 << 22
	maxStreamCounters = 1 << 16
	maxStreamNodes    = 1 << 12 // PackMsg's node width
)

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
// it ran under, the merged event stream, and the run's outcome. The
// text form (Encode) is the committed-corpus format; it must be stable,
// so every field below is versioned by streamMagic.
type Stream struct {
	// Header: what ran.
	App      string // "em3d" or "ocean"
	System   string // harness.System name
	Workload string // "tiny" (the only committed scale)
	// Header: the machine configuration the run was recorded under. The
	// stream carries every field but MemPagesPerNode, Quantum (no corpus
	// pair sets either) and the one inert field; those stay zero.
	Cfg machine.Config
	// Truncated records the tracer's cap flag. Record refuses to emit a
	// truncated stream; the field exists so Replay can refuse one that
	// was hand-assembled or corrupted into claiming truncation.
	Truncated bool

	// Events is the recorded event stream in its canonical order:
	// node-major, each node's events in emission order (trace.Tracer.
	// NodeEvents). Emission order is the order the node's contexts made
	// the recorded calls — the order replay must re-issue sends in,
	// since injection-port claims take effect in call order — and it is
	// not always monotonic in time (a context can run with a lagging
	// clock), so the (time, node, seq) display merge would corrupt it.
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

// Counter returns a footer counter by name (zero when absent, matching
// stats.Counters.Get).
func (s *Stream) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Encode renders the stream in the committed text format: a fixed-order
// header, the event lines (trace.Event.String), and a fixed-order
// footer closed by an "end" line.
func (s *Stream) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", streamMagic)
	fmt.Fprintf(&b, "app %s\n", s.App)
	fmt.Fprintf(&b, "system %s\n", s.System)
	fmt.Fprintf(&b, "workload %s\n", s.Workload)
	c := &s.Cfg
	fmt.Fprintf(&b, "nodes %d\n", c.Nodes)
	fmt.Fprintf(&b, "cache %d\n", c.CacheSize)
	fmt.Fprintf(&b, "ways %d\n", c.CacheWays)
	fmt.Fprintf(&b, "block %d\n", c.BlockSize)
	fmt.Fprintf(&b, "tlb %d\n", c.TLBEntries)
	fmt.Fprintf(&b, "localmiss %d\n", c.LocalMissCycles)
	fmt.Fprintf(&b, "tlbmiss %d\n", c.TLBMissCycles)
	fmt.Fprintf(&b, "netlat %d\n", c.NetLatency)
	fmt.Fprintf(&b, "barlat %d\n", c.BarrierLatency)
	fmt.Fprintf(&b, "linkbw %d\n", c.LinkBytesPerCycle)
	fmt.Fprintf(&b, "occupancy %d\n", c.OccupancyCycles)
	fmt.Fprintf(&b, "seed %d\n", c.Seed)
	fmt.Fprintf(&b, "truncated %d\n", boolDigit(s.Truncated))
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

func boolDigit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// DecodeError is the structured failure every malformed stream decodes
// to — Decode never panics and never returns a partial Stream.
type DecodeError struct {
	Line int
	Msg  string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("conform: stream line %d: %s", e.Line, e.Msg)
}

// Decode parses a stream, returning a *DecodeError for any deviation
// from the format — wrong magic, out-of-order keys, unparseable events,
// counts that disagree with the lines present, a number or an event line
// not spelled the way Encode spells it, or trailing garbage — so a
// decoded stream re-encodes to exactly the bytes read. Below is the
// stream's field list over the shared reader (DESIGN.md "Text formats").
func Decode(data []byte) (*Stream, error) {
	r := wiretext.NewReader(string(data), "stream")
	cycles := func(key string) sim.Time { return sim.Time(r.Line(key).Uint()) }
	r.Line(streamMagic)
	s := &Stream{}
	s.App = r.Line("app").Token()
	s.System = r.Line("system").Token()
	s.Workload = r.Line("workload").Token()
	c := &s.Cfg
	if c.Nodes = r.Line("nodes").Int(); c.Nodes <= 0 || c.Nodes > maxStreamNodes {
		r.Failf("nodes %d outside [1, %d]", c.Nodes, maxStreamNodes)
	}
	c.CacheSize = r.Line("cache").Int()
	c.CacheWays = r.Line("ways").Int()
	c.BlockSize = r.Line("block").Int()
	c.TLBEntries = r.Line("tlb").Int()
	c.LocalMissCycles = cycles("localmiss")
	c.TLBMissCycles = cycles("tlbmiss")
	c.NetLatency = cycles("netlat")
	c.BarrierLatency = cycles("barlat")
	c.LinkBytesPerCycle = r.Line("linkbw").Int()
	c.OccupancyCycles = cycles("occupancy")
	c.Seed = r.Line("seed").Uint()
	s.Truncated = r.Line("truncated").UintMax(1) == 1
	// Events and counters are appended as their lines are read, so a
	// hostile count costs nothing until the lines are really there.
	nev := r.Line("events").UintMax(maxStreamEvents)
	for i := uint64(0); i < nev && r.Err() == nil; i++ {
		e, err := trace.ParseEvent(r.Raw("event"))
		if err != nil {
			r.Failf("event %d: %v", i, err)
		}
		s.Events = append(s.Events, e)
	}
	s.Cycles = cycles("cycles")
	s.ROICycles = cycles("roi")
	nctr := r.Line("counters").UintMax(maxStreamCounters)
	for i := uint64(0); i < nctr && r.Err() == nil; i++ {
		ctr := Counter{Name: r.Line("counter").Token(), Value: r.Uint()}
		if i > 0 && s.Counters[i-1].Name >= ctr.Name {
			r.Failf("counter %q out of sorted order", ctr.Name)
		}
		s.Counters = append(s.Counters, ctr)
	}
	for i := 0; i < c.Nodes && r.Err() == nil; i++ {
		if n := r.Line("obs").Int(); n != i {
			r.Failf("obs row for node %d, want node %d", n, i)
		}
		s.Obs = append(s.Obs, ObsRow{Node: i, Hash: r.Hex(), Ops: r.Uint()})
	}
	s.MemDigest = r.Line("mem").Token()
	if len(s.MemDigest) != 64 || strings.Trim(s.MemDigest, "0123456789abcdef") != "" {
		r.Failf("mem: want 64 lowercase hex digits, got %q", s.MemDigest)
	}
	s.ProtoDigest = r.Line("proto").Hex()
	s.TagsDigest = r.Line("tags").Hex()
	r.Line("end")
	r.End()
	var werr *wiretext.Error
	if errors.As(r.Err(), &werr) {
		return nil, &DecodeError{Line: werr.Line, Msg: werr.Msg}
	}
	return s, nil
}
