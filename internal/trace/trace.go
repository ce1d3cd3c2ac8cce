// Package trace records protocol-level events — block faults, message
// sends and deliveries, thread resumes, page faults — with simulated
// timestamps, for debugging user-level protocols. Tracing is off unless
// a Tracer is attached to the Typhoon system; the hot paths pay only a
// nil check.
//
// Events are captured in per-node buffers: every emission names the node
// it happened on. The global stream is reconstructed on demand by a
// deterministic merge keyed the same way the engine orders simultaneous
// events — (time, node, per-node emission order). The committed
// conformance corpus is recorded node-major instead (NodeEvents).
package trace

import (
	"fmt"
	"io"
	"sort"

	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/sim"
)

// Kind classifies an event.
type Kind uint8

// Event kinds. KMsgSend/KMsgRecv are the protocol-level view (a Typhoon
// NP issuing or dispatching a message, before costs); KNetSend,
// KNetArrive and KNetDeliver are the network-level view recorded by the
// conformance taps (network.Network.OnSend and OnDeliver,
// agent.Core.OnDispatch) — they exist for every protocol, DirNNB
// included, and carry each packet's identity packed into Aux (PackMsg).
const (
	KBlockFault Kind = iota
	KPageFault
	KMsgSend
	KMsgRecv
	KResume
	KTagChange
	// KNetSend is a packet handed to the network: T is the cycle the
	// sender issued it (before any SendAfter delay), VA holds that delay
	// (the SendAfter extra), and Aux is PackMsg of the packet.
	KNetSend
	// KNetDeliver is a packet dispatched by a protocol agent: T is the
	// cycle the dispatch started (after occupancy waits), VA holds the
	// service time the dispatch consumed, and Aux is PackMsg.
	KNetDeliver
	// KNetArrive is a packet enqueued at its destination endpoint: T is
	// the delivery time (after any ejection-port serialisation), VA is
	// zero, and Aux is PackMsg.
	KNetArrive
)

func (k Kind) String() string {
	switch k {
	case KBlockFault:
		return "block-fault"
	case KPageFault:
		return "page-fault"
	case KMsgSend:
		return "msg-send"
	case KMsgRecv:
		return "msg-recv"
	case KResume:
		return "resume"
	case KTagChange:
		return "tag-change"
	case KNetSend:
		return "net-send"
	case KNetDeliver:
		return "net-deliver"
	case KNetArrive:
		return "net-arrive"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// PackMsg packs a packet's identity for a network-level event's Aux:
// handler ID (16 bits), source and destination node (12 bits each), the
// virtual network (1 bit), and the payload size in bytes (8 bits — the
// network caps payloads at 80). Values outside those widths panic: the
// encoding is part of the committed-corpus format and must not alias.
func PackMsg(handler uint32, src, dst int, vnet uint8, bytes int) uint64 {
	if handler >= 1<<16 || src < 0 || src >= 1<<12 || dst < 0 || dst >= 1<<12 || vnet > 1 || bytes < 0 || bytes >= 1<<8 {
		panic(fmt.Sprintf("trace: PackMsg field out of range (handler=%d src=%d dst=%d vnet=%d bytes=%d)",
			handler, src, dst, vnet, bytes))
	}
	return uint64(handler) | uint64(src)<<16 | uint64(dst)<<28 | uint64(vnet)<<40 | uint64(bytes)<<41
}

// Event is one recorded protocol event.
type Event struct {
	T    sim.Time
	Node int
	Kind Kind
	VA   mem.VA
	// Aux carries a kind-specific value: the handler ID for messages,
	// the new tag for tag changes, 1 for writes on faults.
	Aux uint64
}

// String is the event's one text form, the committed-corpus line.
func (e Event) String() string {
	return fmt.Sprintf("%10d node%-3d %-12s va=%#x aux=%d", e.T, e.Node, e.Kind, e.VA, e.Aux)
}

// nodeBuf is one node's capture buffer: node-local state, appended to by
// that node's contexts only.
type nodeBuf struct {
	events  []Event
	dropped uint64
}

// Tracer collects events up to a cap (oldest kept), with an optional
// filter. The cap is divided evenly across the node buffers (at least
// one event per node).
//
// Cap behaviour at the buffer boundary: when a node's buffer reaches its
// per-node share of Max, every later emission for that node is counted
// in Dropped and discarded; the events already captured are kept (oldest-kept policy).
// The merged stream is then a prefix per node, not a prefix in global
// time: other nodes keep recording, so the merge interleaves complete
// and truncated nodes. Consumers that need a complete stream (the
// conformance corpus) must check Truncated and refuse the trace rather
// than keep a silently-partial recording.
//
// A Tracer belongs to exactly one simulated machine: call Prepare with
// the machine's node count before the run (typhoon.New does this for
// attached tracers), so the per-node cap is final before the first
// emission. Events, Dropped, CountByKind, Dump, and Reset inspect or clear all buffers at
// once and must only run while the machine is not (single-goroutine use
// before or after Run). When the harness runs machines in parallel
// (harness.RunAll), attach a separate Tracer to each machine. Reset lets
// a single goroutine reuse a Tracer (and its backing storage) across
// sequential runs.
type Tracer struct {
	// Filter, when non-nil, drops events it returns false for.
	Filter func(Event) bool
	// Max bounds the total number of retained events; zero means 1<<20.
	Max int

	bufs   []nodeBuf
	merged []Event // scratch for Events(); backing reused across calls
	keys   []mergeKey
}

// New returns an unbounded-filter tracer retaining up to max events.
func New(max int) *Tracer { return &Tracer{Max: max} }

// Prepare sizes the tracer for a machine with the given node count. It
// must be called before any emission whose retention should be governed
// by the final per-node cap. Prepare never shrinks, so a
// tracer reused across sequential runs keeps its buffers.
func (t *Tracer) Prepare(nodes int) {
	for len(t.bufs) < nodes {
		t.bufs = append(t.bufs, nodeBuf{})
	}
}

// perNodeCap is each node's share of the retention cap.
func (t *Tracer) perNodeCap() int {
	max := t.Max
	if max == 0 {
		max = 1 << 20
	}
	if n := len(t.bufs); n > 1 {
		max /= n
		if max == 0 {
			max = 1
		}
	}
	return max
}

// Emit records one event into its node's buffer. Emitting for a node
// beyond the prepared count grows the table.
func (t *Tracer) Emit(e Event) {
	if t.Filter != nil && !t.Filter(e) {
		return
	}
	if e.Node >= len(t.bufs) {
		t.Prepare(e.Node + 1)
	}
	b := &t.bufs[e.Node]
	if len(b.events) >= t.perNodeCap() {
		b.dropped++
		return
	}
	b.events = append(b.events, e)
}

// mergeKey orders the merged stream: time, then node, then the node's
// emission order — the same shape as the engine's stable event key, and
// like it a strict total order.
type mergeKey struct {
	t    sim.Time
	node int
	seq  int
}

type mergeSort struct {
	ev   []Event
	keys []mergeKey
}

func (m *mergeSort) Len() int { return len(m.ev) }
func (m *mergeSort) Swap(i, j int) {
	m.ev[i], m.ev[j] = m.ev[j], m.ev[i]
	m.keys[i], m.keys[j] = m.keys[j], m.keys[i]
}
func (m *mergeSort) Less(i, j int) bool {
	a, b := m.keys[i], m.keys[j]
	if a.t != b.t {
		return a.t < b.t
	}
	if a.node != b.node {
		return a.node < b.node
	}
	return a.seq < b.seq
}

// Events returns the recorded events merged across nodes in the
// deterministic (time, node, per-node emission order) order. The
// returned slice is the tracer's scratch buffer: it is rebuilt (into
// the same backing storage) by the next Events call and cleared by
// Reset.
func (t *Tracer) Events() []Event {
	t.merged = t.merged[:0]
	t.keys = t.keys[:0]
	for n := range t.bufs {
		for i, e := range t.bufs[n].events {
			t.merged = append(t.merged, e)
			t.keys = append(t.keys, mergeKey{t: e.T, node: n, seq: i})
		}
	}
	// Keys are unique (node, seq), so an unstable sort is deterministic.
	sort.Sort(&mergeSort{ev: t.merged, keys: t.keys})
	return t.merged
}

// NodeEvents returns one node's events in emission order — the order
// the node's contexts actually made the recorded calls, which is the
// order the conformance corpus records them in. It is NOT the merged
// (time, node, seq) order restricted to the node: a context can run with a clock
// lagging its neighbours' (it was unparked mid-window and has not
// synced yet), so a node's emission times are not monotonic, and
// sorting by time would reorder calls whose side effects (injection-
// port claims) happen in call order. The returned slice is the live
// buffer: do not mutate, and do not hold it across Reset. Nodes beyond
// the prepared count return nil.
func (t *Tracer) NodeEvents(node int) []Event {
	if node < 0 || node >= len(t.bufs) {
		return nil
	}
	return t.bufs[node].events
}

// Dropped reports how many events the cap discarded, over all nodes.
func (t *Tracer) Dropped() uint64 {
	var d uint64
	for i := range t.bufs {
		d += t.bufs[i].dropped
	}
	return d
}

// Truncated reports whether the cap discarded any event — i.e. whether
// the merged stream is incomplete. A truncated trace must not become a
// corpus file: at least one node's tail is missing, so the recorded
// message schedule no longer matches what the run actually did.
func (t *Tracer) Truncated() bool { return t.Dropped() > 0 }

// Reset clears the trace, keeping all backing storage.
func (t *Tracer) Reset() {
	for i := range t.bufs {
		t.bufs[i].events = t.bufs[i].events[:0]
		t.bufs[i].dropped = 0
	}
	t.merged = t.merged[:0]
	t.keys = t.keys[:0]
}

// Dump writes the merged trace, one event per line.
func (t *Tracer) Dump(w io.Writer) error {
	for _, e := range t.Events() {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	if d := t.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "(%d events dropped at cap)\n", d); err != nil {
			return err
		}
	}
	return nil
}

// CountByKind tallies the trace.
func (t *Tracer) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	for i := range t.bufs {
		for _, e := range t.bufs[i].events {
			out[e.Kind]++
		}
	}
	return out
}
