// Package trace records protocol-level events — block faults, message
// sends and deliveries, thread resumes, page faults — with simulated
// timestamps, for debugging user-level protocols. Tracing is off unless
// a Tracer is attached to the Typhoon system; the hot paths pay only a
// nil check.
//
// Events are captured in one slice in emission order, and every emission
// names the node it happened on. Events orders them by (time, node) on
// demand; the committed conformance corpus is recorded node-major
// instead (NodeEvents).
package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"

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

// Tracer collects events in emission order up to a total cap (oldest
// kept): once Max events are held, every later emission is counted in
// Dropped and discarded, whichever node it names. The kept events are
// then a prefix of the emission order, not of global time; consumers
// that need a complete stream (the conformance corpus) must check
// Truncated and refuse the trace rather than keep a silently-partial
// recording.
//
// A Tracer belongs to exactly one simulated machine and is read after
// Run: Events, NodeEvents, Dropped and Dump must not run while the
// machine does. When the harness runs machines in parallel
// (harness.RunAll), attach a separate Tracer to each machine.
type Tracer struct {
	// Max bounds the total number of retained events; zero means 1<<20.
	Max int

	events  []Event
	dropped uint64
}

// New returns a tracer retaining up to max events.
func New(max int) *Tracer { return &Tracer{Max: max} }

// Emit records one event.
func (t *Tracer) Emit(e Event) {
	max := t.Max
	if max == 0 {
		max = 1 << 20
	}
	if len(t.events) >= max {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Events returns a copy of the recorded events ordered by (time, node),
// emission order breaking ties — the same shape as the engine's stable
// event key.
func (t *Tracer) Events() []Event {
	out := slices.Clone(t.events)
	slices.SortStableFunc(out, func(a, b Event) int {
		if c := cmp.Compare(a.T, b.T); c != 0 {
			return c
		}
		return cmp.Compare(a.Node, b.Node)
	})
	return out
}

// NodeEvents returns one node's events in emission order — the order
// the node's contexts actually made the recorded calls, which is the
// order the conformance corpus records them in. It is NOT the (time,
// node) order restricted to the node: a context can run with a clock
// lagging its neighbours' (it was unparked mid-window and has not
// synced yet), so a node's emission times are not monotonic, and
// sorting by time would reorder calls whose side effects (injection-
// port claims) happen in call order.
func (t *Tracer) NodeEvents(node int) []Event {
	var out []Event
	for _, e := range t.events {
		if e.Node == node {
			out = append(out, e)
		}
	}
	return out
}

// Dropped reports how many events the cap discarded.
func (t *Tracer) Dropped() uint64 { return t.dropped }

// Truncated reports whether the cap discarded any event — i.e. whether
// the recorded stream is incomplete. A truncated trace must not become a
// corpus file: the tail of the emission order is missing, so the
// recorded message schedule no longer matches what the run actually did.
func (t *Tracer) Truncated() bool { return t.dropped > 0 }

// Dump writes the trace in Events order, one event per line.
func (t *Tracer) Dump(w io.Writer) error {
	for _, e := range t.Events() {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	if t.dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d events dropped at cap)\n", t.dropped); err != nil {
			return err
		}
	}
	return nil
}
