// Package network models the point-to-point interconnect of the simulated
// machines: a CM-5-style network (paper §5) with two independent virtual
// networks for deadlock avoidance, a fixed end-to-end latency (Table 2:
// 11 cycles), a bounded packet payload (twenty 32-bit words), and
// delivery into per-node receive queues.
//
// The ordering rule is narrow: packets that one context sends with Send
// to one destination on one virtual network arrive in send order.
// Nothing wider holds. A later Send on the same pair overtakes a
// SendAfter with a positive delay, and two contexts of one node, whose
// clocks differ by up to the scheduler's quantum, can reorder their
// sends (TestOrderingExceptions pins both).
//
// Link contention is modeled when Config.LinkBytesPerCycle is non-zero:
// each endpoint owns one injection and one ejection port per virtual
// network, and a packet occupies both for ceil(PayloadBytes/
// LinkBytesPerCycle) cycles — first the source injection port (serialising
// sends behind in-flight packets, FIFO in issue order), then, after the
// wire latency, the destination ejection port (serialising arrivals, FIFO
// in arrival order with ties broken by the engine's stable event key).
// Port waits accumulate in the per-VNet QueueingCycles counter. With
// LinkBytesPerCycle zero the network has infinite bandwidth and a send
// costs exactly the fixed latency — the paper's stated simulation
// simplification, and the legacy behaviour every pinned digest assumes.
//
// The dataplane is allocation-free in steady state: Send copies the
// caller's packet into a pooled packet whose argument and data storage
// are fixed-size arrays (the payload bound makes that possible), the
// pooled packet schedules its own delivery as a sim.Event, and receivers
// hand it back with Network.Free once the handler is done. The free list
// is an explicit LIFO touched only while holding the conch, so reuse
// order is a pure function of simulated history — unlike sync.Pool,
// whose per-P caches would make packet identity depend on the host
// scheduler.
package network

import (
	"fmt"

	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/trace"
)

// VNet selects one of the two independent virtual networks. Requests
// travel on the low-priority network and replies on the high-priority
// one, so a pure request/response protocol is deadlock-free (paper §5.1).
type VNet uint8

// Virtual networks.
const (
	VNetRequest VNet = iota
	VNetReply
	numVNets
)

func (v VNet) String() string {
	switch v {
	case VNetRequest:
		return "request"
	case VNetReply:
		return "reply"
	}
	return fmt.Sprintf("VNet(%d)", uint8(v))
}

// MaxPayloadBytes is the maximum packet payload: twenty 32-bit words
// (paper §5), which fits a handler PC, a 64-bit address, 64 bytes of
// data, and two words to spare.
const MaxPayloadBytes = 20 * 4

// handlerBytes is the payload cost of the receive-handler PC word.
const handlerBytes = 4

// maxArgs and maxDataBytes bound the in-packet storage of a pooled
// packet. Each is the most the payload limit admits for that field
// alone; a packet near both bounds at once would fail the limit check.
const (
	maxArgs      = (MaxPayloadBytes - handlerBytes) / 8
	maxDataBytes = MaxPayloadBytes - handlerBytes
)

// Packet is one active message: the first word names the receive handler
// and the rest is its arguments (paper §2.1 and §5.1).
//
// Senders build a Packet (typically a stack-allocated literal — Send does
// not retain its argument) and the network delivers a pooled copy; Args
// and Data on a delivered packet alias packet-owned storage that is valid
// until the packet is passed to Network.Free.
type Packet struct {
	Src, Dst int
	VNet     VNet
	Handler  uint32   // receive-handler identifier (the "handler PC")
	Args     []uint64 // scalar arguments (addresses, counts, values)
	Data     []byte   // optional raw block payload

	SentAt      sim.Time
	DeliveredAt sim.Time

	// Pooled-packet internals. A packet owned by a Network's free list
	// stores its payload inline and carries its own delivery event state.
	argStore  [maxArgs]uint64
	dataStore [maxDataBytes]byte
	dst       *Endpoint // delivery target while in flight, nil otherwise
	next      *Packet   // free-list link
	linkOcc   sim.Time  // per-port occupancy cycles; 0 = infinite bandwidth
	pooled    bool      // allocated by Network.alloc; safe to Free
	ejected   bool      // ejection port claimed; next Fire is the enqueue
}

// TraceID is the packet's identity as a network-level trace event
// carries it in Aux (trace.PackMsg).
func (p *Packet) TraceID() uint64 {
	return trace.PackMsg(p.Handler, p.Src, p.Dst, uint8(p.VNet), p.PayloadBytes())
}

// PayloadBytes returns the packet's size against the payload limit.
func (p *Packet) PayloadBytes() int {
	return handlerBytes + 8*len(p.Args) + len(p.Data)
}

// Fire delivers the packet: it runs as a sim.Event at the delivery time,
// enqueues the packet at its destination, and wakes the receiver. Using
// the packet itself as the event avoids a closure allocation per send.
// DeliveredAt is fixed at send time (the time the delivery event fires
// at), so Fire never consults a global clock.
//
// Under the finite-bandwidth model a remote packet fires twice: the
// first firing, at head arrival, claims the destination ejection port
// (FIFO behind whatever is draining through it — arrivals in the same
// cycle are ordered by the engine's stable event key) and reschedules the
// packet for when the port has drained it; the second firing enqueues it.
func (p *Packet) Fire() {
	dst := p.dst
	if p.linkOcc > 0 && !p.ejected {
		arr := p.DeliveredAt // head arrival at the ejection port
		start := arr
		if busy := dst.ejBusy[p.VNet]; busy > start {
			start = busy
			dst.net.stats.VNets[p.VNet].QueueingCycles += uint64(start - arr)
		}
		dst.ejBusy[p.VNet] = start + p.linkOcc
		p.ejected = true
		p.DeliveredAt = start + p.linkOcc
		dst.net.eng.AtEventFrom(p.DeliveredAt, dst.node, p)
		return
	}
	p.ejected = false
	p.linkOcc = 0
	p.dst = nil
	if tr := dst.net.Tracer; tr != nil {
		tr.Emit(trace.Event{T: p.DeliveredAt, Node: p.Dst, Kind: trace.KNetArrive, Aux: p.TraceID()})
	}
	dst.queues[p.VNet].push(p)
	if dst.Notify != nil {
		dst.Notify(p.DeliveredAt)
	}
}

// VNetStats counts one virtual network's traffic. The per-VNet counters
// live in an array indexed by VNet so a new counter is automatically
// carried for every network — they cannot desync from the VNet enum.
type VNetStats struct {
	Packets      uint64
	PayloadBytes uint64
	// QueueingCycles is the total cycles packets spent waiting for busy
	// injection or ejection ports. Always zero with infinite bandwidth.
	QueueingCycles uint64
	// MaxQueueDepth is the high-water depth of the per-endpoint receive
	// FIFOs — how far behind the worst consumer (NP dispatch loop,
	// directory agent) fell. Non-zero even with infinite bandwidth.
	MaxQueueDepth uint64
}

// Stats counts network traffic.
type Stats struct {
	VNets      [numVNets]VNetStats
	LocalSends uint64 // CPU-to-own-NP short circuits
}

// pktRing is a growable power-of-two ring buffer of packets: a FIFO
// whose push and pop are allocation-free once the ring has reached its
// high-water size (the old slice FIFO paid a copy-shift per dequeue).
type pktRing struct {
	buf        []*Packet
	head, tail int // head = next pop, tail = next push
	n          int
	hw         int // high-water depth, for Stats.MaxQueueDepth
}

func (r *pktRing) push(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[r.tail] = p
	r.tail = (r.tail + 1) & (len(r.buf) - 1)
	r.n++
	if r.n > r.hw {
		r.hw = r.n
	}
}

func (r *pktRing) pop() *Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

func (r *pktRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]*Packet, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head, r.tail = buf, 0, r.n
}

// Endpoint is one node's network interface: two receive FIFOs plus a
// wakeup callback for the entity that drains them (the NP dispatch loop,
// or the DirNNB hardware controller).
type Endpoint struct {
	node   int
	net    *Network
	queues [numVNets]pktRing
	// injBusy/ejBusy are the per-VNet port-free times of the finite-
	// bandwidth model: a packet occupies its source injection port and
	// destination ejection port for its serialisation time, and later
	// packets queue FIFO behind it. injBusy is touched at send time,
	// ejBusy at arrival time. Unused (always zero) with infinite
	// bandwidth.
	injBusy [numVNets]sim.Time
	ejBusy  [numVNets]sim.Time
	// Notify is invoked (while holding the conch) whenever a packet is
	// delivered, with the delivery time. The NP uses it to unpark its
	// dispatch loop.
	Notify func(at sim.Time)
}

// Node returns the endpoint's node ID.
func (e *Endpoint) Node() int { return e.node }

// PendingOn returns the number of queued packets on one network.
func (e *Endpoint) PendingOn(v VNet) int { return e.queues[v].n }

// Dequeue pops the next packet, draining the reply network before the
// request network so request handlers can never starve response handlers
// (paper §5.1). It returns nil when both queues are empty. The caller
// owns the packet until it passes it to Network.Free.
func (e *Endpoint) Dequeue() *Packet {
	if e.queues[VNetReply].n > 0 {
		return e.queues[VNetReply].pop()
	}
	if e.queues[VNetRequest].n > 0 {
		return e.queues[VNetRequest].pop()
	}
	return nil
}

// Network connects n endpoints with fixed latency.
type Network struct {
	eng       *sim.Engine
	latency   sim.Time
	linkBW    int // bytes per cycle per port; 0 = infinite bandwidth
	endpoints []*Endpoint

	// Tracer, when non-nil, is the run's one recorder: the network emits
	// KNetSend as each packet is injected and KNetArrive as it is
	// enqueued at its destination; agents (KNetDeliver) and Typhoon's NPs
	// (protocol-level events) emit into it through their network. Set
	// before Engine.Run; each emitter pays a nil check otherwise.
	Tracer *trace.Tracer

	stats Stats
	free  *Packet // LIFO free list of pooled packets
}

// Config configures a Network.
type Config struct {
	Nodes int
	// Latency is the end-to-end packet latency in cycles (Table 2: 11).
	Latency sim.Time
	// LinkBytesPerCycle is the per-port link bandwidth of the contention
	// model: a packet occupies its injection and ejection ports for
	// ceil(PayloadBytes/LinkBytesPerCycle) cycles each. Zero models
	// infinite bandwidth (the paper's simplification; legacy behaviour).
	LinkBytesPerCycle int
}

// New builds a network.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.Nodes <= 0 {
		panic("network: need at least one node")
	}
	if cfg.LinkBytesPerCycle < 0 {
		panic(fmt.Sprintf("network: negative link bandwidth %d", cfg.LinkBytesPerCycle))
	}
	n := &Network{
		eng:     eng,
		latency: cfg.Latency,
		linkBW:  cfg.LinkBytesPerCycle,
	}
	for i := 0; i < cfg.Nodes; i++ {
		n.endpoints = append(n.endpoints, &Endpoint{node: i, net: n})
	}
	return n
}

// Endpoint returns node's endpoint.
func (n *Network) Endpoint(node int) *Endpoint { return n.endpoints[node] }

// Latency returns the configured end-to-end latency.
func (n *Network) Latency() sim.Time { return n.latency }

// Stats returns a copy of the traffic counters, with MaxQueueDepth
// taken over the endpoints' receive-ring high-water marks.
func (n *Network) Stats() Stats {
	s := n.stats
	for _, ep := range n.endpoints {
		for v := range ep.queues {
			if hw := uint64(ep.queues[v].hw); hw > s.VNets[v].MaxQueueDepth {
				s.VNets[v].MaxQueueDepth = hw
			}
		}
	}
	return s
}

// alloc takes a packet from the free list, or mints one.
func (n *Network) alloc() *Packet {
	if p := n.free; p != nil {
		n.free = p.next
		p.next = nil
		return p
	}
	return &Packet{pooled: true}
}

// Free returns a delivered packet to the network's free list. Receivers
// call it after the message handler is done with the packet's payload;
// the packet's Args and Data are invalid afterwards. Free ignores
// packets the pool did not produce (caller-constructed packets) and
// packets still in flight, so over-freeing is harmless but aliasing a
// freed payload is not.
func (n *Network) Free(p *Packet) {
	if p == nil || !p.pooled || p.dst != nil {
		return
	}
	p.Args = nil
	p.Data = nil
	p.next = n.free
	n.free = p
}

// localLatency is the CPU-to-own-NP short-circuit latency (paper §5.1:
// the CPU can send directly to its local NP): a node-local packet is
// delivered one cycle after it is sent.
const localLatency sim.Time = 1

// maxSendDelay bounds SendAfter's extra. sim.Time is unsigned, so
// negative delay arithmetic in a caller does not produce a value below
// zero — it wraps to one near 2^64, which used to schedule the delivery
// in the unreachable far future and hang the run. Any delay above this
// bound can only come from such a wrap (2^62 cycles is ~36 years of
// simulated time at a nanosecond clock) and is rejected as an *Error.
const maxSendDelay = sim.Time(1) << 62

// Send injects a packet. It must be called while holding the conch; the
// packet is delivered (enqueued and Notify'd) latency cycles after the
// current global time, plus its port-serialisation time under the
// finite-bandwidth model. Messages from one node to its own NP
// short-circuit the network (paper §5.1) and bypass the ports. Send
// panics with an *Error if the payload exceeds the twenty-word limit —
// protocol code must packetise larger transfers — or if the source or
// the destination is not a node of this machine.
//
// Send copies p — the caller's packet is not retained and may be reused
// (or live on the caller's stack) immediately.
func (n *Network) Send(p *Packet) {
	n.SendAfter(p, 0)
}

// SendAfter injects a packet whose transmission begins extra cycles after
// the sender's current time: the packet reaches its destination's
// injection port then, queues FIFO (in send-issue order) behind packets
// still draining through it when bandwidth is finite, and is delivered a
// wire latency plus an ejection-port serialisation later. Protocol agents
// use it to charge occupancy (directory access, invalidation processing)
// to a response without suspending: the agent stays available for other
// messages while the modeled hardware is busy, and the delay composes
// with the wire latency exactly as a synchronous Advance before Send
// would. A wrapped-negative extra (unsigned underflow in caller
// arithmetic) panics with an *Error instead of silently scheduling the
// delivery ~2^64 cycles out.
func (n *Network) SendAfter(p *Packet, extra sim.Time) {
	if p.Src < 0 || p.Src >= len(n.endpoints) {
		panic(&Error{Op: "send", Node: p.Src,
			Msg: fmt.Sprintf("source node %d outside [0, %d)", p.Src, len(n.endpoints))})
	}
	if p.Dst < 0 || p.Dst >= len(n.endpoints) {
		panic(&Error{Op: "send", Node: p.Src,
			Msg: fmt.Sprintf("destination node %d outside [0, %d)", p.Dst, len(n.endpoints))})
	}
	if sz := p.PayloadBytes(); sz > MaxPayloadBytes {
		panic(&Error{Op: "send", Node: p.Src,
			Msg: fmt.Sprintf("packet payload %d bytes exceeds %d-byte limit", sz, MaxPayloadBytes)})
	}
	if extra > maxSendDelay {
		panic(&Error{Op: "send-after", Node: p.Src,
			Msg: fmt.Sprintf("delay %d wrapped negative (unsigned underflow in delay arithmetic)", extra)})
	}
	lat := n.latency
	local := p.Src == p.Dst
	if local {
		lat = localLatency
		n.stats.LocalSends++
	}
	n.stats.VNets[p.VNet].Packets++
	n.stats.VNets[p.VNet].PayloadBytes += uint64(p.PayloadBytes())

	q := n.alloc()
	q.Src, q.Dst, q.VNet, q.Handler = p.Src, p.Dst, p.VNet, p.Handler
	q.Args = append(q.argStore[:0], p.Args...)
	q.Data = append(q.dataStore[:0], p.Data...)
	issued := n.eng.Now()
	q.SentAt = issued + extra
	if tr := n.Tracer; tr != nil {
		tr.Emit(trace.Event{T: issued, Node: q.Src, Kind: trace.KNetSend, VA: mem.VA(extra), Aux: q.TraceID()})
	}
	start := q.SentAt
	if n.linkBW > 0 && !local {
		// Claim the source injection port: the packet serialises onto the
		// wire for its occupancy, behind any packet still injecting.
		q.linkOcc = sim.Time((q.PayloadBytes() + n.linkBW - 1) / n.linkBW)
		src := n.endpoints[p.Src]
		if busy := src.injBusy[p.VNet]; busy > start {
			n.stats.VNets[p.VNet].QueueingCycles += uint64(busy - start)
			start = busy
		}
		src.injBusy[p.VNet] = start + q.linkOcc
	} else {
		q.linkOcc = 0
	}
	// DeliveredAt is the head's arrival; with finite bandwidth the first
	// Fire claims the ejection port and defers the enqueue (see
	// Packet.Fire), so end-to-end cost is latency + serialisation +
	// queueing. With infinite bandwidth it is the final delivery time.
	q.DeliveredAt = start + lat
	q.dst = n.endpoints[p.Dst]
	n.eng.AtEventFrom(q.DeliveredAt, q.Src, q)
}
