// Package agent is the protocol-agent layer: the one execution skeleton
// shared by every per-node protocol engine in the simulator, hardware or
// software. A protocol agent is a stepper daemon bound to a node's
// network endpoint that drains delivered messages in priority order
// (replies before requests, paper §5.1), interleaves them with
// protocol-specific urgent work (logged block access faults) and idle
// work (bulk transfers), and parks when there is nothing to do. Typhoon's
// network-interface processor, the EM3D update protocol, Blizzard, and
// the DirNNB directory controller are all agents: the same dispatch
// loop models a software NP executing handlers and a hardware directory
// state machine — they differ only in what a message dispatch costs.
//
// An agent touches only node-local state; everything between nodes
// travels through internal/network as events with the engine's stable
// key, so a protocol built on agents is deterministic without
// protocol-specific ordering rules.
package agent

import (
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/trace"
)

// Dispatcher consumes one delivered message. The core has already
// advanced the agent's clock to the packet's delivery time; the
// dispatcher charges whatever the dispatch and handler cost in its
// model (software dispatch cycles for an NP, directory occupancy for
// DirNNB) and must run to completion — it must not Park. The core frees
// the packet when the dispatcher returns, so a dispatcher that keeps
// payload bytes must copy them.
type Dispatcher interface {
	DispatchMessage(c *sim.Context, pkt *network.Packet)
}

// Work is the optional protocol-specific work an agent interleaves with
// message dispatch: urgent work preempts request messages (but not
// replies), idle work runs only when nothing else is pending. Typhoon
// maps logged block access faults to urgent and block-transfer chunks to
// idle; a pure message-driven agent (DirNNB) has none.
type Work interface {
	HasUrgent() bool
	RunUrgent(c *sim.Context)
	HasIdle() bool
	RunIdle(c *sim.Context)
}

// Core is one node's protocol agent: the dispatch loop, its stepper
// context, and the endpoint it drains. Protocol code embeds or holds a
// Core and supplies the Dispatcher (and optionally Work) behaviour.
type Core struct {
	node int
	net  *network.Network

	// Ctx is the agent's stepper context. Protocol code uses it for
	// node-local clock reads, charging, and unparking its own node's
	// compute processor.
	Ctx *sim.Context
	// Ep is the node's network endpoint; its Notify is wired to unpark
	// the agent on delivery.
	Ep *network.Endpoint

	disp Dispatcher
	work Work

	// Occupancy model (zero occ disables it, the legacy behaviour): the
	// agent is busy until busyUntil after each message dispatch, so
	// back-to-back dispatches serialise instead of being serviced with
	// unbounded concurrency. occWaits/occWaitCycles count the messages
	// that found the agent busy and the total cycles they waited — the
	// hot-home queueing the paper's §6 occupancy argument is about.
	occ           sim.Time
	busyUntil     sim.Time
	occWaits      uint64
	occWaitCycles uint64
}

// Spawn creates node's protocol agent: a stepper daemon (named name,
// parking as idleReason) whose step drains the node's endpoint through
// disp, interleaved with work when non-nil. occ is the agent's service
// occupancy per message dispatch (machine.Config.OccupancyCycles; zero
// models infinite concurrency). Agents must be spawned in a
// deterministic order, since context identity feeds the scheduler's
// tie-breaking.
func Spawn(eng *sim.Engine, net *network.Network, node int, name, idleReason string, occ sim.Time, disp Dispatcher, work Work) *Core {
	co := &Core{node: node, net: net, Ep: net.Endpoint(node), disp: disp, work: work, occ: occ}
	co.Ep.Notify = co.notify
	co.Ctx = eng.SpawnStepperDaemon(name, co.step, idleReason)
	return co
}

// Node returns the agent's node ID.
func (co *Core) Node() int { return co.node }

func (co *Core) notify(at sim.Time) { co.Ctx.Unpark(at) }

// step is one iteration of the agent loop: replies outrank urgent work,
// which outranks requests, which outrank idle work; returning false
// parks the agent until the next delivery or an explicit unpark.
func (co *Core) step(c *sim.Context) bool {
	switch {
	case co.Ep.PendingOn(network.VNetReply) > 0:
		co.deliver(c, co.Ep.Dequeue())
	case co.work != nil && co.work.HasUrgent():
		co.work.RunUrgent(c)
	case co.Ep.PendingOn(network.VNetRequest) > 0:
		co.deliver(c, co.Ep.Dequeue())
	case co.work != nil && co.work.HasIdle():
		co.work.RunIdle(c)
	default:
		return false
	}
	return true
}

// OccStats returns the occupancy model's queueing at this agent: how
// many dispatches found the agent busy, and the total cycles they spent
// waiting for it. Both are zero when the agent charges no occupancy.
func (co *Core) OccStats() (waits, waitCycles uint64) {
	return co.occWaits, co.occWaitCycles
}

// deliver services one delivered packet: sync to the delivery instant,
// wait out any residual occupancy, dispatch, recycle. Everything here —
// the occupancy wait included — only moves the agent's local clock
// forward from the delivery time.
func (co *Core) deliver(c *sim.Context, pkt *network.Packet) {
	c.SyncTo(pkt.DeliveredAt) // the agent was waiting, not time-travelling
	if co.occ > 0 && co.busyUntil > c.Time() {
		// The previous dispatch still occupies the agent: the message
		// waits, delivered but unserviced, until the agent frees up.
		co.occWaits++
		co.occWaitCycles += uint64(co.busyUntil - c.Time())
		c.SyncTo(co.busyUntil)
	}
	start := c.Time()
	co.disp.DispatchMessage(c, pkt)
	if tr := co.net.Tracer; tr != nil {
		// KNetDeliver: dispatch start and the service time it consumed.
		tr.Emit(trace.Event{T: start, Node: co.node, Kind: trace.KNetDeliver, VA: mem.VA(c.Time() - start), Aux: pkt.TraceID()})
	}
	// Dispatchers run to completion and copy any payload they keep, so
	// the packet recycles the moment the dispatch returns.
	co.net.Free(pkt)
	if co.occ > 0 {
		// The agent stays occupied occ cycles from dispatch start; a
		// dispatcher that already advanced further (a long software
		// handler) is busy for its real duration instead. Occupancy
		// covers message service only — urgent and idle work charge
		// their own costs.
		if end := start + co.occ; end > c.Time() {
			co.busyUntil = end
		} else {
			co.busyUntil = c.Time()
		}
	}
}
