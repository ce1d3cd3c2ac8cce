package agent

import (
	"reflect"
	"testing"

	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/sim"
)

// fixedCostDispatcher charges a constant number of cycles per message
// and records each dispatch's start and end.
type fixedCostDispatcher struct {
	cost  sim.Time
	spans [][2]sim.Time
}

func (d *fixedCostDispatcher) DispatchMessage(c *sim.Context, pkt *network.Packet) {
	start := c.Time()
	c.Advance(d.cost)
	d.spans = append(d.spans, [2]sim.Time{start, c.Time()})
}

// TestOccupancyAccounting hand-computes the occupancy model under
// back-to-back deliveries — the arithmetic behind the occ_waits and
// occ_wait_cycles counters every protocol reports. Three packets sent on
// consecutive cycles arrive on consecutive cycles (latency 11). A
// message's wait is measured from the agent's own clock when it picks
// the message up (the clock has already advanced through the previous
// dispatch), not from the delivery cycle:
//
//	arrival 11: agent free, dispatch 11..13, busy until 11+occ=31
//	arrival 12: clock 13, busy 31-13=18 more cycles, dispatch 31..33,
//	            busy until 51
//	arrival 13: clock 33, busy 51-33=18, dispatch 51..53
//
// so occ_waits = 2 and occ_wait_cycles = 18 + 18 = 36. The dispatcher's
// 2-cycle cost is shorter than the 20-cycle occupancy, so busyUntil is
// governed by occupancy, not the dispatcher.
func TestOccupancyAccounting(t *testing.T) {
	const (
		latency = 11
		occ     = 20
		cost    = 2
	)
	eng := sim.NewEngine()
	net := network.New(eng, network.Config{Nodes: 2, Latency: latency})
	disp := &fixedCostDispatcher{cost: cost}
	core := Spawn(eng, net, 1, "agent1", "idle", occ, disp, nil)
	eng.Spawn("sender", func(c *sim.Context) {
		for i := 0; i < 3; i++ {
			net.SendAfter(&network.Packet{Src: 0, Dst: 1, VNet: network.VNetRequest, Handler: 1}, sim.Time(i))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	wantSpans := [][2]sim.Time{{11, 13}, {31, 33}, {51, 53}}
	if len(disp.spans) != len(wantSpans) {
		t.Fatalf("dispatched %d messages, want %d", len(disp.spans), len(wantSpans))
	}
	for i, span := range disp.spans {
		if span != wantSpans[i] {
			t.Errorf("dispatch %d ran %d..%d, want %d..%d", i, span[0], span[1], wantSpans[i][0], wantSpans[i][1])
		}
	}
	waits, waitCycles := core.OccStats()
	if waits != 2 || waitCycles != 36 {
		t.Errorf("OccStats = (%d, %d), want (2, 36)", waits, waitCycles)
	}
}

// TestOccupancyLongDispatch covers the other busyUntil branch: a
// dispatcher that runs longer than the occupancy window keeps the agent
// busy for its real duration — and because the agent's clock then
// already sits at the busy horizon, no occupancy wait is ever charged
// when the dispatch cost exceeds the occupancy.
func TestOccupancyLongDispatch(t *testing.T) {
	const (
		latency = 11
		occ     = 5
		cost    = 30
	)
	eng := sim.NewEngine()
	net := network.New(eng, network.Config{Nodes: 2, Latency: latency})
	disp := &fixedCostDispatcher{cost: cost}
	core := Spawn(eng, net, 1, "agent1", "idle", occ, disp, nil)
	eng.Spawn("sender", func(c *sim.Context) {
		net.SendAfter(&network.Packet{Src: 0, Dst: 1, VNet: network.VNetRequest, Handler: 1}, 0)
		net.SendAfter(&network.Packet{Src: 0, Dst: 1, VNet: network.VNetRequest, Handler: 1}, 1)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// arrival 11: dispatch 11..41, busy until 41 (cost > occ)
	// arrival 12: clock already 41 = busyUntil, so no wait is counted;
	// dispatch 41..71 back to back
	wantSpans := [][2]sim.Time{{11, 41}, {41, 71}}
	if len(disp.spans) != len(wantSpans) {
		t.Fatalf("dispatched %d messages, want %d", len(disp.spans), len(wantSpans))
	}
	for i, span := range disp.spans {
		if span != wantSpans[i] {
			t.Errorf("dispatch %d ran %d..%d, want %d..%d", i, span[0], span[1], wantSpans[i][0], wantSpans[i][1])
		}
	}
	if waits, waitCycles := core.OccStats(); waits != 0 || waitCycles != 0 {
		t.Errorf("OccStats = (%d, %d), want (0, 0)", waits, waitCycles)
	}
}

// TestZeroOccupancy pins the legacy unbounded-concurrency behaviour:
// with occ zero, back-to-back deliveries never wait and the counters
// stay zero.
func TestZeroOccupancy(t *testing.T) {
	eng := sim.NewEngine()
	net := network.New(eng, network.Config{Nodes: 2, Latency: 11})
	disp := &fixedCostDispatcher{cost: 0}
	core := Spawn(eng, net, 1, "agent1", "idle", 0, disp, nil)
	eng.Spawn("sender", func(c *sim.Context) {
		for i := 0; i < 3; i++ {
			net.SendAfter(&network.Packet{Src: 0, Dst: 1, VNet: network.VNetRequest, Handler: 1}, sim.Time(i))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	wantSpans := [][2]sim.Time{{11, 11}, {12, 12}, {13, 13}}
	if len(disp.spans) != len(wantSpans) {
		t.Fatalf("dispatched %d messages, want %d", len(disp.spans), len(wantSpans))
	}
	for i, span := range disp.spans {
		if span != wantSpans[i] {
			t.Errorf("dispatch %d ran %d..%d, want %d..%d", i, span[0], span[1], wantSpans[i][0], wantSpans[i][1])
		}
	}
	if waits, waitCycles := core.OccStats(); waits != 0 || waitCycles != 0 {
		t.Errorf("OccStats = (%d, %d), want (0, 0)", waits, waitCycles)
	}
}

// orderLog records, in service order, what an agent ran: the handler of
// each dispatched message and each urgent and idle item.
type orderLog struct {
	core         *Core
	armAt        sim.Time
	urgent, idle int
	served       []string
}

func (l *orderLog) DispatchMessage(_ *sim.Context, pkt *network.Packet) {
	l.served = append(l.served, map[int]string{1: "reply", 2: "request"}[int(pkt.Handler)])
}

// The work items are pending only from armAt on, the instant both
// messages arrive, so the first step finds all four kinds at once.
func (l *orderLog) armed() bool            { return l.core.Ctx.Time() >= l.armAt }
func (l *orderLog) HasUrgent() bool        { return l.urgent > 0 && l.armed() }
func (l *orderLog) HasIdle() bool          { return l.idle > 0 && l.armed() }
func (l *orderLog) RunUrgent(*sim.Context) { l.urgent--; l.served = append(l.served, "urgent") }
func (l *orderLog) RunIdle(*sim.Context)   { l.idle--; l.served = append(l.served, "idle") }

// TestStepPriorityOrder pins the agent's service order (paper §5.1): with
// a reply, an urgent item, a request and idle work all pending at one
// instant, it serves them in exactly that order.
func TestStepPriorityOrder(t *testing.T) {
	const latency = 11
	eng := sim.NewEngine()
	net := network.New(eng, network.Config{Nodes: 2, Latency: latency})
	l := &orderLog{armAt: latency, urgent: 1, idle: 1}
	l.core = Spawn(eng, net, 1, "agent1", "idle", 0, l, l)
	eng.Spawn("sender", func(c *sim.Context) {
		// The request is sent first, so arrival order does not favour the reply.
		net.Send(&network.Packet{Src: 0, Dst: 1, VNet: network.VNetRequest, Handler: 2})
		net.Send(&network.Packet{Src: 0, Dst: 1, VNet: network.VNetReply, Handler: 1})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"reply", "urgent", "request", "idle"}
	if !reflect.DeepEqual(l.served, want) {
		t.Errorf("served %v, want %v", l.served, want)
	}
}
