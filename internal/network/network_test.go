package network

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/tempest-sim/tempest/internal/sim"
)

// runWith spins up an engine with a single context that executes body and
// then lets the event queue drain.
func runWith(t *testing.T, build func(eng *sim.Engine) (*Network, func(c *sim.Context))) {
	t.Helper()
	eng := sim.NewEngine()
	_, body := build(eng)
	eng.Spawn("driver", body)
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDeliveryAfterLatency(t *testing.T) {
	var deliveredAt sim.Time
	runWith(t, func(eng *sim.Engine) (*Network, func(*sim.Context)) {
		n := New(eng, Config{Nodes: 2, Latency: 11})
		n.Endpoint(1).Notify = func(at sim.Time) { deliveredAt = at }
		return n, func(c *sim.Context) {
			c.Advance(100)
			c.Yield()
			n.Send(&Packet{Src: 0, Dst: 1, VNet: VNetRequest, Handler: 7})
			c.Sleep(50)
			p := n.Endpoint(1).Dequeue()
			if p == nil || p.Handler != 7 {
				t.Errorf("packet not delivered: %+v", p)
			}
		}
	})
	if deliveredAt != 111 {
		t.Fatalf("delivered at %d, want 111", deliveredAt)
	}
}

func TestLocalShortCircuit(t *testing.T) {
	var deliveredAt sim.Time
	runWith(t, func(eng *sim.Engine) (*Network, func(*sim.Context)) {
		n := New(eng, Config{Nodes: 2, Latency: 11})
		n.Endpoint(0).Notify = func(at sim.Time) { deliveredAt = at }
		return n, func(c *sim.Context) {
			c.Advance(10)
			c.Yield()
			n.Send(&Packet{Src: 0, Dst: 0, VNet: VNetRequest})
			c.Sleep(10)
		}
	})
	if deliveredAt != 11 {
		t.Fatalf("local send delivered at %d, want 11", deliveredAt)
	}
}

func TestReplyNetworkHasPriority(t *testing.T) {
	runWith(t, func(eng *sim.Engine) (*Network, func(*sim.Context)) {
		n := New(eng, Config{Nodes: 2, Latency: 11})
		return n, func(c *sim.Context) {
			n.Send(&Packet{Src: 0, Dst: 1, VNet: VNetRequest, Handler: 1})
			n.Send(&Packet{Src: 0, Dst: 1, VNet: VNetReply, Handler: 2})
			c.Sleep(20)
			ep := n.Endpoint(1)
			if req, rep := ep.PendingOn(VNetRequest), ep.PendingOn(VNetReply); req != 1 || rep != 1 {
				t.Fatalf("pending = %d request, %d reply; want 1 and 1", req, rep)
			}
			first := ep.Dequeue()
			second := ep.Dequeue()
			if first.Handler != 2 || second.Handler != 1 {
				t.Errorf("dequeue order = %d,%d; want reply (2) before request (1)", first.Handler, second.Handler)
			}
			if ep.Dequeue() != nil {
				t.Error("queue should be empty")
			}
		}
	})
}

func TestInOrderDeliveryPerSender(t *testing.T) {
	runWith(t, func(eng *sim.Engine) (*Network, func(*sim.Context)) {
		n := New(eng, Config{Nodes: 2, Latency: 11})
		return n, func(c *sim.Context) {
			for i := uint32(0); i < 10; i++ {
				n.Send(&Packet{Src: 0, Dst: 1, VNet: VNetRequest, Handler: i})
				c.Advance(1)
				c.Yield()
			}
			c.Sleep(30)
			ep := n.Endpoint(1)
			for i := uint32(0); i < 10; i++ {
				p := ep.Dequeue()
				if p == nil || p.Handler != i {
					t.Fatalf("packet %d out of order: %+v", i, p)
				}
			}
		}
	})
}

func TestPayloadLimitEnforced(t *testing.T) {
	runWith(t, func(eng *sim.Engine) (*Network, func(*sim.Context)) {
		n := New(eng, Config{Nodes: 2, Latency: 11})
		return n, func(c *sim.Context) {
			// Maximum legal packet: handler(4) + addr(8) + 64B data + 4B slack = 80.
			ok := &Packet{Src: 0, Dst: 1, Args: []uint64{0xFEED}, Data: make([]byte, 64)}
			if ok.PayloadBytes() != 76 {
				t.Errorf("PayloadBytes = %d, want 76", ok.PayloadBytes())
			}
			n.Send(ok)
			defer func() {
				nerr, okType := recover().(*Error)
				if !okType {
					t.Error("oversized packet must panic with *network.Error")
				} else if nerr.Op != "send" {
					t.Errorf("error op = %q, want send", nerr.Op)
				}
			}()
			n.Send(&Packet{Src: 0, Dst: 1, Data: make([]byte, 128)})
		}
	})
}

func TestStatsAccounting(t *testing.T) {
	runWith(t, func(eng *sim.Engine) (*Network, func(*sim.Context)) {
		n := New(eng, Config{Nodes: 3, Latency: 11})
		return n, func(c *sim.Context) {
			n.Send(&Packet{Src: 0, Dst: 1, VNet: VNetRequest, Args: []uint64{1}})
			n.Send(&Packet{Src: 1, Dst: 2, VNet: VNetReply, Data: make([]byte, 32)})
			n.Send(&Packet{Src: 2, Dst: 2, VNet: VNetReply})
			c.Sleep(20)
			s := n.Stats()
			if s.VNets[VNetRequest].Packets != 1 || s.VNets[VNetReply].Packets != 2 {
				t.Errorf("packets = %+v", s.VNets)
			}
			if s.LocalSends != 1 {
				t.Errorf("local sends = %d, want 1", s.LocalSends)
			}
			if s.VNets[VNetRequest].PayloadBytes != 12 { // handler 4 + one arg 8
				t.Errorf("request bytes = %d, want 12", s.VNets[VNetRequest].PayloadBytes)
			}
			if s.VNets[VNetRequest].QueueingCycles != 0 || s.VNets[VNetReply].QueueingCycles != 0 {
				t.Errorf("infinite bandwidth must not queue: %+v", s.VNets)
			}
			if s.VNets[VNetRequest].MaxQueueDepth != 1 {
				t.Errorf("request max queue depth = %d, want 1", s.VNets[VNetRequest].MaxQueueDepth)
			}
		}
	})
}

func TestDataIntegrity(t *testing.T) {
	runWith(t, func(eng *sim.Engine) (*Network, func(*sim.Context)) {
		n := New(eng, Config{Nodes: 2, Latency: 11})
		return n, func(c *sim.Context) {
			data := make([]byte, 32)
			for i := range data {
				data[i] = byte(i * 3)
			}
			n.Send(&Packet{Src: 0, Dst: 1, VNet: VNetReply, Args: []uint64{42, 99}, Data: data})
			c.Sleep(20)
			p := n.Endpoint(1).Dequeue()
			if p.Args[0] != 42 || p.Args[1] != 99 {
				t.Fatalf("args = %v", p.Args)
			}
			for i := range p.Data {
				if p.Data[i] != byte(i*3) {
					t.Fatalf("data[%d] = %d", i, p.Data[i])
				}
			}
		}
	})
}

// Property: for any send schedule from a single context, every packet is
// delivered exactly latency cycles after its send time, in send order per
// virtual network.
func TestDeliveryTimeProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		if len(gaps) == 0 || len(gaps) > 50 {
			return true
		}
		eng := sim.NewEngine()
		n := New(eng, Config{Nodes: 2, Latency: 11})
		sent := make([]sim.Time, 0, len(gaps))
		eng.Spawn("sender", func(c *sim.Context) {
			for i, g := range gaps {
				c.Advance(sim.Time(g))
				c.Yield()
				sent = append(sent, c.Time())
				n.Send(&Packet{Src: 0, Dst: 1, VNet: VNetRequest, Handler: uint32(i)})
			}
			c.Sleep(100)
		})
		if err := eng.Run(); err != nil {
			return false
		}
		ep := n.Endpoint(1)
		for i := range gaps {
			p := ep.Dequeue()
			if p == nil || p.Handler != uint32(i) {
				return false
			}
			if p.DeliveredAt != sent[i]+11 {
				return false
			}
		}
		return ep.Dequeue() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVNetStrings(t *testing.T) {
	if VNetRequest.String() != "request" || VNetReply.String() != "reply" {
		t.Fatal("vnet strings wrong")
	}
	if VNet(9).String() == "" {
		t.Fatal("unknown vnet should still format")
	}
}

func TestLatencyAccessor(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Nodes: 1, Latency: 17})
	if n.Latency() != 17 {
		t.Fatalf("latency = %d", n.Latency())
	}
	if n.Endpoint(0).Node() != 0 {
		t.Fatal("endpoint node wrong")
	}
}

func TestWrappedNegativeDelayRejected(t *testing.T) {
	runWith(t, func(eng *sim.Engine) (*Network, func(*sim.Context)) {
		n := New(eng, Config{Nodes: 2, Latency: 11})
		return n, func(c *sim.Context) {
			defer func() {
				nerr, ok := recover().(*Error)
				if !ok {
					t.Error("wrapped-negative delay must panic with *network.Error")
				} else if nerr.Op != "send-after" {
					t.Errorf("error op = %q, want send-after", nerr.Op)
				}
			}()
			// The classic bug: a sim.Time difference that went negative
			// wraps to ~2^64 and used to schedule the delivery in the
			// unreachable far future, hanging the run.
			var base sim.Time
			n.SendAfter(&Packet{Src: 0, Dst: 1, VNet: VNetRequest}, base-5)
		}
	})
}

func TestInvalidDestinationRejected(t *testing.T) {
	runWith(t, func(eng *sim.Engine) (*Network, func(*sim.Context)) {
		n := New(eng, Config{Nodes: 2, Latency: 11})
		return n, func(c *sim.Context) {
			defer func() {
				if _, ok := recover().(*Error); !ok {
					t.Error("out-of-range destination must panic with *network.Error")
				}
			}()
			n.Send(&Packet{Src: 0, Dst: 7, VNet: VNetRequest})
		}
	})
}

// TestInvalidSourceRejected: Src becomes the delivery event's origin and,
// with finite bandwidth, indexes the injection port, so a source outside
// the machine is refused where a destination is — as a structured error
// the engine wraps into the run error, under both bandwidth models.
func TestInvalidSourceRejected(t *testing.T) {
	for _, bw := range []int{0, 4} {
		for src, want := range map[int]string{
			-3:      "source node -3 outside [0, 2)",
			7:       "source node 7 outside [0, 2)",
			1 << 33: "source node 8589934592 outside [0, 2)",
		} {
			eng := sim.NewEngine()
			n := New(eng, Config{Nodes: 2, Latency: 11, LinkBytesPerCycle: bw})
			eng.Spawn("driver", func(c *sim.Context) {
				n.Send(&Packet{Src: src, Dst: 1, VNet: VNetRequest})
			})
			var nerr *Error
			if err := eng.Run(); !errors.As(err, &nerr) {
				t.Errorf("link-bw %d, Src %d: Run: %v, want a *network.Error", bw, src, err)
			} else if nerr.Op != "send" || nerr.Node != src || nerr.Msg != want {
				t.Errorf("link-bw %d, Src %d: %+v, want Msg %q", bw, src, *nerr, want)
			}
		}
	}
}

// TestDeliveryTapPanicIsRunError: a packet fires as an event, so a
// structured error panicked under it — here from the receiving
// endpoint's Notify — must come out of Engine.Run wrapped, not take down
// Run's caller.
func TestDeliveryTapPanicIsRunError(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{Nodes: 2, Latency: 11})
	n.Endpoint(1).Notify = func(sim.Time) {
		panic(&Error{Op: "deliver", Node: 1, Msg: "tap refused the packet"})
	}
	eng.Spawn("driver", func(c *sim.Context) {
		n.Send(&Packet{Src: 0, Dst: 1, VNet: VNetRequest})
	})
	err := eng.Run()
	var nerr *Error
	if !errors.As(err, &nerr) || nerr.Op != "deliver" || nerr.Node != 1 {
		t.Fatalf("Run: %v, want the endpoint's *network.Error", err)
	}
	if want := "sim: event at cycle 11 panicked: network: deliver on node 1: tap refused the packet"; err.Error() != want {
		t.Errorf("Run: %q, want %q", err, want)
	}
}

// TestSendAfterZeroExtra pins the extra=0 edge: SendAfter(p, 0) must be
// exactly Send, in both bandwidth models.
func TestSendAfterZeroExtra(t *testing.T) {
	for _, bw := range []int{0, 4} {
		var got, want sim.Time
		runWith(t, func(eng *sim.Engine) (*Network, func(*sim.Context)) {
			n := New(eng, Config{Nodes: 3, Latency: 11, LinkBytesPerCycle: bw})
			return n, func(c *sim.Context) {
				c.Advance(100)
				c.Yield()
				n.Send(&Packet{Src: 0, Dst: 2, VNet: VNetRequest})
				n.SendAfter(&Packet{Src: 1, Dst: 2, VNet: VNetReply}, 0)
				c.Sleep(50)
				ep := n.Endpoint(2)
				want = ep.Dequeue().DeliveredAt // the reply (priority)
				got = ep.Dequeue().DeliveredAt  // the request
			}
		})
		if got != want {
			t.Errorf("bw=%d: SendAfter(p, 0) delivered at %d, Send at %d", bw, got, want)
		}
	}
}

// TestFiniteBandwidthSerialization pins the uncontended contended-mode
// cost: latency plus ceil(payload/bandwidth) cycles of port time.
func TestFiniteBandwidthSerialization(t *testing.T) {
	runWith(t, func(eng *sim.Engine) (*Network, func(*sim.Context)) {
		n := New(eng, Config{Nodes: 2, Latency: 11, LinkBytesPerCycle: 4})
		return n, func(c *sim.Context) {
			// handler(4) + one arg(8) = 12 bytes → ceil(12/4) = 3 cycles.
			n.Send(&Packet{Src: 0, Dst: 1, VNet: VNetRequest, Args: []uint64{1}})
			c.Sleep(50)
			p := n.Endpoint(1).Dequeue()
			if p == nil || p.DeliveredAt != 14 {
				t.Fatalf("delivered at %v, want 14 (11 wire + 3 serialisation)", p)
			}
			s := n.Stats()
			if s.VNets[VNetRequest].QueueingCycles != 0 {
				t.Errorf("uncontended send queued %d cycles", s.VNets[VNetRequest].QueueingCycles)
			}
		}
	})
}

// TestInjectionPortQueueing: two same-cycle sends from one node share its
// injection port, so the second serialises behind the first and the wait
// lands in QueueingCycles.
func TestInjectionPortQueueing(t *testing.T) {
	runWith(t, func(eng *sim.Engine) (*Network, func(*sim.Context)) {
		n := New(eng, Config{Nodes: 2, Latency: 11, LinkBytesPerCycle: 4})
		return n, func(c *sim.Context) {
			n.Send(&Packet{Src: 0, Dst: 1, VNet: VNetRequest, Args: []uint64{1}, Handler: 1}) // 12 B → 3 cycles
			n.Send(&Packet{Src: 0, Dst: 1, VNet: VNetRequest, Args: []uint64{2}, Handler: 2}) // queues 3 cycles
			c.Sleep(50)
			ep := n.Endpoint(1)
			first, second := ep.Dequeue(), ep.Dequeue()
			if first.Handler != 1 || second.Handler != 2 {
				t.Fatalf("order broken: %d then %d", first.Handler, second.Handler)
			}
			if first.DeliveredAt != 14 || second.DeliveredAt != 17 {
				t.Errorf("delivered at %d/%d, want 14/17", first.DeliveredAt, second.DeliveredAt)
			}
			if q := n.Stats().VNets[VNetRequest].QueueingCycles; q != 3 {
				t.Errorf("queueing cycles = %d, want 3", q)
			}
		}
	})
}

// TestInjectionPortOccupancyRoundsUp: a payload that is not a multiple
// of the link bandwidth holds its port for the ceiling, not the floor.
// 12 B at 8 B/cycle serialises for 2 cycles, so a second same-cycle send
// from the node queues 2 cycles behind the first.
func TestInjectionPortOccupancyRoundsUp(t *testing.T) {
	runWith(t, func(eng *sim.Engine) (*Network, func(*sim.Context)) {
		n := New(eng, Config{Nodes: 2, Latency: 11, LinkBytesPerCycle: 8})
		return n, func(c *sim.Context) {
			n.Send(&Packet{Src: 0, Dst: 1, VNet: VNetRequest, Args: []uint64{1}, Handler: 1}) // 12 B → 2 cycles
			n.Send(&Packet{Src: 0, Dst: 1, VNet: VNetRequest, Args: []uint64{2}, Handler: 2}) // queues 2 cycles
			c.Sleep(50)
			ep := n.Endpoint(1)
			first, second := ep.Dequeue(), ep.Dequeue()
			if first.DeliveredAt != 13 || second.DeliveredAt != 15 {
				t.Errorf("delivered at %d/%d, want 13/15", first.DeliveredAt, second.DeliveredAt)
			}
			if q := n.Stats().VNets[VNetRequest].QueueingCycles; q != 2 {
				t.Errorf("queueing cycles = %d, want 2", q)
			}
		}
	})
}

// TestEjectionPortContention: two nodes send to the same destination in
// the same cycle. The heads arrive together and contend for one ejection
// port; the stable event key (origin 0 before origin 1 at equal time)
// breaks the tie, so node 0's packet drains first.
func TestEjectionPortContention(t *testing.T) {
	runWith(t, func(eng *sim.Engine) (*Network, func(*sim.Context)) {
		n := New(eng, Config{Nodes: 3, Latency: 11, LinkBytesPerCycle: 4})
		return n, func(c *sim.Context) {
			n.Send(&Packet{Src: 0, Dst: 2, VNet: VNetRequest, Args: []uint64{1}, Handler: 10})
			n.Send(&Packet{Src: 1, Dst: 2, VNet: VNetRequest, Args: []uint64{2}, Handler: 11})
			c.Sleep(50)
			ep := n.Endpoint(2)
			first, second := ep.Dequeue(), ep.Dequeue()
			if first.Handler != 10 || second.Handler != 11 {
				t.Fatalf("tie-break broken: %d then %d", first.Handler, second.Handler)
			}
			if first.DeliveredAt != 14 || second.DeliveredAt != 17 {
				t.Errorf("delivered at %d/%d, want 14/17", first.DeliveredAt, second.DeliveredAt)
			}
			if q := n.Stats().VNets[VNetRequest].QueueingCycles; q != 3 {
				t.Errorf("queueing cycles = %d, want 3 (second head waited)", q)
			}
		}
	})
}

// TestVNetPortsIndependent: the two virtual networks own separate ports,
// so a request cannot delay a reply (the deadlock-avoidance property the
// split exists for).
func TestVNetPortsIndependent(t *testing.T) {
	runWith(t, func(eng *sim.Engine) (*Network, func(*sim.Context)) {
		n := New(eng, Config{Nodes: 2, Latency: 11, LinkBytesPerCycle: 1}) // 1 B/cycle: huge occupancy
		return n, func(c *sim.Context) {
			n.Send(&Packet{Src: 0, Dst: 1, VNet: VNetRequest, Data: make([]byte, 60)})
			n.Send(&Packet{Src: 0, Dst: 1, VNet: VNetReply, Args: []uint64{1}})
			c.Sleep(200)
			p := n.Endpoint(1).Dequeue()                    // reply drains first (priority)
			if p.VNet != VNetReply || p.DeliveredAt != 23 { // 11 + 12
				t.Errorf("reply delivered at %d on %v, want 23 despite busy request port", p.DeliveredAt, p.VNet)
			}
			if q := n.Stats().VNets[VNetReply].QueueingCycles; q != 0 {
				t.Errorf("reply queued %d cycles behind a request", q)
			}
		}
	})
}
