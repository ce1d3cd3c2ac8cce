package conform

import (
	"errors"
	"fmt"

	"github.com/tempest-sim/tempest/internal/agent"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/trace"
)

// Replay limits, mirroring the network's own bounds so a corrupted
// stream becomes a structured error before it can panic the engine.
const (
	maxReplayTime  = sim.Time(1) << 60
	maxReplayDelay = sim.Time(1) << 40
)

// packetMinBytes is the smallest recordable payload: the handler word.
const packetMinBytes = 4

// msg is a packet identity decoded from a PackMsg Aux.
type msg struct {
	handler uint32
	src     int
	vnet    uint8
	bytes   int
}

func (m msg) String() string {
	return fmt.Sprintf("handler=%d src=%d vnet=%d bytes=%d", m.handler, m.src, m.vnet, m.bytes)
}

func packetMsg(p *network.Packet) msg {
	return msg{handler: p.Handler, src: p.Src, vnet: uint8(p.VNet), bytes: p.PayloadBytes()}
}

// arrival is one expected endpoint delivery (KNetArrive).
type arrival struct {
	at sim.Time
	m  msg
}

// delivery is one expected dispatch (KNetDeliver).
type delivery struct {
	start   sim.Time
	service sim.Time
	m       msg
}

const maxReplayErrs = 8

// replayState collects divergences across the scripted nodes.
type replayState struct {
	errs []string
}

func (rs *replayState) failf(format string, args ...any) {
	if len(rs.errs) < maxReplayErrs {
		rs.errs = append(rs.errs, fmt.Sprintf(format, args...))
	}
}

// replayCore is the scripted agent.Dispatcher standing in for the
// protocol on one node. Dispatch identity is checked per virtual
// network: within a VNet the dispatch order equals the delivery order,
// which the replayed network reproduces exactly, but across VNets a
// live NP's dispatch loop interleaves urgent fault work the message
// trace does not carry, so its reply-versus-request picks can differ
// from the replay's. A pure message-driven agent (strict: DirNNB) has
// no such work: for it the dispatch schedule is message-determined and
// checked cycle-exact, occupancy waits included.
type replayCore struct {
	node   int
	strict bool
	exp    []delivery // recorded dispatch order
	byVNet [2][]int   // per-VNet indices into exp
	cur    int        // strict cursor into exp
	curVN  [2]int     // per-VNet cursors into byVNet
	core   *agent.Core
	rs     *replayState
}

func (rn *replayCore) DispatchMessage(c *sim.Context, pkt *network.Packet) {
	got := packetMsg(pkt)
	var e delivery
	if rn.strict {
		if rn.cur >= len(rn.exp) {
			rn.rs.failf("node %d: unexpected dispatch %d at cycle %d (%v) — recording has only %d",
				rn.node, rn.cur, c.Time(), got, len(rn.exp))
			rn.cur++
			return
		}
		e = rn.exp[rn.cur]
		rn.cur++
		if c.Time() != e.start {
			rn.rs.failf("node %d: dispatch %d starts at cycle %d, recorded %d (%v)",
				rn.node, rn.cur-1, c.Time(), e.start, e.m)
			if e.start > c.Time() {
				c.SyncTo(e.start) // resync so one slip reports once, not everywhere
			}
		}
	} else {
		vn := got.vnet & 1
		idx := rn.curVN[vn]
		if idx >= len(rn.byVNet[vn]) {
			rn.rs.failf("node %d: unexpected vnet-%d dispatch %d at cycle %d (%v) — recording has only %d",
				rn.node, vn, idx, c.Time(), got, len(rn.byVNet[vn]))
			rn.curVN[vn]++
			return
		}
		e = rn.exp[rn.byVNet[vn][idx]]
		rn.curVN[vn]++
	}
	if got != e.m {
		rn.rs.failf("node %d: dispatch identity mismatch: recorded %v, replayed %v (cycle %d)",
			rn.node, e.m, got, c.Time())
	}
	// Charge the recorded service time, so the occupancy model sees the
	// busy intervals the live dispatches produced.
	c.Advance(e.service)
}

// replayEndpoint checks one node's arrival schedule: every packet
// enqueued at the node, in order, against the recorded KNetArrive
// events. Arrivals are fully determined by the send stream — injection
// and ejection serialisation included — so this check is cycle-exact
// for every protocol.
type replayEndpoint struct {
	node int
	exp  []arrival
	cur  int
	rs   *replayState
}

func (re *replayEndpoint) deliver(p *network.Packet) {
	got := packetMsg(p)
	if re.cur >= len(re.exp) {
		re.rs.failf("node %d: unexpected arrival %d at cycle %d (%v) — recording has only %d",
			re.node, re.cur, p.DeliveredAt, got, len(re.exp))
		re.cur++
		return
	}
	e := re.exp[re.cur]
	if p.DeliveredAt != e.at || got != e.m {
		re.rs.failf("node %d: arrival %d diverges: recorded cycle %d %v, replayed cycle %d %v",
			re.node, re.cur, e.at, e.m, p.DeliveredAt, got)
	}
	re.cur++
}

// replayPlan is a validated stream, partitioned for the replay engine.
type replayPlan struct {
	sends    [][]trace.Event
	arrivals [][]arrival
	delivs   [][]delivery
}

// plan validates the event stream and partitions it per node in stream
// order, turning every malformed (fuzzed) construction into a
// structured error before the engine can see it.
func plan(s *Stream) (*replayPlan, error) {
	p := &replayPlan{
		sends:    make([][]trace.Event, s.Cfg.Nodes),
		arrivals: make([][]arrival, s.Cfg.Nodes),
		delivs:   make([][]delivery, s.Cfg.Nodes),
	}
	for i, ev := range s.Events {
		if ev.Node < 0 || ev.Node >= s.Cfg.Nodes {
			return nil, fmt.Errorf("conform: replay: event %d on node %d, stream has %d nodes", i, ev.Node, s.Cfg.Nodes)
		}
		if ev.T < 0 || ev.T > maxReplayTime {
			return nil, fmt.Errorf("conform: replay: event %d at cycle %d outside [0, %d]", i, ev.T, maxReplayTime)
		}
		handler, src, dst, vnet, bytes := trace.UnpackMsg(ev.Aux)
		m := msg{handler: handler, src: src, vnet: vnet, bytes: bytes}
		switch ev.Kind {
		case trace.KNetSend:
			if src != ev.Node {
				return nil, fmt.Errorf("conform: replay: event %d: send recorded on node %d but packed src is %d", i, ev.Node, src)
			}
			if dst >= s.Cfg.Nodes {
				return nil, fmt.Errorf("conform: replay: event %d: destination %d outside the %d-node machine", i, dst, s.Cfg.Nodes)
			}
			if bytes < packetMinBytes || bytes > network.MaxPayloadBytes {
				return nil, fmt.Errorf("conform: replay: event %d: payload %d bytes outside [%d, %d]", i, bytes, packetMinBytes, network.MaxPayloadBytes)
			}
			if uint64(ev.VA) > uint64(maxReplayDelay) {
				return nil, fmt.Errorf("conform: replay: event %d: send delay %d beyond limit", i, ev.VA)
			}
			p.sends[ev.Node] = append(p.sends[ev.Node], ev)
		case trace.KNetArrive:
			if dst != ev.Node {
				return nil, fmt.Errorf("conform: replay: event %d: arrival recorded on node %d but packed dst is %d", i, ev.Node, dst)
			}
			if src >= s.Cfg.Nodes {
				return nil, fmt.Errorf("conform: replay: event %d: source %d outside the %d-node machine", i, src, s.Cfg.Nodes)
			}
			p.arrivals[ev.Node] = append(p.arrivals[ev.Node], arrival{at: ev.T, m: m})
		case trace.KNetDeliver:
			if dst != ev.Node {
				return nil, fmt.Errorf("conform: replay: event %d: dispatch recorded on node %d but packed dst is %d", i, ev.Node, dst)
			}
			if src >= s.Cfg.Nodes {
				return nil, fmt.Errorf("conform: replay: event %d: source %d outside the %d-node machine", i, src, s.Cfg.Nodes)
			}
			if uint64(ev.VA) > uint64(maxReplayDelay) {
				return nil, fmt.Errorf("conform: replay: event %d: service time %d beyond limit", i, ev.VA)
			}
			p.delivs[ev.Node] = append(p.delivs[ev.Node], delivery{start: ev.T, service: sim.Time(ev.VA), m: m})
		}
	}
	return p, nil
}

// Replay re-issues a recorded stream standalone — a fresh engine, the
// real network and agent layers, and one scripted replayCore per node
// in place of the protocol — and asserts the recomputed schedule
// against the recording:
//
//   - the arrival schedule (every packet's delivery cycle and identity
//     at every endpoint) cycle-exact, for every protocol: arrivals are
//     fully determined by the recorded sends, and the send drivers
//     reproduce each send's issue order and departure cycle exactly;
//   - the dispatch schedule per virtual network (identity and order)
//     for every protocol, and cycle-exact — start cycles and
//     occupancy-counter deltas (occ_waits / occ_wait_cycles) — for
//     DirNNB, whose agent runs nothing but the recorded messages.
//
// Every corpus file is thereby a conformance test of the message layer
// that runs without any protocol or application code; an NP trace's
// full-machine cycle-exactness is covered by Record comparison instead.
func Replay(s *Stream) (err error) {
	if s.Truncated {
		return errors.New("conform: refusing to replay a truncated stream (at least one node's tail is missing)")
	}
	if s.Cfg.Nodes <= 0 || s.Cfg.Nodes > maxStreamNodes {
		return fmt.Errorf("conform: replay: %d nodes outside [1, %d]", s.Cfg.Nodes, maxStreamNodes)
	}
	// The decoder parses times as unsigned, so a hostile header can smuggle
	// a negative sim.Time through the uint64 cast; bound every value the
	// replayed network and agents consume.
	if s.Cfg.NetLatency < 0 || s.Cfg.NetLatency > maxReplayDelay {
		return fmt.Errorf("conform: replay: net latency %d outside [0, %d]", s.Cfg.NetLatency, maxReplayDelay)
	}
	if s.Cfg.LinkBytesPerCycle < 0 {
		return fmt.Errorf("conform: replay: negative link bandwidth %d", s.Cfg.LinkBytesPerCycle)
	}
	if s.Cfg.OccupancyCycles < 0 || s.Cfg.OccupancyCycles > maxReplayDelay {
		return fmt.Errorf("conform: replay: occupancy %d outside [0, %d]", s.Cfg.OccupancyCycles, maxReplayDelay)
	}
	pl, err := plan(s)
	if err != nil {
		return err
	}
	// A malformed stream can still reach the network's own invariants
	// (it panics *network.Error on bad packets); surface those as
	// structured errors too.
	defer func() {
		if r := recover(); r != nil {
			var nerr *network.Error
			if e, ok := r.(error); ok && errors.As(e, &nerr) {
				err = fmt.Errorf("conform: replay: %w", e)
				return
			}
			panic(r)
		}
	}()
	eng := sim.NewEngine()
	net := network.New(eng, network.Config{
		Nodes:             s.Cfg.Nodes,
		Latency:           s.Cfg.NetLatency,
		LinkBytesPerCycle: s.Cfg.LinkBytesPerCycle,
	})
	rs := &replayState{}
	strict := s.System == "dirnnb"
	cores := make([]*replayCore, s.Cfg.Nodes)
	eps := make([]*replayEndpoint, s.Cfg.Nodes)
	// Agents first, then drivers, in node order: creation order feeds
	// scheduler tie-breaking.
	for i := 0; i < s.Cfg.Nodes; i++ {
		rn := &replayCore{node: i, strict: strict, exp: pl.delivs[i], rs: rs}
		for j, d := range rn.exp {
			rn.byVNet[d.m.vnet&1] = append(rn.byVNet[d.m.vnet&1], j)
		}
		rn.core = agent.Spawn(eng, net, i, fmt.Sprintf("replay-agent%d", i), "replay idle", s.Cfg.OccupancyCycles, rn, nil)
		cores[i] = rn
		eps[i] = &replayEndpoint{node: i, exp: pl.arrivals[i], rs: rs}
	}
	net.OnDeliver = func(p *network.Packet) { eps[p.Dst].deliver(p) }
	for i := 0; i < s.Cfg.Nodes; i++ {
		node := i
		script := pl.sends[i]
		eng.Spawn(fmt.Sprintf("replay-driver%d", node), func(c *sim.Context) {
			for _, ev := range script {
				// Reproduce the recorded call order and departure cycle.
				// The driver stays at time zero and encodes each send's
				// departure as its delay: injection-port claims use only
				// the departure cycle (start = max(SentAt, port busy)),
				// never the caller's clock, so this replays the exact
				// port evolution — which matters because a node's calls
				// come from several live contexts (its processor and its
				// protocol agent, each on its own clock), making the
				// recorded order non-monotonic in both issue time and
				// departure cycle. Per-node call order is what the
				// injection port serialises in, so the claims replay in
				// the order the live run made them.
				handler, _, dst, vnet, bytes := trace.UnpackMsg(ev.Aux)
				net.SendAfter(&network.Packet{
					Src: node, Dst: dst, VNet: network.VNet(vnet), Handler: handler,
					Data: zeroPayload[:bytes-packetMinBytes],
				}, ev.T+sim.Time(ev.VA)-c.Time())
			}
		})
	}
	if rerr := eng.Run(); rerr != nil {
		return fmt.Errorf("conform: replay: %w", rerr)
	}
	var waits, waitCycles uint64
	for i := 0; i < s.Cfg.Nodes; i++ {
		if eps[i].cur < len(eps[i].exp) {
			e := eps[i].exp[eps[i].cur]
			rs.errs = append(rs.errs, fmt.Sprintf("node %d: only %d of %d recorded arrivals replayed (next expected: cycle %d %v)",
				i, eps[i].cur, len(eps[i].exp), e.at, e.m))
		}
		rn := cores[i]
		done := rn.cur
		if !strict {
			done = rn.curVN[0] + rn.curVN[1]
		}
		if done < len(rn.exp) {
			rs.errs = append(rs.errs, fmt.Sprintf("node %d: only %d of %d recorded dispatches replayed",
				i, done, len(rn.exp)))
		}
		w, wc := rn.core.OccStats()
		waits += w
		waitCycles += wc
	}
	if strict {
		// DirNNB's occupancy counters are fully determined by the
		// message stream, so the replayed agents must reproduce the
		// live run's queueing to the cycle.
		if w, wc := s.Counter("dirnnb.occ_waits"), s.Counter("dirnnb.occ_wait_cycles"); waits != w || waitCycles != wc {
			rs.errs = append(rs.errs, fmt.Sprintf("occupancy counters diverge: replay saw %d waits / %d cycles, recording %d / %d",
				waits, waitCycles, w, wc))
		}
	}
	if len(rs.errs) > 0 {
		return fmt.Errorf("conform: replay %s-%s: %d divergences:\n  %s", s.App, s.System, len(rs.errs), joinLines(rs.errs))
	}
	return nil
}

// zeroPayload backs the replayed packets' data: replay checks the
// message schedule, not payload contents, so recorded sizes are
// reproduced with zeroed bytes.
var zeroPayload [network.MaxPayloadBytes - packetMinBytes]byte

func joinLines(lines []string) string {
	out := lines[0]
	for _, l := range lines[1:] {
		out += "\n  " + l
	}
	return out
}
