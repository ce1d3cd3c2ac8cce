package trace_test

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stache"
	"github.com/tempest-sim/tempest/internal/trace"
	"github.com/tempest-sim/tempest/internal/typhoon"
	"github.com/tempest-sim/tempest/internal/vm"
)

func TestTraceCapturesMissProtocol(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096, Seed: 1})
	tr := trace.New(0)
	typhoon.New(m, stache.New())
	m.Net.Tracer = tr
	seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
	if _, err := m.Run(func(p *machine.Proc) {
		if p.ID() == 0 {
			p.WriteU64(seg.At(0), 1)
		}
		p.Barrier()
		if p.ID() == 1 {
			p.ReadU64(seg.At(0))
		}
	}); err != nil {
		t.Fatal(err)
	}
	counts := make(map[trace.Kind]int)
	for _, e := range tr.Events() {
		counts[e.Kind]++
	}
	if counts[trace.KPageFault] == 0 {
		t.Error("no page fault traced")
	}
	if counts[trace.KBlockFault] == 0 {
		t.Error("no block fault traced")
	}
	if counts[trace.KMsgSend] == 0 || counts[trace.KMsgRecv] == 0 {
		t.Errorf("message events missing: %v", counts)
	}
	if counts[trace.KResume] == 0 {
		t.Error("no resume traced")
	}
	// The canonical order for node 1's miss: page fault, block fault,
	// request send, ... , resume.
	var sawPF, sawBF, sawSend, sawResume bool
	for _, e := range tr.Events() {
		switch {
		case e.Kind == trace.KPageFault && e.Node == 1:
			sawPF = true
		case e.Kind == trace.KBlockFault && e.Node == 1:
			if !sawPF {
				t.Fatal("block fault before page fault")
			}
			sawBF = true
		case e.Kind == trace.KMsgSend && e.Node == 1 && !sawSend && sawBF:
			sawSend = true
		case e.Kind == trace.KResume && e.Node == 1:
			if !sawSend {
				t.Fatal("resume before the request was sent")
			}
			sawResume = true
		}
	}
	if !sawResume {
		t.Fatal("node 1 never resumed")
	}
}

func TestTraceDump(t *testing.T) {
	tr := trace.New(10)
	tr.Emit(trace.Event{T: 42, Node: 3, Kind: trace.KTagChange, VA: 0x1000, Aux: 2})
	var b strings.Builder
	if err := tr.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"42", "node3", "tag-change", "0x1000"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []trace.Kind{trace.KBlockFault, trace.KPageFault, trace.KMsgSend,
		trace.KMsgRecv, trace.KResume, trace.KTagChange, trace.Kind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
}

// unpackMsg reverses trace.PackMsg.
func unpackMsg(aux uint64) (handler uint32, src, dst int, vnet uint8, bytes int) {
	return uint32(aux & 0xFFFF), int(aux >> 16 & 0xFFF), int(aux >> 28 & 0xFFF),
		uint8(aux >> 40 & 1), int(aux >> 41 & 0xFF)
}

func TestPackMsgRoundTrip(t *testing.T) {
	cases := []struct {
		handler  uint32
		src, dst int
		vnet     uint8
		bytes    int
	}{
		{0, 0, 0, 0, 0},
		{16, 1, 2, 0, 4},
		{65535, 4095, 4095, 1, 255},
		{1234, 31, 0, 1, 80},
	}
	for _, c := range cases {
		h, s, d, v, b := unpackMsg(trace.PackMsg(c.handler, c.src, c.dst, c.vnet, c.bytes))
		if h != c.handler || s != c.src || d != c.dst || v != c.vnet || b != c.bytes {
			t.Errorf("PackMsg%+v round trip = (%d %d %d %d %d)", c, h, s, d, v, b)
		}
	}
	for _, bad := range []func(){
		func() { trace.PackMsg(1<<16, 0, 0, 0, 0) },
		func() { trace.PackMsg(0, 1<<12, 0, 0, 0) },
		func() { trace.PackMsg(0, 0, 1<<12, 0, 0) },
		func() { trace.PackMsg(0, 0, -1, 0, 0) },
		func() { trace.PackMsg(0, 0, 0, 2, 0) },
		func() { trace.PackMsg(0, 0, 0, 0, 256) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("PackMsg out-of-range field did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestTracerTruncatedAtCapBoundary pins the cap (see the Tracer type
// comment): it is total, not per node. One node may fill all of it;
// after that every node's emissions are dropped and counted, and
// Truncated flags the trace so a recorder can refuse it.
func TestTracerTruncatedAtCapBoundary(t *testing.T) {
	tr := trace.New(4)
	if tr.Truncated() {
		t.Fatal("fresh tracer reports truncated")
	}
	for i := 0; i < 4; i++ {
		tr.Emit(trace.Event{T: sim.Time(i), Node: 0, Kind: trace.KResume})
	}
	if tr.Truncated() {
		t.Fatal("node 0 alone lost events below the cap: the cap must be total, not per node")
	}
	tr.Emit(trace.Event{T: 100, Node: 1, Kind: trace.KResume})
	if !tr.Truncated() || tr.Dropped() != 1 {
		t.Fatalf("after a fifth event: truncated %v, dropped %d; want true, 1", tr.Truncated(), tr.Dropped())
	}
	if n0, n1 := len(tr.NodeEvents(0)), len(tr.NodeEvents(1)); n0 != 4 || n1 != 0 {
		t.Fatalf("kept %d events of node 0 and %d of node 1, want 4 and 0", n0, n1)
	}
}

// emitAux emits evs in order, numbering each in Aux by its emission
// index, and returns the tracer.
func emitAux(evs []trace.Event) *trace.Tracer {
	tr := trace.New(0)
	for i, e := range evs {
		e.Aux = uint64(i)
		tr.Emit(e)
	}
	return tr
}

func auxes(evs []trace.Event) []uint64 {
	var out []uint64
	for _, e := range evs {
		out = append(out, e.Aux)
	}
	return out
}

// TestNodeEventsKeepEmissionOrder: a node's events come back in the
// order they were emitted even when their times run backwards (a
// context with a lagging clock) — the order the corpus records.
func TestNodeEventsKeepEmissionOrder(t *testing.T) {
	tr := emitAux([]trace.Event{
		{T: 10, Node: 0}, {T: 3, Node: 1}, {T: 5, Node: 0}, {T: 7, Node: 0}, {T: 1, Node: 1},
	})
	if got := auxes(tr.NodeEvents(0)); !slices.Equal(got, []uint64{0, 2, 3}) {
		t.Errorf("node 0 events in order %v, want emission order [0 2 3]", got)
	}
	if got := auxes(tr.NodeEvents(1)); !slices.Equal(got, []uint64{1, 4}) {
		t.Errorf("node 1 events in order %v, want emission order [1 4]", got)
	}
	if n := len(tr.NodeEvents(2)); n != 0 {
		t.Errorf("a node that emitted nothing has %d events", n)
	}
}

// TestEventsOrderByTimeThenNode: Events sorts by time, then node, and
// one node's events at one time keep their emission order.
func TestEventsOrderByTimeThenNode(t *testing.T) {
	tr := emitAux([]trace.Event{
		{T: 5, Node: 1}, {T: 5, Node: 0}, {T: 3, Node: 1}, {T: 5, Node: 1}, {T: 5, Node: 0},
	})
	if got, want := auxes(tr.Events()), []uint64{2, 1, 4, 0, 3}; !slices.Equal(got, want) {
		t.Errorf("Events order %v, want %v", got, want)
	}
}

// TestTraceDroppedAccounting checks the cap bookkeeping in isolation:
// every emission past the cap increments Dropped and nothing is evicted.
func TestTraceDroppedAccounting(t *testing.T) {
	tr := trace.New(3)
	for i := 0; i < 10; i++ {
		tr.Emit(trace.Event{T: sim.Time(i)})
	}
	if len(tr.Events()) != 3 {
		t.Fatalf("events = %d, want 3 (oldest kept)", len(tr.Events()))
	}
	if tr.Events()[0].T != 0 || tr.Events()[2].T != 2 {
		t.Errorf("cap should keep the oldest events: %v", tr.Events())
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped())
	}
}

// TestTracerPerMachineParallel runs several traced machines concurrently,
// one goroutine and one Tracer per machine (a Tracer must never be
// shared across concurrently running machines — see the type comment). Each machine's trace and Dropped() accounting must be
// bit-identical to a serial run of the same configuration.
func TestTracerPerMachineParallel(t *testing.T) {
	const maxEvents = 4 // tight: every machine drops events
	runOne := func(seed uint64) (int, uint64, error) {
		m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096, Seed: seed})
		tr := trace.New(maxEvents)
		typhoon.New(m, stache.New())
		m.Net.Tracer = tr
		seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
		if _, err := m.Run(func(p *machine.Proc) {
			if p.ID() == 0 {
				p.WriteU64(seg.At(0), 7)
			}
			p.Barrier()
			p.ReadU64(seg.At(0))
		}); err != nil {
			return 0, 0, err
		}
		return len(tr.Events()), tr.Dropped(), nil
	}

	type shape struct {
		events  int
		dropped uint64
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	serial := make([]shape, len(seeds))
	for i, s := range seeds {
		ev, dr, err := runOne(s)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = shape{ev, dr}
	}

	parallel := make([]shape, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev, dr, err := runOne(s)
			parallel[i], errs[i] = shape{ev, dr}, err
		}()
	}
	wg.Wait()
	for i := range seeds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if parallel[i] != serial[i] {
			t.Errorf("seed %d: parallel trace %+v != serial %+v", seeds[i], parallel[i], serial[i])
		}
		if parallel[i].dropped == 0 {
			t.Errorf("seed %d: cap %d never dropped; tighten the test", seeds[i], maxEvents)
		}
	}
}
