package trace_test

import (
	"fmt"
	"testing"

	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/trace"
)

// formatted is the event line as fmt prints it — the format
// Event.String, written without fmt, must reproduce.
func formatted(e trace.Event) string {
	return fmt.Sprintf("%10d node%-3d %-12s va=%#x aux=%d", e.T, e.Node, e.Kind, e.VA, e.Aux)
}

// TestEventRoundTrip pins String/ParseEvent as exact inverses: the pair
// is the committed-corpus event encoding, so a drift in either direction
// would silently invalidate every recorded trace.
func TestEventRoundTrip(t *testing.T) {
	events := []trace.Event{
		{},
		{T: 42, Node: 3, Kind: trace.KTagChange, VA: 0x1000, Aux: 2},
		{T: 1<<63 - 1, Node: 999, Kind: trace.KNetDeliver, VA: mem.VA(1 << 40), Aux: ^uint64(0)},
		{T: 7, Node: 0, Kind: trace.KNetSend, VA: 0,
			Aux: trace.PackMsg(1234, 5, 6, 1, 80)},
		{T: 11, Node: 12, Kind: trace.Kind(200), VA: 0xdeadbeef, Aux: 1},
		{T: ^sim.Time(0), Node: 1<<31 - 1, Kind: trace.KBlockFault, VA: ^mem.VA(0), Aux: ^uint64(0)},
	}
	for _, e := range events {
		if want := formatted(e); e.String() != want {
			t.Errorf("String() = %q, want %q", e.String(), want)
		}
		got, err := trace.ParseEvent(e.String())
		if err != nil {
			t.Errorf("ParseEvent(%q): %v", e.String(), err)
			continue
		}
		if got != e {
			t.Errorf("round trip: %+v -> %q -> %+v", e, e.String(), got)
		}
	}
}

func TestParseEventErrors(t *testing.T) {
	bad := []string{
		"",
		"42 node3 tag-change va=0x1000",              // missing aux
		"x node3 tag-change va=0x1000 aux=2",         // bad time
		"42 3 tag-change va=0x1000 aux=2",            // bad node
		"42 node-3 tag-change va=0x1000 aux=2",       // negative node
		"42 node3 what-is-this va=0x1000 aux=2",      // unknown kind
		"42 node3 kind(999) va=0x1000 aux=2",         // kind out of range
		"42 node3 tag-change va=1000 aux=2",          // va missing 0x
		"42 node3 tag-change va=0xzz aux=2",          // bad hex
		"42 node3 tag-change va=0x1000 aux=-2",       // bad aux
		"42 node3 tag-change va=0x1000 aux=2 junk=1", // extra field
	}
	for _, line := range bad {
		if _, err := trace.ParseEvent(line); err == nil {
			t.Errorf("ParseEvent(%q) = nil error, want error", line)
		}
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	// Every representable kind — named or not — must round-trip through
	// its String form, so corpora survive kind-set growth in either
	// direction.
	for k := 0; k < 256; k++ {
		kind := trace.Kind(k)
		got, err := trace.ParseKind(kind.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", kind.String(), err)
		}
		if got != kind {
			t.Fatalf("ParseKind(%q) = %d, want %d", kind.String(), got, kind)
		}
	}
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
		h, s, d, v, b := trace.UnpackMsg(trace.PackMsg(c.handler, c.src, c.dst, c.vnet, c.bytes))
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

// FuzzTraceParse fuzzes the corpus event decoder: any input must either
// fail with an error or be exactly the String form of the Event it
// decodes to — one spelling per event, column padding included. Panics
// and accepted non-canonical lines are the bugs this hunts.
func FuzzTraceParse(f *testing.F) {
	f.Add("        42 node3   tag-change   va=0x1000 aux=2")
	f.Add("         0 node0   block-fault  va=0x0 aux=0")
	f.Add("      1234 node15  net-send     va=0x3c aux=18691700556816")
	f.Add("       990 node7   net-deliver  va=0x19 aux=551903297553")
	f.Add("         9 node1   kind(200)    va=0xdeadbeef aux=18446744073709551615")
	f.Add("not an event line")
	f.Fuzz(func(t *testing.T, line string) {
		e, err := trace.ParseEvent(line)
		if err != nil {
			return
		}
		if e.String() != line || formatted(e) != line {
			t.Fatalf("accepted non-canonical line %q (String %q, fmt %q)", line, e.String(), formatted(e))
		}
	})
}

// TestTracerTruncatedAtCapBoundary documents the cap boundary (see the
// Tracer type comment): once a node's buffer fills, later events for
// that node are dropped and counted while other nodes keep recording —
// the merged stream interleaves complete and truncated nodes, and
// Truncated flags the whole trace so replay can refuse it.
func TestTracerTruncatedAtCapBoundary(t *testing.T) {
	tr := trace.New(4) // 2 nodes -> 2 events per node
	tr.Prepare(2)
	if tr.Truncated() {
		t.Fatal("fresh tracer reports truncated")
	}
	for i := 0; i < 4; i++ {
		tr.Emit(trace.Event{T: sim.Time(i), Node: 0, Kind: trace.KResume})
	}
	// Node 0 is at cap; node 1 still records.
	tr.Emit(trace.Event{T: 100, Node: 1, Kind: trace.KResume})
	if !tr.Truncated() {
		t.Fatal("tracer not truncated after overflowing node 0")
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("merged events = %d, want 3", len(ev))
	}
	// The merge interleaves node 0's truncated prefix with node 1's
	// later event: the stream is not a global-time prefix.
	if last := ev[len(ev)-1]; last.Node != 1 || last.T != 100 {
		t.Fatalf("expected node 1's post-truncation event last, got %+v", last)
	}
	tr.Reset()
	if tr.Truncated() {
		t.Fatal("Reset must clear the truncated flag")
	}
}
