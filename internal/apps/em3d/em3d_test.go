package em3d

import (
	"runtime"
	"testing"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/blizzard"
	"github.com/tempest-sim/tempest/internal/dirnnb"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stache"
	"github.com/tempest-sim/tempest/internal/typhoon"
	"github.com/tempest-sim/tempest/internal/vm"
)

func cfg4() machine.Config {
	return machine.Config{Nodes: 4, CacheSize: 4096, Seed: 1}
}

func TestEM3DOnDirNNB(t *testing.T) {
	m := machine.New(cfg4())
	dirnnb.New(m)
	app := New(Tiny())
	app.Setup(m)
	if _, err := m.Run(app.Body); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := app.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestEM3DOnTyphoonStache(t *testing.T) {
	m := machine.New(cfg4())
	st := stache.New()
	typhoon.New(m, st)
	app := New(Tiny())
	app.Setup(m)
	if _, err := m.Run(app.Body); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if err := app.Verify(m); err != nil {
		t.Fatal(err)
	}
}

func TestEM3DOnTyphoonUpdate(t *testing.T) {
	m := machine.New(cfg4())
	upd := NewUpdateProtocol()
	typhoon.New(m, upd)
	app := NewUpdateApp(Tiny(), upd)
	app.Setup(m)
	if _, err := m.Run(app.Body); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := app.Verify(m); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateBeatsStacheOnRemoteEdges is the Figure 4 shape at one point:
// with a substantial remote-edge fraction, the custom update protocol
// must finish faster than both invalidation-based systems.
func TestUpdateBeatsStacheOnRemoteEdges(t *testing.T) {
	c := Tiny()
	c.PctRemote = 50
	c.Iters = 4

	exec := func(build func(m *machine.Machine) runnable) sim.Time {
		m := machine.New(cfg4())
		app := build(m)
		app.Setup(m)
		res, err := m.Run(app.Body)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := app.Verify(m); err != nil {
			t.Fatal(err)
		}
		return res.ROICycles
	}

	stacheT := exec(func(m *machine.Machine) runnable {
		st := stache.New()
		typhoon.New(m, st)
		return New(c)
	})
	updT := exec(func(m *machine.Machine) runnable {
		u := NewUpdateProtocol()
		typhoon.New(m, u)
		return NewUpdateApp(c, u)
	})
	dirT := exec(func(m *machine.Machine) runnable {
		dirnnb.New(m)
		return New(c)
	})

	t.Logf("cycles: dirnnb=%d stache=%d update=%d", dirT, stacheT, updT)
	if updT >= stacheT {
		t.Errorf("update (%d) not faster than stache (%d)", updT, stacheT)
	}
	if updT >= dirT {
		t.Errorf("update (%d) not faster than dirnnb (%d)", updT, dirT)
	}
}

// apps is the minimal interface the comparison needs.
type runnable interface {
	Setup(m *machine.Machine)
	Body(p *machine.Proc)
	Verify(m *machine.Machine) error
}

func TestEM3DDeterministic(t *testing.T) {
	exec := func() sim.Time {
		m := machine.New(cfg4())
		st := stache.New()
		typhoon.New(m, st)
		app := New(Tiny())
		app.Setup(m)
		res, err := m.Run(app.Body)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Cycles
	}
	if a, b := exec(), exec(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

// netMessages counts packets that actually crossed the network (the
// paper's message counts exclude a processor's hints to its own NP,
// which short-circuit the network).
func netMessages(res machine.Result) uint64 {
	var msgs uint64
	for _, v := range res.Net.VNets {
		msgs += v.Packets
	}
	return msgs - res.Net.LocalSends
}

// TestCheckInVariantCorrectAndCheaperThanPlain reproduces the paper §4
// argument chain at one sweep point: check-in annotations reduce
// coherence messages versus plain Stache, and the custom update protocol
// reduces them further.
func TestCheckInProtocolChain(t *testing.T) {
	c := Tiny()
	c.PctRemote = 40
	c.Iters = 4

	msgs := map[string]uint64{}
	cycles := map[string]uint64{}

	// Plain Stache.
	{
		m := machine.New(cfg4())
		st := stache.New()
		typhoon.New(m, st)
		app := New(c)
		app.Setup(m)
		res, err := m.Run(app.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(m); err != nil {
			t.Fatal(err)
		}
		msgs["stache"] = netMessages(res)
		cycles["stache"] = uint64(res.ROICycles)
	}
	// Stache + check-in annotations.
	{
		m := machine.New(cfg4())
		st := stache.New()
		typhoon.New(m, st)
		app := NewCheckInApp(c, st)
		app.Setup(m)
		res, err := m.Run(app.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(m); err != nil {
			t.Fatal(err)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if res.Counters.Get("stache.checkins") == 0 {
			t.Fatal("no check-ins recorded")
		}
		msgs["checkin"] = netMessages(res)
		cycles["checkin"] = uint64(res.ROICycles)
	}
	// Custom update protocol.
	{
		m := machine.New(cfg4())
		u := NewUpdateProtocol()
		typhoon.New(m, u)
		app := NewUpdateApp(c, u)
		app.Setup(m)
		res, err := m.Run(app.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(m); err != nil {
			t.Fatal(err)
		}
		msgs["update"] = netMessages(res)
		cycles["update"] = uint64(res.ROICycles)
	}

	t.Logf("messages: stache=%d checkin=%d update=%d", msgs["stache"], msgs["checkin"], msgs["update"])
	t.Logf("cycles:   stache=%d checkin=%d update=%d", cycles["stache"], cycles["checkin"], cycles["update"])
	if msgs["checkin"] >= msgs["stache"] {
		t.Errorf("check-in should reduce messages: %d vs %d", msgs["checkin"], msgs["stache"])
	}
	if msgs["update"] >= msgs["checkin"] {
		t.Errorf("update should reduce messages below check-in: %d vs %d", msgs["update"], msgs["checkin"])
	}
}

// TestEM3DRunsOnOneNode: on one node the remote-target pool is empty, so
// set-up draws no remote processor, and every system EM3D runs on runs
// and verifies it.
func TestEM3DRunsOnOneNode(t *testing.T) {
	c := Tiny()
	systems := []struct {
		name  string
		build func(m *machine.Machine) runnable
	}{
		{"dirnnb", func(m *machine.Machine) runnable { dirnnb.New(m); return New(c) }},
		{"typhoon-stache", func(m *machine.Machine) runnable { typhoon.New(m, stache.New()); return New(c) }},
		{"blizzard", func(m *machine.Machine) runnable { blizzard.NewStache(m, blizzard.Config{}); return New(c) }},
		{"typhoon-update", func(m *machine.Machine) runnable {
			u := NewUpdateProtocol()
			typhoon.New(m, u)
			return NewUpdateApp(c, u)
		}},
	}
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			m := machine.New(machine.Config{Nodes: 1, CacheSize: 4096, Seed: 1})
			app := sys.build(m)
			app.Setup(m)
			if _, err := m.Run(app.Body); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := app.Verify(m); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// referenceGraph states set-up's draw order independently of the
// package: for the E phase and then the H phase, each processor draws a
// pool of remote targets (a processor other than itself, then an
// element), and then per edge slot a local element, a remote coin and a
// pool pick when the pool is not empty, and a weight.
func referenceGraph(c Config, P int) (idx [2][][]int32, w [2][][]float64) {
	per := c.PerProc(P)
	rng := apps.NewRand(c.Seed)
	for ph := range 2 {
		idx[ph] = make([][]int32, P)
		w[ph] = make([][]float64, P)
		for p := 0; p < P; p++ {
			expRemote := per * c.Degree * c.PctRemote / 100
			poolSize := max(expRemote/3, min(expRemote, 1))
			var pool []int32
			for i := 0; i < poolSize && P > 1; i++ {
				q := rng.Intn(P - 1)
				if q >= p {
					q++
				}
				pool = append(pool, int32(q*per+rng.Intn(per)))
			}
			for s := 0; s < per*c.Degree; s++ {
				t := int32(p*per + rng.Intn(per))
				if len(pool) > 0 && rng.Intn(100) < c.PctRemote {
					t = pool[rng.Intn(len(pool))]
				}
				idx[ph][p] = append(idx[ph][p], t)
				w[ph][p] = append(w[ph][p], 0.001+0.01*rng.Float64())
			}
		}
	}
	return idx, w
}

// TestWeightsReplaySetUpDraws: the index tables hold the targets set-up
// drew, and the weights the bodies write into simulated memory — which
// no table holds, the bodies replay them from the generator — are the
// weights drawn with those targets. Verify replays the same weights, so
// it cannot see a drift the bodies share; this test can.
func TestWeightsReplaySetUpDraws(t *testing.T) {
	c := Tiny()
	c.Iters = 1
	m := machine.New(cfg4())
	dirnnb.New(m)
	app := New(c)
	app.Setup(m)
	if _, err := m.Run(app.Body); err != nil {
		t.Fatalf("Run: %v", err)
	}
	idx, w := referenceGraph(c, m.Cfg.Nodes)
	adj := [2][][]int32{app.eAdj, app.hAdj}
	arr := [2]*apps.DistArray{app.eW, app.hW}
	for ph := range 2 {
		for p := range idx[ph] {
			for s, want := range idx[ph][p] {
				if got := adj[ph][p][s]; got != want {
					t.Fatalf("phase %d proc %d slot %d: target %d, want %d", ph, p, s, got, want)
				}
				if got := apps.ReadBackF64(m, arr[ph].At(p, s)); got != w[ph][p][s] {
					t.Fatalf("phase %d proc %d slot %d: weight %v, want %v", ph, p, s, got, w[ph][p][s])
				}
			}
		}
	}
}

// segmentsOnly is a memory system whose SetupSegment places nothing, so
// that a segment costs only its VM records.
type segmentsOnly struct{ machine.MemSystem }

func (segmentsOnly) SetupSegment(*vm.Segment) {}

// allocated returns the bytes of Go heap f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSetUpAllocatesAFewBytesPerEdge: set-up's graph is one int32 per
// edge, plus each processor's remote-target pool and generator state; no
// table holds a VA or a weight. The instance is the reduced small set on
// 8 nodes. The four value and weight arrays' own cost (segment and page
// records) is measured on a twin machine and not counted: it is the
// layout of simulated memory, not the graph.
func TestSetUpAllocatesAFewBytesPerEdge(t *testing.T) {
	c := Small()
	c.TotalNodes, c.Degree = 8000, 5
	newMachine := func() *machine.Machine {
		m := machine.New(machine.Config{Nodes: 8, CacheSize: 4096, Seed: 1})
		m.SetMemSystem(segmentsOnly{})
		return m
	}
	m, twin := newMachine(), newMachine()
	app := New(c)
	setup := allocated(func() { app.Setup(m) })
	layout := allocated(func() {
		for _, n := range []int{app.per, app.per, app.per * c.Degree, app.per * c.Degree} {
			apps.NewDistArray(twin, "layout", n, 8, 0)
		}
	})
	edges := 2 * m.Cfg.Nodes * app.per * c.Degree
	perEdge := float64(setup-layout) / float64(edges)
	t.Logf("set-up allocated %d bytes, %d of them segment layout, for %d edges: %.2f per edge", setup, layout, edges, perEdge)
	if perEdge > 5 {
		t.Errorf("set-up allocated %.2f bytes per edge beyond the segment layout, want at most 5", perEdge)
	}
}
