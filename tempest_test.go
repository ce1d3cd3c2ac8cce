package tempest_test

import (
	"strings"
	"testing"

	tempest "github.com/tempest-sim/tempest"
	"github.com/tempest-sim/tempest/internal/trace"
)

func smallCfg(nodes int) tempest.Config {
	cfg := tempest.DefaultConfig()
	cfg.Nodes = nodes
	cfg.CacheSize = 4 << 10
	return cfg
}

// TestPublicAPIQuickstart runs the package-documentation example shape
// end to end on every system.
func TestPublicAPIQuickstart(t *testing.T) {
	build := []func() *tempest.Machine{
		func() *tempest.Machine { return tempest.NewDirNNB(smallCfg(4)) },
		func() *tempest.Machine { m, _ := tempest.NewTyphoonStache(smallCfg(4)); return m },
		func() *tempest.Machine { m, _ := tempest.NewBlizzardStache(smallCfg(4)); return m },
	}
	for _, mk := range build {
		m := mk()
		data := m.AllocShared("data", 4096, tempest.RoundRobin{}, 0)
		got := make([]uint64, 4)
		res, err := m.Run(func(p *tempest.Proc) {
			p.WriteU64(data.At(uint64(8*p.ID())), uint64(p.ID()*11))
			p.Barrier()
			got[p.ID()] = p.ReadU64(data.At(uint64(8 * ((p.ID() + 1) % p.N()))))
		})
		if err != nil {
			t.Fatalf("%s: %v", m.Sys.Name(), err)
		}
		for i, v := range got {
			if want := uint64(((i + 1) % 4) * 11); v != want {
				t.Errorf("%s: node %d read %d, want %d", m.Sys.Name(), i, v, want)
			}
		}
		if res.Cycles == 0 {
			t.Errorf("%s: zero cycles", m.Sys.Name())
		}
	}
}

func TestTyphoonOf(t *testing.T) {
	m, _ := tempest.NewTyphoonStache(smallCfg(2))
	if tempest.TyphoonOf(m) == nil {
		t.Fatal("TyphoonOf returned nil for a Typhoon machine")
	}
	d := tempest.NewDirNNB(smallCfg(2))
	if tempest.TyphoonOf(d) != nil {
		t.Fatal("TyphoonOf returned non-nil for DirNNB")
	}
}

func TestStacheMaxPagesOption(t *testing.T) {
	m, st := tempest.NewTyphoonStache(smallCfg(2), tempest.StacheMaxPages(2))
	data := m.AllocShared("data", 8*tempest.PageSize, tempest.OnNode{Node: 0}, 0)
	res, err := m.Run(func(p *tempest.Proc) {
		if p.ID() != 1 {
			return
		}
		for pg := 0; pg < 8; pg++ {
			p.WriteU64(data.At(uint64(pg*tempest.PageSize)), uint64(pg))
		}
		for pg := 0; pg < 8; pg++ {
			if got := p.ReadU64(data.At(uint64(pg * tempest.PageSize))); got != uint64(pg) {
				t.Errorf("page %d = %d", pg, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get("stache.replacements") == 0 {
		t.Error("budget of 2 pages should force replacements")
	}
}

// TestDeterministicPublicRuns pins bit-identical repeatability at the
// public API level.
func TestDeterministicPublicRuns(t *testing.T) {
	exec := func() uint64 {
		m, _ := tempest.NewTyphoonStache(smallCfg(4))
		data := m.AllocShared("data", 64<<10, tempest.RoundRobin{}, 0)
		res, err := m.Run(func(p *tempest.Proc) {
			for i := 0; i < 200; i++ {
				off := uint64(((i*13 + p.ID()*29) % 8000) * 8)
				if i%4 == 0 {
					p.WriteU64(data.At(off), uint64(i))
				} else {
					p.ReadU64(data.At(off))
				}
			}
			p.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Cycles)
	}
	if a, b := exec(), exec(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

// TestTracerRecordsDirNNBMiss: the network carries the run's one
// recorder, so a DirNNB machine traces its message stream like any
// other. One remote read miss is a request from node 1 that is sent,
// arrives at its home and is dispatched there by the directory agent.
func TestTracerRecordsDirNNBMiss(t *testing.T) {
	m := tempest.NewDirNNB(smallCfg(2))
	tr := tempest.NewTracer(0)
	m.Net.Tracer = tr
	data := m.AllocShared("data", tempest.PageSize, tempest.OnNode{Node: 0}, 0)
	if _, err := m.Run(func(p *tempest.Proc) {
		if p.ID() == 1 {
			p.ReadU64(data.At(0))
		}
	}); err != nil {
		t.Fatal(err)
	}
	var send *tempest.TraceEvent
	var arrived, delivered bool
	for _, e := range tr.Events() {
		switch {
		case e.Kind == trace.KNetSend && e.Node == 1 && send == nil:
			send = &e
		case send == nil || e.Aux != send.Aux:
		case e.Kind == trace.KNetArrive && e.Node == 0 && e.T >= send.T:
			arrived = true
		case e.Kind == trace.KNetDeliver && e.Node == 0 && arrived:
			delivered = true
		}
	}
	if send == nil || !arrived || !delivered {
		var dump strings.Builder
		tr.Dump(&dump)
		t.Fatalf("want node 1's request sent, arriving at home 0 and dispatched there; trace:\n%s", dump.String())
	}
}
