package harness

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/apps/ocean"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/sim"
)

// setupFailureSystems are the Typhoon-based ways to run tiny em3d: the
// systems whose set-up failures used to leave RunPointEntry as string
// panics.
func setupFailureSystems() map[string]Point {
	ecfg := em3d.Tiny()
	cfg := machine.DefaultConfig()
	cfg.Nodes = 4
	cfg.CacheSize = 8 << 10
	return map[string]Point{
		"typhoon-stache": {Cfg: cfg, System: SysStache, EM3D: &ecfg},
		"typhoon-update": {Cfg: cfg, System: SysUpdate, EM3D: &ecfg},
		"check-in":       {Cfg: cfg, System: SysStache, EM3D: &ecfg, CheckIn: true},
		"page-budget":    {Cfg: cfg, System: SysStache, EM3D: &ecfg, StacheMaxPages: 4},
		"blizzard":       {Cfg: cfg, System: SysBlizzard, EM3D: &ecfg},
	}
}

// setupFailureCases are wire-legal mutations of a runnable point that no
// machine can be set up for: a row for each rule machine.Config.Validate
// holds the wire's machine fields to (node and cache bounds, link
// bandwidth, cycle bound, block and cache geometry), and degenerate
// workloads.
func setupFailureCases() map[string]func(*Point) {
	cases := map[string]func(*Point){
		"nodes=65":          func(pt *Point) { pt.Cfg.Nodes = machine.MaxNodes + 1 },
		"linkbw=-1":         func(pt *Point) { pt.Cfg.LinkBytesPerCycle = -1 },
		"netlat=4294967297": func(pt *Point) { pt.Cfg.NetLatency = machine.MaxCycles + 1 },
		"em3d-zero":         func(pt *Point) { pt.EM3D = &em3d.Config{} },
		"em3d-negative":     func(pt *Point) { c := *pt.EM3D; c.Degree = -3; pt.EM3D = &c },
	}
	for _, n := range []int{48, -32, 8192} {
		cases[fmt.Sprintf("block=%d", n)] = func(pt *Point) { pt.Cfg.BlockSize = n }
	}
	for _, n := range []int{-1, 100, 2 * machine.MaxCacheBytes} {
		cases[fmt.Sprintf("cache=%d", n)] = func(pt *Point) { pt.Cfg.CacheSize = n }
	}
	// A size that divides evenly into 96 sets, which no shift and mask index.
	cases["cache=12288"] = func(pt *Point) { pt.Cfg.CacheSize = 12288 }
	return cases
}

// TestSetupFailuresAreErrors is the wire-to-panic regression for
// everything before m.Run: each case arrives as a checksum-valid point,
// and decode + RunPointEntry must answer with an error that names the
// point — from Validate for what is wrong on its face, from the
// funnel's set-up phase for what only building the machine discovers —
// never a panic that takes the worker down.
func TestSetupFailuresAreErrors(t *testing.T) {
	run := func(t *testing.T, pt Point) error {
		t.Helper()
		pt.NoCache = true
		decoded, err := DecodePoint(pt.Encode())
		if err != nil {
			t.Fatalf("the wire form itself is well-formed, decode failed: %v", err)
		}
		_, _, err = RunPointEntry(CacheParams{}, decoded)
		if err == nil {
			t.Fatal("impossible point ran")
		}
		// Validate rejections read "harness: point <label>: …"; the funnel's
		// "harness: <label>: <phase>: …" (a budget a little less tight
		// fails later still, inside the run, with the same prefix).
		if msg := err.Error(); !strings.HasPrefix(msg, "harness: point "+pt.Label()+": ") &&
			!strings.HasPrefix(msg, "harness: "+pt.Label()+": ") {
			t.Errorf("error does not name the point: %v", err)
		}
		return err
	}
	// The cases whose wording is the user's only explanation of a rule.
	wantSuffix := map[string]string{
		"cache=12288": "makes 96 sets, which is not a power of two",
	}
	for sysName, base := range setupFailureSystems() {
		for name, mutate := range setupFailureCases() {
			t.Run(sysName+"/"+name, func(t *testing.T) {
				pt := base
				mutate(&pt)
				err := run(t, pt)
				if want, ok := wantSuffix[name]; ok && !strings.HasSuffix(err.Error(), want) {
					t.Errorf("error %q does not end in %q", err, want)
				}
			})
		}
	}
	cfg := machine.DefaultConfig()
	cfg.Nodes = 4
	for name, c := range map[string]ocean.Config{"ocean-zero": {}, "ocean-negative": {N: -6, Iters: 1}} {
		t.Run(name, func(t *testing.T) { run(t, Point{Cfg: cfg, System: SysStache, Ocean: &c}) })
	}
}

// TestSimulateMatchesRunObserved pins that the funnel's two entries are
// the same run: for every (app, system) of the ideal-network
// conformance corpus at the tiny scale, the observed run's instruments
// must not move a cycle, a packet or a simulated-event counter.
func TestSimulateMatchesRunObserved(t *testing.T) {
	ecfg, ocfg := em3d.Tiny(), ocean.Tiny()
	cfg := machine.DefaultConfig()
	cfg.Nodes = 4
	cfg.CacheSize = 8 << 10
	pairs := []struct {
		app  string
		syss []System
	}{
		{"em3d", []System{SysDirNNB, SysStache, SysBlizzard, SysUpdate}},
		{"ocean", []System{SysDirNNB, SysStache, SysBlizzard}},
	}
	for _, pair := range pairs {
		app := pair.app
		for _, sys := range pair.syss {
			t.Run(app+"/"+string(sys), func(t *testing.T) {
				pt := Point{Cfg: cfg, System: sys, EM3D: &ecfg}
				if app == "ocean" {
					pt = Point{Cfg: cfg, System: sys, Ocean: &ocfg}
				}
				plain, err := pt.Simulate()
				if err != nil {
					t.Fatal(err)
				}
				obs, err := RunObserved(pt, DiffOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if plain.Res.Cycles != obs.Res.Cycles || plain.Res.ROICycles != obs.Res.ROICycles {
					t.Errorf("cycles: Simulate %d/%d, RunObserved %d/%d",
						plain.Res.Cycles, plain.Res.ROICycles, obs.Res.Cycles, obs.Res.ROICycles)
				}
				if plain.Res.Net != obs.Res.Net {
					t.Errorf("network stats: Simulate %+v, RunObserved %+v", plain.Res.Net, obs.Res.Net)
				}
				a := stripEngine(plain).Res.Counters.Snapshot()
				b := stripEngine(RunResult{Res: obs.Res}).Res.Counters.Snapshot()
				if !reflect.DeepEqual(a, b) {
					t.Errorf("counters: Simulate %v, RunObserved %v", a, b)
				}
			})
		}
	}
}

// badSendApp is a degenerate benchmark whose body performs one send
// with a wrapped-negative delay — the classic uint64 underflow a
// protocol's timing math can produce.
type badSendApp struct{ m *machine.Machine }

func (a *badSendApp) Name() string             { return "bad-send" }
func (a *badSendApp) Setup(m *machine.Machine) { a.m = m }
func (a *badSendApp) Body(p *machine.Proc) {
	if p.ID() == 0 {
		var base sim.Time
		a.m.Net.SendAfter(&network.Packet{Src: 0, Dst: 1, VNet: network.VNetRequest}, base-5)
	}
}
func (a *badSendApp) Verify(*machine.Machine) error { return nil }

// TestNetworkErrorSurfaced asserts a *network.Error panic from inside a
// simulated context unwinds through the engine into Run's error — the
// same structured-failure contract TestDirNNBSetupErrorSurfaced pins
// for setup-time panics.
func TestNetworkErrorSurfaced(t *testing.T) {
	cfg := MachineConfig(ScaleReduced, 16<<10)
	_, err := Point{Cfg: cfg, System: SysDirNNB, Bench: "bad-send"}.run(&badSendApp{})
	var nerr *network.Error
	if !errors.As(err, &nerr) {
		t.Fatalf("err = %v, want *network.Error", err)
	}
	if nerr.Op != "send-after" {
		t.Errorf("Op = %q, want send-after", nerr.Op)
	}
}

// badDeliveryApp sends one well-formed packet whose delivery trips a
// panicking endpoint Notify: the failure happens under a packet's Fire,
// on the scheduler, with no context running.
type badDeliveryApp struct{ badSendApp }

func (a *badDeliveryApp) Setup(m *machine.Machine) {
	a.m = m
	m.Net.Endpoint(1).Notify = func(sim.Time) {
		panic(&network.Error{Op: "deliver", Node: 1, Msg: "tap refused the packet"})
	}
}
func (a *badDeliveryApp) Body(p *machine.Proc) {
	if p.ID() == 0 {
		a.m.Net.Send(&network.Packet{Src: 0, Dst: 1, VNet: network.VNetRequest})
	}
}

// TestEventPanicFailsThePoint: a panic under an event used to escape
// Engine.Run raw, past execute (which calls m.Run outside setup's
// recover) and into the sweep or fleet worker. It is the point's error
// now, labelled like every other, with the cause still structured.
func TestEventPanicFailsThePoint(t *testing.T) {
	cfg := MachineConfig(ScaleReduced, 16<<10)
	_, err := Point{Cfg: cfg, System: SysDirNNB, Bench: "bad-send"}.run(&badDeliveryApp{})
	var nerr *network.Error
	if !errors.As(err, &nerr) || nerr.Op != "deliver" {
		t.Fatalf("err = %v, want the endpoint's *network.Error", err)
	}
	label := Point{Cfg: cfg, System: SysDirNNB, Bench: "bad-send"}.Label()
	if want := "harness: " + label + ": sim: event at cycle "; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("err = %q, want prefix %q", err, want)
	}
}
