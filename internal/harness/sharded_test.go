package harness

import (
	"errors"
	"strings"
	"testing"

	"github.com/tempest-sim/tempest/internal/dirnnb"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/network"
	"github.com/tempest-sim/tempest/internal/sim"
)

// TestShardedVsSerialEquivalence runs the same workloads serially and
// under sharded execution (2 and 4 shards of the 8 reduced-scale nodes)
// and asserts every observable is identical — total and ROI cycles,
// network traffic, and every counter including the engine.* dispatch
// group: each shard's sub-schedule is the serial schedule restricted to
// its nodes, so even the dispatch mechanics must agree counter for
// counter. Run under -race this doubles as the memory-safety proof of
// the window protocol. The em3d-update case exercises a custom
// user-level protocol (NP-to-NP pushes, fuzzy barrier) under sharding.
func TestShardedVsSerialEquivalence(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, shards int) machine.Result
	}{
		{"em3d", func(t *testing.T, shards int) machine.Result {
			return shardedRun(t, "em3d", SysStache, shards)
		}},
		{"ocean", func(t *testing.T, shards int) machine.Result {
			return shardedRun(t, "ocean", SysStache, shards)
		}},
		{"em3d-dirnnb", func(t *testing.T, shards int) machine.Result {
			return shardedRun(t, "em3d", SysDirNNB, shards)
		}},
		{"ocean-dirnnb", func(t *testing.T, shards int) machine.Result {
			return shardedRun(t, "ocean", SysDirNNB, shards)
		}},
		{"em3d-update", func(t *testing.T, shards int) machine.Result {
			cfg := MachineConfig(ScaleReduced, 16<<10)
			cfg.Shards = shards
			ecfg := EM3DConfig(ScaleReduced, SetSmall)
			rr, err := Point{Cfg: cfg, System: SysUpdate, EM3D: &ecfg}.Simulate()
			if err != nil {
				t.Fatal(err)
			}
			return rr.Res
		}},
		// Contended cases: the same equivalence with finite link bandwidth
		// and agent occupancy charged. Port and agent busy state is
		// node-local, and head arrivals are at least a wire latency out, so
		// contended deliveries must still be bit-identical at every shard
		// count — including the new queueing counters.
		{"em3d-contended", func(t *testing.T, shards int) machine.Result {
			return contendedRun(t, "em3d", SysStache, shards)
		}},
		{"ocean-contended", func(t *testing.T, shards int) machine.Result {
			return contendedRun(t, "ocean", SysStache, shards)
		}},
		{"em3d-dirnnb-contended", func(t *testing.T, shards int) machine.Result {
			return contendedRun(t, "em3d", SysDirNNB, shards)
		}},
		{"ocean-dirnnb-contended", func(t *testing.T, shards int) machine.Result {
			return contendedRun(t, "ocean", SysDirNNB, shards)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := tc.run(t, 1)
			for _, shards := range []int{2, 4} {
				sharded := tc.run(t, shards)
				if serial.Cycles != sharded.Cycles {
					t.Errorf("shards=%d: cycles %d, serial %d", shards, sharded.Cycles, serial.Cycles)
				}
				if serial.ROICycles != sharded.ROICycles {
					t.Errorf("shards=%d: ROI cycles %d, serial %d", shards, sharded.ROICycles, serial.ROICycles)
				}
				if serial.Net != sharded.Net {
					t.Errorf("shards=%d: network stats %+v, serial %+v", shards, sharded.Net, serial.Net)
				}
				// engine.window.* counters describe the window planner
				// itself (grants, batching, widths) and depend on the
				// shard count by nature — a serial run grants no windows —
				// so they are the one counter group excluded from the
				// serial-vs-sharded comparison.
				a, b := serial.Counters.Snapshot(), sharded.Counters.Snapshot()
				for name, av := range a {
					if strings.HasPrefix(name, "engine.window.") {
						continue
					}
					if bv, ok := b[name]; !ok || bv != av {
						t.Errorf("counter %s: serial %d, shards=%d %d", name, av, shards, bv)
					}
				}
				for name := range b {
					if strings.HasPrefix(name, "engine.window.") {
						continue
					}
					if _, ok := a[name]; !ok {
						t.Errorf("counter %s: only present with shards=%d", name, shards)
					}
				}
			}
		})
	}
}

// shardedRun executes one benchmark on the given system with the given
// shard count.
func shardedRun(t *testing.T, app string, sys System, shards int) machine.Result {
	t.Helper()
	a, err := MakeApp(app, ScaleReduced, SetSmall)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MachineConfig(ScaleReduced, 16<<10)
	cfg.Shards = shards
	rr, err := Run(cfg, sys, a)
	if err != nil {
		t.Fatal(err)
	}
	return rr.Res
}

// contendedRun is shardedRun with the contention model enabled at the
// pinned CI configuration (4 bytes/cycle links, 20-cycle agents).
func contendedRun(t *testing.T, app string, sys System, shards int) machine.Result {
	t.Helper()
	a, err := MakeApp(app, ScaleReduced, SetSmall)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MachineConfig(ScaleReduced, 4<<10)
	cfg.Shards = shards
	cfg.LinkBytesPerCycle = 4
	cfg.OccupancyCycles = 20
	rr, err := Run(cfg, sys, a)
	if err != nil {
		t.Fatal(err)
	}
	return rr.Res
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
	_, err := Run(cfg, SysDirNNB, &badSendApp{})
	var nerr *network.Error
	if !errors.As(err, &nerr) {
		t.Fatalf("err = %v, want *network.Error", err)
	}
	if nerr.Op != "send-after" {
		t.Errorf("Op = %q, want send-after", nerr.Op)
	}
}

// TestDirNNBSetupErrorSurfaced drives DirNNB out of frames at segment
// setup and asserts Run reports a structured *dirnnb.Error instead of
// crashing the sweep.
func TestDirNNBSetupErrorSurfaced(t *testing.T) {
	a, err := MakeApp("ocean", ScaleReduced, SetSmall)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MachineConfig(ScaleReduced, 16<<10)
	cfg.MemPagesPerNode = 1 // far too small for ocean's grids
	_, err = Run(cfg, SysDirNNB, a)
	var derr *dirnnb.Error
	if !errors.As(err, &derr) {
		t.Fatalf("err = %v, want *dirnnb.Error", err)
	}
	if derr.Op != "alloc-frame" {
		t.Errorf("Op = %q, want alloc-frame", derr.Op)
	}
}
