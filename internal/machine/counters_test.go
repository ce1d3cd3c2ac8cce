package machine_test

import (
	"reflect"
	"testing"

	"github.com/tempest-sim/tempest/internal/blizzard"
	"github.com/tempest-sim/tempest/internal/dirnnb"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/stache"
	"github.com/tempest-sim/tempest/internal/typhoon"
	"github.com/tempest-sim/tempest/internal/vm"
)

// TestCountersAreTotalsReadAfterRun: every memory system's Counters adds
// its totals into a fresh set, so a second call after Run returns the
// same set as the first, and each value is the one the run's Result
// reported.
func TestCountersAreTotalsReadAfterRun(t *testing.T) {
	for _, sys := range []struct {
		name   string
		attach func(*machine.Machine)
	}{
		{"dirnnb", func(m *machine.Machine) { dirnnb.New(m) }},
		{"typhoon-stache", func(m *machine.Machine) { typhoon.New(m, stache.New()) }},
		{"blizzard", func(m *machine.Machine) { blizzard.NewStache(m, blizzard.Config{}) }},
	} {
		t.Run(sys.name, func(t *testing.T) {
			m := machine.New(machine.Config{Nodes: 2, CacheSize: 4096, Seed: 1})
			sys.attach(m)
			seg := m.AllocShared("x", mem.PageSize, vm.OnNode{Node: 0}, 0)
			res, err := m.Run(func(p *machine.Proc) {
				p.WriteU64(seg.At(uint64(8*p.ID())), 1)
				p.Barrier()
				p.ReadU64(seg.At(uint64(8 * (1 - p.ID()))))
			})
			if err != nil {
				t.Fatal(err)
			}
			first, second := m.Sys.Counters().Snapshot(), m.Sys.Counters().Snapshot()
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("a second Counters call differs:\n first  %v\n second %v", first, second)
			}
			moved := 0
			for name, v := range first {
				if got := res.Counters.Get(name); got != v {
					t.Errorf("%s = %d, Result.Counters has %d", name, v, got)
				}
				if v > 0 {
					moved++
				}
			}
			if moved == 0 {
				t.Fatalf("no counter moved in a run with remote misses: %v", first)
			}
		})
	}
}
