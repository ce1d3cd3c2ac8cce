package harness

import (
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/mem"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/vm"
)

// MeasureRefetch runs the canonical coherence microbenchmark on a
// two-node machine: node 0 owns and rewrites a block a reader on node 1
// keeps consuming; the returned cost is the reader's steady-state
// refetch latency (invalidation plus remote miss). It quantifies the
// paper's "Stache performs comparably (+-30%) to DirNNB" claim at the
// single-miss level (§6 discusses the handler path lengths behind it).
func MeasureRefetch(cfg machine.Config, system System) (sim.Time, error) {
	cfg.Nodes = 2
	in, err := Point{Cfg: cfg, System: system}.install()
	if err != nil {
		return 0, err
	}
	m := in.m
	seg := m.AllocShared("probe", mem.PageSize, vm.OnNode{Node: 0}, 0)
	var total sim.Time
	const rounds = 8
	_, err = m.Run(func(p *machine.Proc) {
		// Warm both nodes' mappings and the block.
		p.ReadU64(seg.At(0))
		p.Barrier()
		for r := 0; r < rounds+2; r++ {
			if p.ID() == 0 {
				p.WriteU64(seg.At(0), uint64(r))
			}
			p.Barrier()
			if p.ID() == 1 {
				t0 := p.Ctx.Time()
				p.ReadU64(seg.At(0))
				if r >= 2 { // skip cold rounds
					total += p.Ctx.Time() - t0
				}
			}
			p.Barrier()
		}
	})
	if err != nil {
		return 0, err
	}
	return total / rounds, nil
}
