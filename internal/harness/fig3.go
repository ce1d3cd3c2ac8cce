package harness

import (
	"fmt"
	"io"

	"github.com/tempest-sim/tempest/internal/resultcache"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stats"
)

// Fig3Config is one bar of Figure 3: a data set paired with a CPU cache
// size. The paper's five bars per benchmark.
type Fig3Config struct {
	Set     DataSet
	CacheKB int
}

// Fig3Configs returns the dataset/cache combinations for a scale: the
// paper's five at paper scale; at reduced scale the cache sweep shrinks
// with the data sets so the relationships are preserved — the small set
// overflows the smallest cache and fits the biggest, while the large set
// overflows even the biggest.
func Fig3Configs(scale Scale) []Fig3Config {
	if scale == ScalePaper {
		return []Fig3Config{
			{SetSmall, 4},
			{SetSmall, 16},
			{SetSmall, 64},
			{SetSmall, 256},
			{SetLarge, 256},
		}
	}
	return []Fig3Config{
		{SetSmall, 4},
		{SetSmall, 16},
		{SetSmall, 64},
		{SetLarge, 64},
	}
}

// Fig3Cell is one bar of Figure 3.
type Fig3Cell struct {
	App     string
	Set     DataSet
	CacheKB int
	// Typhoon and DirNNB are the measured-region execution times.
	Typhoon, DirNNB sim.Time
	// Relative is Typhoon/Stache time over DirNNB time — the bar height
	// of Figure 3 (shorter is better for Typhoon/Stache).
	Relative float64
}

// Fig3Options selects the sweep's extent; the embedded SimParams is its
// execution policy.
type Fig3Options struct {
	Scale   Scale
	Apps    []string     // nil = all five
	Configs []Fig3Config // nil = the paper's five
	// SimParams.Cache supplies a shared result cache. When nil (and
	// NoDedup is off) the sweep uses a private in-process cache, which
	// preserves the historical zero-eviction dedup behaviour exactly:
	// clean points are stored once and aliased to every larger cache
	// size they are provably identical at.
	SimParams
	// NoDedup bypasses the result cache for this sweep: every point
	// simulates, including the redundant ones a zero-eviction witness
	// would otherwise serve — e.g. to demonstrate the equivalence
	// itself, or to time the uncached sweep.
	NoDedup bool
	// Logf, when non-nil, receives one line per reused sweep point after
	// the sweep completes, in deterministic sweep order.
	Logf func(format string, args ...any)
}

// fig3Systems is the pair every Figure 3 cell compares.
var fig3Systems = []System{SysDirNNB, SysStache}

// fig3Witness is the alias-origin tag format: "witness:<kb>K" marks an
// entry derived from the zero-eviction run at <kb> KB rather than
// simulated at its own cache size.
func fig3Witness(kb int) string { return fmt.Sprintf("witness:%dK", kb) }

// parseFig3Witness extracts the witness cache size from an entry
// origin, or 0 when the origin is not a witness tag.
func parseFig3Witness(origin string) int {
	var kb int
	if n, err := fmt.Sscanf(origin, "witness:%dK", &kb); n == 1 && err == nil {
		return kb
	}
	return 0
}

// Fig3Points builds the sweep's point list: one point per (benchmark,
// system, config) cell, in that nesting order. Points of one
// (benchmark, system) pair share a Group so the cache sizes of one data
// set run sequentially in the given (ascending) order, and each point
// declares the larger cache sizes a clean run of it provably also
// covers (WitnessKB) — how the zero-eviction dedup survives any
// executor backend.
//
// The zero-eviction witness is one layer of the result cache: the CPU
// cache indexes sets by block % numSets and consults its replacement
// RNG only when a fill finds no free way. A run that performed zero
// evictions machine-wide therefore never drew from the RNG, and at any
// larger cache whose set count is a multiple of the witness's (same
// ways and block size — cache sizes here are powers of two), each set
// holds a subset of the blocks of the set it refines, so it can never
// overflow either. By induction over the event schedule the two runs
// are bit-identical: same hits, misses, upgrades, protocol traffic,
// and cycle counts. The sweep exploits this by storing a clean run's
// entry under the derived keys of every larger multiple cache size
// (origin "witness:<kb>K"), so the later points are ordinary cache
// hits — one reuse mechanism, in-process and on-disk alike.
// EXPERIMENTS.md's observation that appbt and ocean render identical
// rows at 16K/64K/256K is this effect.
func Fig3Points(scale Scale, names []string, configs []Fig3Config, sp SimParams, noDedup bool) []Point {
	var points []Point
	for _, name := range names {
		for _, sys := range fig3Systems {
			group := fmt.Sprintf("fig3/%s/%s", name, sys)
			for i, fc := range configs {
				cfg := MachineConfig(scale, fc.CacheKB<<10)
				sp.Apply(&cfg)
				pt := Point{
					Cfg:     cfg,
					System:  sys,
					Bench:   name,
					Scale:   scale,
					Set:     fc.Set,
					Group:   group,
					NoCache: noDedup,
				}
				if !noDedup {
					// A clean run at this point proves every larger multiple
					// cache size of the same data set bit-identical.
					for _, fc2 := range configs[i+1:] {
						if fc2.Set != fc.Set || fc2.CacheKB < fc.CacheKB || fc2.CacheKB%fc.CacheKB != 0 {
							continue
						}
						pt.WitnessKB = append(pt.WitnessKB, fc2.CacheKB)
					}
				}
				points = append(points, pt)
			}
		}
	}
	return points
}

// Figure3 reproduces the paper's Figure 3: the execution time of
// Typhoon/Stache relative to DirNNB across benchmarks and dataset/cache
// combinations. The sweep's points are built by Fig3Points and run on
// the configured executor (the in-process pool by default).
func Figure3(opts Fig3Options) ([]Fig3Cell, error) {
	names := opts.Apps
	if names == nil {
		names = BenchNames
	}
	configs := opts.Configs
	if configs == nil {
		configs = Fig3Configs(opts.Scale)
	}
	sp := opts.SimParams
	if sp.Cache.Cache == nil && !opts.NoDedup {
		// Private in-process cache: exactly the historical dedup scope
		// (one sweep), served through the one shared mechanism.
		c, err := resultcache.New(resultcache.Options{})
		if err != nil {
			return nil, err
		}
		sp.Cache.Cache = c
	}
	results, err := SubmitPoints(sp, Fig3Points(opts.Scale, names, configs, sp, opts.NoDedup))
	if err != nil {
		return nil, err
	}
	at := func(ni, si, ci int) PointResult {
		return results[(ni*2+si)*len(configs)+ci]
	}
	var cells []Fig3Cell
	for ni, name := range names {
		for ci, fc := range configs {
			dir, typh := at(ni, 0, ci), at(ni, 1, ci)
			cells = append(cells, Fig3Cell{
				App:     name,
				Set:     fc.Set,
				CacheKB: fc.CacheKB,
				Typhoon: typh.Res.ROICycles,
				DirNNB:  dir.Res.ROICycles,
				Relative: float64(typh.Res.ROICycles) /
					float64(dir.Res.ROICycles),
			})
		}
	}
	if opts.Logf != nil {
		for ni, name := range names {
			for si, sys := range fig3Systems {
				for ci, fc := range configs {
					if kb := parseFig3Witness(at(ni, si, ci).Origin); kb > 0 {
						opts.Logf("fig3: %s on %s %s/%dK: reused the %dK result (that run evicted no cache line, so the larger cache is provably identical)",
							name, sys, fc.Set, fc.CacheKB, kb)
					}
				}
			}
		}
	}
	return cells, nil
}

// RenderFigure3 prints the Figure 3 cells as a table, one row per bar.
func RenderFigure3(w io.Writer, cells []Fig3Cell) error {
	t := &stats.Table{
		Title:  "Figure 3: execution time of Typhoon/Stache relative to DirNNB (shorter bar = lower ratio = Typhoon/Stache better)",
		Header: []string{"benchmark", "data set/cache", "DirNNB cycles", "Typhoon/Stache cycles", "relative"},
	}
	for _, c := range cells {
		t.AddRow(c.App,
			fmt.Sprintf("%s/%dK", c.Set, c.CacheKB),
			stats.D(uint64(c.DirNNB)),
			stats.D(uint64(c.Typhoon)),
			stats.F(c.Relative))
	}
	return t.Render(w)
}
