package harness

import (
	"fmt"
	"io"

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
	Configs []Fig3Config // nil = Fig3Configs(Scale): five at paper scale, four reduced
	SimParams
}

// fig3Systems is the pair every Figure 3 cell compares.
var fig3Systems = []System{SysDirNNB, SysStache}

// Fig3Points builds the sweep's point list: one independent point per
// (benchmark, system, config) cell, in that nesting order. noCache sets
// every point's NoCache.
func Fig3Points(scale Scale, names []string, configs []Fig3Config, sp SimParams, noCache bool) []Point {
	var points []Point
	for _, name := range names {
		for _, sys := range fig3Systems {
			for _, fc := range configs {
				cfg := MachineConfig(scale, fc.CacheKB<<10)
				sp.Apply(&cfg)
				points = append(points, Point{
					Cfg:     cfg,
					System:  sys,
					Bench:   name,
					Scale:   scale,
					Set:     fc.Set,
					NoCache: noCache,
				})
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
	results, err := SubmitPoints(opts.SimParams, Fig3Points(opts.Scale, names, configs, opts.SimParams, false))
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
