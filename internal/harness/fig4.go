package harness

import (
	"fmt"
	"io"

	"github.com/tempest-sim/tempest/internal/stats"
)

// Fig4Point is one x-position of Figure 4: the cycles-per-edge of all
// three systems at a given remote-edge percentage.
type Fig4Point struct {
	PctRemote int
	// Cycles per graph-edge update in the measured region, per system.
	DirNNB, Stache, Update float64
}

// Fig4Options selects the sweep; the embedded SimParams is its
// execution policy.
type Fig4Options struct {
	Scale Scale
	// Set selects the data set; the paper uses the large set.
	Set DataSet
	// Pcts are the remote-edge percentages; nil = 0..50 step 10.
	Pcts []int
	SimParams
}

// fig4Systems is the series order of Figure 4.
var fig4Systems = []System{SysDirNNB, SysStache, SysUpdate}

// Figure4 reproduces the paper's Figure 4: EM3D cycles per edge versus
// the percentage of non-local edges, for DirNNB, Typhoon/Stache, and the
// custom Typhoon update protocol. Each (percentage, system) pair is one
// independent sweep point.
func Figure4(opts Fig4Options) ([]Fig4Point, error) {
	pcts := opts.Pcts
	if pcts == nil {
		pcts = []int{0, 10, 20, 30, 40, 50}
	}
	set := opts.Set
	if set == "" {
		set = SetLarge
	}
	mcfg := MachineConfig(opts.Scale, 0)
	opts.Apply(&mcfg)
	var points []Point
	for _, pct := range pcts {
		for _, sys := range fig4Systems {
			ecfg := EM3DConfig(opts.Scale, set)
			ecfg.PctRemote = pct
			points = append(points, Point{Cfg: mcfg, System: sys, EM3D: &ecfg})
		}
	}
	results, err := SubmitPoints(opts.SimParams, points)
	if err != nil {
		return nil, err
	}
	// Both phases update every owned node's edges once per iteration.
	ecfg := EM3DConfig(opts.Scale, set)
	edges := 2 * ecfg.PerProc(mcfg.Nodes) * ecfg.Degree * ecfg.Iters
	perEdge := func(r PointResult) float64 {
		return float64(r.Res.ROICycles) / float64(edges)
	}
	var out []Fig4Point
	for i, pct := range pcts {
		base := i * len(fig4Systems)
		out = append(out, Fig4Point{
			PctRemote: pct,
			DirNNB:    perEdge(results[base]),
			Stache:    perEdge(results[base+1]),
			Update:    perEdge(results[base+2]),
		})
	}
	return out, nil
}

// RenderFigure4 prints the Figure 4 series.
func RenderFigure4(w io.Writer, pts []Fig4Point) error {
	t := &stats.Table{
		Title:  "Figure 4: EM3D cycles per edge vs. percent non-local edges",
		Header: []string{"% remote", "DirNNB", "Typhoon/Stache", "Typhoon/Update"},
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%d", p.PctRemote),
			stats.F(p.DirNNB), stats.F(p.Stache), stats.F(p.Update))
	}
	return t.Render(w)
}
