package harness

import (
	"fmt"
	"io"

	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stats"
)

// ContentionPoint is one configuration of the contention sweep: a link
// bandwidth and a protocol-agent occupancy. The zero point is the
// paper's machine (infinite bandwidth, unbounded agent concurrency).
type ContentionPoint struct {
	LinkBytesPerCycle int
	OccupancyCycles   sim.Time
}

func (p ContentionPoint) String() string {
	if p.LinkBytesPerCycle == 0 && p.OccupancyCycles == 0 {
		return "ideal"
	}
	bw := "∞"
	if p.LinkBytesPerCycle > 0 {
		bw = fmt.Sprintf("%dB/c", p.LinkBytesPerCycle)
	}
	return fmt.Sprintf("bw=%s occ=%d", bw, p.OccupancyCycles)
}

// ContentionPoints is the sweep grid: the ideal machine, link
// bandwidth alone (8 then 4 bytes/cycle — an 80-byte data packet
// serialises for 10 or 20 cycles against the 11-cycle wire), agent
// occupancy alone (20 cycles, on the order of DirNNB's Table 2
// directory terms), and both together.
var ContentionPoints = []ContentionPoint{
	{0, 0},
	{8, 0},
	{4, 0},
	{0, 20},
	{4, 20},
}

// ContentionCell is one (app, point) measurement of the sweep: both
// systems' measured-region times, the Figure 3 ratio, and the queueing
// the contention model made visible — network port-wait cycles and
// protocol-agent occupancy-wait cycles per system.
type ContentionCell struct {
	App             string
	Point           ContentionPoint
	DirNNB, Typhoon sim.Time
	// Relative is Typhoon/Stache over DirNNB, as in Figure 3.
	Relative float64
	// DirNetQueue/TyphNetQueue are cycles packets spent waiting for busy
	// injection/ejection ports, summed over both virtual networks.
	DirNetQueue, TyphNetQueue uint64
	// DirAgentWait/TyphAgentWait are cycles messages spent waiting for a
	// busy directory controller / NP — the hot-home queueing of §6.
	DirAgentWait, TyphAgentWait uint64
}

// ContentionOptions selects the sweep's scale; the embedded SimParams
// is its execution policy (its two contention knobs are overridden per
// point by the grid). The knobs are part of each point, so only the
// ideal column can be one simulation with another sweep's point.
type ContentionOptions struct {
	Scale Scale
	SimParams
}

// contentionApps are the swept benchmarks: the two with the hottest home
// nodes in the Figure 3 suite. contentionCacheKB is the CPU cache size,
// the most traffic-intensive Figure 3 point, where contention bites
// hardest.
var contentionApps = []string{"em3d", "ocean"}

const contentionCacheKB = 4

// ContentionSweep reruns a Figure-3-style comparison across contention
// configurations: how do the Typhoon-vs-DirNNB ratios shift once link
// bandwidth and directory/NP occupancy are charged instead of assumed
// free? Each (app, point, system) is one job on the worker pool; cells
// are returned in (app, point) order.
func ContentionSweep(opts ContentionOptions) (cells []ContentionCell, err error) {
	err = runParts(opts.SimParams, contentionPart(opts.Scale, opts.SimParams, func(c []ContentionCell) error {
		cells = c
		return nil
	}))
	return cells, err
}

// contentionPart is the contention sweep's share of a batch: its grid
// of points, folded into cells that are handed to use.
func contentionPart(scale Scale, sp SimParams, use func([]ContentionCell) error) part {
	var pts []Point
	for _, name := range contentionApps {
		for _, pt := range ContentionPoints {
			for _, sys := range []System{SysDirNNB, SysStache} {
				cfg := MachineConfig(scale, contentionCacheKB<<10)
				knobs := sp
				knobs.LinkBytesPerCycle, knobs.OccupancyCycles = pt.LinkBytesPerCycle, pt.OccupancyCycles
				knobs.Apply(&cfg)
				pts = append(pts, Point{Cfg: cfg, System: sys, Bench: name, Scale: scale, Set: SetSmall})
			}
		}
	}
	netQueue := func(rr PointResult) uint64 {
		var q uint64
		for _, v := range rr.Res.Net.VNets {
			q += v.QueueingCycles
		}
		return q
	}
	return part{points: pts, fold: func(results []PointResult) error {
		var cells []ContentionCell
		i := 0
		for _, name := range contentionApps {
			for _, pt := range ContentionPoints {
				dir, typh := results[i], results[i+1]
				i += 2
				cells = append(cells, ContentionCell{
					App:           name,
					Point:         pt,
					DirNNB:        dir.Res.ROICycles,
					Typhoon:       typh.Res.ROICycles,
					Relative:      float64(typh.Res.ROICycles) / float64(dir.Res.ROICycles),
					DirNetQueue:   netQueue(dir),
					TyphNetQueue:  netQueue(typh),
					DirAgentWait:  dir.Res.Counters.Get("dirnnb.occ_wait_cycles"),
					TyphAgentWait: typh.Res.Counters.Get("np.occ_wait_cycles"),
				})
			}
		}
		return use(cells)
	}}
}

// RenderContention prints the contention sweep, one row per (app, point),
// with the per-cell delta of the Figure 3 ratio against the app's ideal
// (contention-free) row.
func RenderContention(w io.Writer, cells []ContentionCell) error {
	t := &stats.Table{
		Title: "Contention sweep: Figure 3 ratios with finite link bandwidth and agent occupancy charged",
		Header: []string{"benchmark", "config", "DirNNB cycles", "Typhoon/Stache cycles",
			"relative", "Δ vs ideal", "net queue (dir/typh)", "agent wait (dir/typh)"},
	}
	ideal := make(map[string]float64)
	for _, c := range cells {
		if c.Point == (ContentionPoint{}) {
			ideal[c.App] = c.Relative
		}
	}
	for _, c := range cells {
		delta := "—"
		if base, ok := ideal[c.App]; ok && c.Point != (ContentionPoint{}) {
			delta = fmt.Sprintf("%+.3f", c.Relative-base)
		}
		t.AddRow(c.App, c.Point.String(),
			stats.D(uint64(c.DirNNB)),
			stats.D(uint64(c.Typhoon)),
			stats.F(c.Relative),
			delta,
			fmt.Sprintf("%s/%s", stats.D(c.DirNetQueue), stats.D(c.TyphNetQueue)),
			fmt.Sprintf("%s/%s", stats.D(c.DirAgentWait), stats.D(c.TyphAgentWait)))
	}
	return t.Render(w)
}
