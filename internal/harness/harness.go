// Package harness defines the paper's experiments: one entry per table
// and figure of the evaluation (§6), plus the ablations DESIGN.md calls
// out. Each experiment builds machines, runs benchmarks on both target
// systems, verifies results, and renders the same rows or series the
// paper reports.
package harness

import (
	"fmt"
	"time"

	"github.com/tempest-sim/tempest/internal/apps"
	"github.com/tempest-sim/tempest/internal/apps/appbt"
	"github.com/tempest-sim/tempest/internal/apps/barnes"
	"github.com/tempest-sim/tempest/internal/apps/em3d"
	"github.com/tempest-sim/tempest/internal/apps/mp3d"
	"github.com/tempest-sim/tempest/internal/apps/ocean"
	"github.com/tempest-sim/tempest/internal/machine"
	"github.com/tempest-sim/tempest/internal/sim"
)

// System selects the simulated target.
type System string

// Target systems.
const (
	SysDirNNB   System = "dirnnb"
	SysStache   System = "typhoon-stache"
	SysUpdate   System = "typhoon-update" // EM3D only
	SysBlizzard System = "blizzard"       // software Tempest running Stache
)

// RunResult is one benchmark execution.
type RunResult struct {
	System System
	App    string
	Res    machine.Result
}

// Scale selects workload sizes.
type Scale string

// Workload scales. Paper scales use Table 3 sizes on 32 nodes; reduced
// scales preserve the working-set-versus-cache relationships at a size
// that runs in seconds on a laptop.
const (
	ScalePaper   Scale = "paper"
	ScaleReduced Scale = "reduced"
)

// DataSet selects the small or large column of Table 3.
type DataSet string

// Table 3 columns.
const (
	SetSmall DataSet = "small"
	SetLarge DataSet = "large"
)

// ParseScale validates a scale name (e.g. a -scale flag value). Unknown
// values are an error, never a silent fallback to the reduced sweep.
func ParseScale(s string) (Scale, error) {
	switch Scale(s) {
	case ScalePaper, ScaleReduced:
		return Scale(s), nil
	}
	return "", fmt.Errorf("unknown scale %q (want %q or %q)", s, ScaleReduced, ScalePaper)
}

// ParseDataSet validates a data-set name (e.g. a -set flag value).
func ParseDataSet(s string) (DataSet, error) {
	switch DataSet(s) {
	case SetSmall, SetLarge:
		return DataSet(s), nil
	}
	return "", fmt.Errorf("unknown data set %q (want %q or %q)", s, SetSmall, SetLarge)
}

// BenchNames lists the five benchmarks in the paper's Figure 3 order.
var BenchNames = []string{"appbt", "barnes", "mp3d", "ocean", "em3d"}

// ValidBench reports whether name is one of the five benchmarks.
func ValidBench(name string) bool {
	for _, n := range BenchNames {
		if n == name {
			return true
		}
	}
	return false
}

// MakeApp builds a benchmark instance by name, scale, and data set.
func MakeApp(name string, scale Scale, set DataSet) (apps.App, error) {
	paper := scale == ScalePaper
	large := set == SetLarge
	switch name {
	case "appbt":
		c := appbt.Small()
		if large {
			c = appbt.Large()
		}
		if !paper {
			c.N = map[bool]int{false: 8, true: 20}[large]
		}
		return appbt.New(c), nil
	case "barnes":
		c := barnes.Small()
		if large {
			c = barnes.Large()
		}
		if !paper {
			c.Bodies = map[bool]int{false: 256, true: 640}[large]
		}
		return barnes.New(c), nil
	case "mp3d":
		c := mp3d.Small()
		if large {
			c = mp3d.Large()
		}
		if !paper {
			c.Mols = map[bool]int{false: 2000, true: 6000}[large]
			c.Cells = map[bool]int{false: 8, true: 10}[large]
		}
		return mp3d.New(c), nil
	case "ocean":
		return ocean.New(OceanConfig(scale, set)), nil
	case "em3d":
		return em3d.New(EM3DConfig(scale, set)), nil
	}
	return nil, fmt.Errorf("harness: unknown benchmark %q", name)
}

// EM3DConfig returns the em3d configuration for a scale and data set
// (Figure 4 needs the raw config to sweep the remote-edge fraction).
func EM3DConfig(scale Scale, set DataSet) em3d.Config {
	c := em3d.Small()
	if set == SetLarge {
		c = em3d.Large()
	}
	if scale != ScalePaper {
		if set == SetLarge {
			c.TotalNodes, c.Degree = 20000, 8
		} else {
			c.TotalNodes, c.Degree = 8000, 5
		}
	}
	return c
}

// OceanConfig returns the ocean configuration for a scale and data set
// (the placement ablation varies it).
func OceanConfig(scale Scale, set DataSet) ocean.Config {
	c := ocean.Small()
	if set == SetLarge {
		c = ocean.Large()
	}
	if scale != ScalePaper {
		c.N = map[bool]int{false: 66, true: 192}[set == SetLarge]
	}
	return c
}

// MachineConfig returns the Table 2 machine for a scale: 32 nodes at
// paper scale, 8 reduced.
func MachineConfig(scale Scale, cacheBytes int) machine.Config {
	cfg := machine.DefaultConfig()
	if scale != ScalePaper {
		cfg.Nodes = 8
	}
	if cacheBytes > 0 {
		cfg.CacheSize = cacheBytes
	}
	return cfg
}

// SimParams is the one sweep-policy struct: the simulator-level knobs
// every sweep threads into machine.Config (the contention model) plus
// how the sweep's points are executed (pool size, timeout, progress).
// The zero value — infinite bandwidth, no agent occupancy, a worker
// pool on all cores — is the machine under which every pinned golden
// was produced. Results are bit-identical at every Workers value for
// any contention setting.
type SimParams struct {
	// Workers sizes the in-process worker pool; <= 0 uses all cores.
	Workers int
	// Inert: kept because benchmark/ names the field; the PR that retires the `sharded` workload deletes it.
	Shards int
	// LinkBytesPerCycle is machine.Config.LinkBytesPerCycle: per-port
	// link bandwidth of the contention model (0 = infinite).
	LinkBytesPerCycle int
	// OccupancyCycles is machine.Config.OccupancyCycles: protocol-agent
	// service occupancy per message (0 = unbounded concurrency).
	OccupancyCycles sim.Time
	// PointTimeout, when > 0, bounds each sweep point's wall-clock run;
	// a point that exceeds it fails the sweep with a structured
	// *PointTimeoutError naming the point.
	PointTimeout time.Duration
	// Progress, when non-nil, is called after each distinct simulation
	// completes with the number done so far and the total.
	Progress func(done, total int)
}

// Apply copies the machine knobs onto a machine config — the only place
// sweep policy reaches a machine.Config.
func (p SimParams) Apply(cfg *machine.Config) {
	cfg.Shards = p.Shards
	cfg.LinkBytesPerCycle = p.LinkBytesPerCycle
	cfg.OccupancyCycles = p.OccupancyCycles
}
