package harness

import (
	"flag"
	"fmt"
	"time"

	"github.com/tempest-sim/tempest/internal/sim"
)

// Flags is the flag block every sweep binary shares: the workload
// scale and the sweep's execution policy (SimParams). RegisterFlags
// installs the flags; Resolve validates them once, in one place, and
// hands back the policy.
type Flags struct {
	scale        *string
	jobs, linkBW *int
	occupancy    *int64
	pointTimeout *time.Duration

	// Scale is the validated workload scale, set by Resolve.
	Scale Scale
}

// RegisterFlags installs the shared block on fs (flag.CommandLine from
// main).
func RegisterFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		scale:     fs.String("scale", string(ScaleReduced), "workload scale: reduced or paper"),
		jobs:      fs.Int("j", 0, "parallel simulations (0 = all cores); results are identical at every value"),
		linkBW:    fs.Int("link-bw", 0, "link bandwidth in bytes/cycle (0 = infinite, the paper's model)"),
		occupancy: fs.Int64("occupancy", 0, "protocol-agent occupancy in cycles per message (0 = unbounded concurrency)"),
		pointTimeout: fs.Duration("point-timeout", 0,
			"per-point wall-clock limit (0 = none); a point exceeding it fails the sweep with an error naming the point"),
	}
}

// Resolve validates the parsed flags — every error names its flag — and
// resolves them into the sweep policy: pool size, contention knobs and
// point timeout.
func (f *Flags) Resolve() (SimParams, error) {
	fail := func(err error) (SimParams, error) { return SimParams{}, err }
	scale, err := ParseScale(*f.scale)
	if err != nil {
		return fail(fmt.Errorf("-scale: %w", err))
	}
	f.Scale = scale
	if *f.jobs < 0 {
		return fail(fmt.Errorf("-j %d: worker count must be >= 0 (0 = all cores)", *f.jobs))
	}
	if *f.linkBW < 0 {
		return fail(fmt.Errorf("-link-bw %d: link bandwidth must be >= 0 bytes/cycle", *f.linkBW))
	}
	if *f.occupancy < 0 {
		return fail(fmt.Errorf("-occupancy %d: agent occupancy must be >= 0 cycles", *f.occupancy))
	}
	if *f.pointTimeout < 0 {
		return fail(fmt.Errorf("-point-timeout %v: limit must be >= 0 (0 = none)", *f.pointTimeout))
	}
	return SimParams{
		Workers:           *f.jobs,
		LinkBytesPerCycle: *f.linkBW,
		OccupancyCycles:   sim.Time(*f.occupancy),
		PointTimeout:      *f.pointTimeout,
	}, nil
}
