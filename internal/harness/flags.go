package harness

import (
	"flag"
	"fmt"
	"path/filepath"
	"time"

	"github.com/tempest-sim/tempest/internal/sim"
)

// FlagDefaults are the per-binary defaults of the shared flag block.
type FlagDefaults struct {
	// Jobs is -j's default: 0 (all cores) for the sweep binaries, 1 for
	// cmd/bench, which isolates simulator speed from host cores.
	Jobs int
	// Scale, when set, pins the workload scale and leaves -scale
	// unregistered (cmd/bench's digests are defined at the reduced
	// scale).
	Scale Scale
}

// Flags is the flag block every sweep binary shares: the workload
// scale, the sweep's execution policy (SimParams) and the result cache
// behind it. RegisterFlags installs the flags; Resolve validates them
// once, in one place, and hands back the policy.
type Flags struct {
	fs           *flag.FlagSet
	scale        *string
	jobs, linkBW *int
	occupancy    *int64
	cacheDir     *string
	cacheVerify  *float64
	pointTimeout *time.Duration

	// Scale is the validated workload scale, set by Resolve.
	Scale Scale
}

// RegisterFlags installs the shared block on fs (flag.CommandLine from
// main).
func RegisterFlags(fs *flag.FlagSet, d FlagDefaults) *Flags {
	f := &Flags{fs: fs, Scale: d.Scale}
	if d.Scale == "" {
		f.scale = fs.String("scale", string(ScaleReduced), "workload scale: reduced or paper")
	}
	f.jobs = fs.Int("j", d.Jobs, "parallel simulations (0 = all cores); results are identical at every value")
	f.linkBW = fs.Int("link-bw", 0, "link bandwidth in bytes/cycle (0 = infinite, the paper's model)")
	f.occupancy = fs.Int64("occupancy", 0, "protocol-agent occupancy in cycles per message (0 = unbounded concurrency)")
	f.cacheDir = fs.String("cache-dir", "", "result-cache directory (\"\" = no cache: every point simulates)")
	f.cacheVerify = fs.Float64("cache-verify", 0, "fraction of cache hits to re-simulate and compare [0, 1], with -cache-dir; a mismatch fails the run")
	f.pointTimeout = fs.Duration("point-timeout", 0,
		"per-point wall-clock limit (0 = none); a point exceeding it fails the sweep with an error naming the point")
	return f
}

// Resolve validates the parsed flags — every error names its flag — and
// resolves them into the sweep policy: pool size, contention knobs,
// result cache and point timeout. The returned function reports the
// cache's statistics, as one line prefixed with the program's name on
// the flag set's output (stderr unless redirected); call it when the
// sweep finishes.
func (f *Flags) Resolve() (SimParams, func(), error) {
	fail := func(err error) (SimParams, func(), error) { return SimParams{}, nil, err }
	if f.scale != nil {
		scale, err := ParseScale(*f.scale)
		if err != nil {
			return fail(fmt.Errorf("-scale: %w", err))
		}
		f.Scale = scale
	}
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
	cp, err := NewCacheParams(*f.cacheDir, *f.cacheVerify)
	if err != nil {
		return fail(err)
	}
	sp := SimParams{
		Workers:           *f.jobs,
		LinkBytesPerCycle: *f.linkBW,
		OccupancyCycles:   sim.Time(*f.occupancy),
		Cache:             cp,
		PointTimeout:      *f.pointTimeout,
	}
	return sp, func() {
		if cp.Cache != nil {
			fmt.Fprintf(f.fs.Output(), "%s: cache %s: %s\n", filepath.Base(f.fs.Name()), *f.cacheDir, cp.Cache.Stats())
		}
	}, nil
}
