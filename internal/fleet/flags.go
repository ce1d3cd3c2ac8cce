package fleet

import (
	"flag"
	"fmt"
	"path/filepath"
	"time"

	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/sim"
)

// Defaults are the per-binary defaults of the shared flag block.
type Defaults struct {
	// Jobs is -j's default: 0 (all cores) for the sweep binaries, 1 for
	// cmd/bench, which isolates simulator speed from host cores.
	Jobs int
	// Scale, when set, pins the workload scale and leaves -scale
	// unregistered (cmd/bench's digests are defined at the reduced
	// scale).
	Scale harness.Scale
}

// Flags is the flag block every sweep binary shares: the workload
// scale, the sweep's execution policy (harness.SimParams) and the
// result-cache and fleet wiring behind it. Register installs the flags;
// Resolve validates them once, in one place, and hands back the policy.
type Flags struct {
	fs           *flag.FlagSet
	scale        *string
	jobs, linkBW *int
	occupancy    *int64
	cache        *CacheFlags
	fleet        *string
	workersAddr  *string
	pointTimeout *time.Duration

	// Scale is the validated workload scale, set by Resolve.
	Scale harness.Scale
}

// Register installs the shared block on fs (flag.CommandLine from main).
func Register(fs *flag.FlagSet, d Defaults) *Flags {
	f := &Flags{fs: fs, Scale: d.Scale}
	if d.Scale == "" {
		f.scale = fs.String("scale", string(harness.ScaleReduced), "workload scale: reduced or paper")
	}
	f.jobs = fs.Int("j", d.Jobs, "parallel simulations (0 = all cores); results are identical at every value")
	f.linkBW = fs.Int("link-bw", 0, "link bandwidth in bytes/cycle (0 = infinite, the paper's model)")
	f.occupancy = fs.Int64("occupancy", 0, "protocol-agent occupancy in cycles per message (0 = unbounded concurrency)")
	f.cache = RegisterCache(fs)
	f.fleet = fs.String("fleet", "",
		"submit the sweep to the fleet coordinator at this address (host:port, or a unix socket path containing '/')")
	f.workersAddr = fs.String("workers-addr", "",
		"run an embedded fleet coordinator for this sweep, listening for workers on this address")
	f.pointTimeout = fs.Duration("point-timeout", 0,
		"per-point wall-clock limit (0 = none); a point exceeding it fails the sweep with an error naming the point")
	return f
}

// Logf writes one diagnostic line, prefixed with the program's name, to
// the flag set's output (stderr unless redirected).
func (f *Flags) Logf(format string, args ...any) {
	fmt.Fprintf(f.fs.Output(), filepath.Base(f.fs.Name())+": "+format+"\n", args...)
}

// CheckJobs is the one rule for every -j: negative is an error, 0 means
// all cores.
func CheckJobs(n int) error {
	if n < 0 {
		return fmt.Errorf("-j %d: worker count must be >= 0 (0 = all cores)", n)
	}
	return nil
}

// Resolve validates the parsed flags — every error names its flag — and
// resolves them into the sweep policy: pool size, contention knobs,
// result cache, fleet executor and point timeout. The returned function
// releases whatever was started and reports the fleet's and a
// persistent cache's statistics; call it when the sweep finishes.
func (f *Flags) Resolve() (harness.SimParams, func(), error) {
	fail := func(err error) (harness.SimParams, func(), error) { return harness.SimParams{}, nil, err }
	if f.scale != nil {
		scale, err := harness.ParseScale(*f.scale)
		if err != nil {
			return fail(fmt.Errorf("-scale: %w", err))
		}
		f.Scale = scale
	}
	if err := CheckJobs(*f.jobs); err != nil {
		return fail(err)
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
	cp, err := f.cache.Resolve()
	if err != nil {
		return fail(err)
	}
	exec, closeExec, err := NewExecutor(*f.fleet, *f.workersAddr, cp, f.Logf)
	if err != nil {
		return fail(err)
	}
	sp := harness.SimParams{
		Workers:           *f.jobs,
		LinkBytesPerCycle: *f.linkBW,
		OccupancyCycles:   sim.Time(*f.occupancy),
		Cache:             cp,
		Exec:              exec,
		PointTimeout:      *f.pointTimeout,
	}
	return sp, func() {
		closeExec()
		if cp.Cache != nil && cp.Cache.Persistent() {
			f.Logf("cache %s: %s", *f.cache.dir, cp.Cache.Stats())
		}
	}, nil
}

// CacheFlags is the result-cache flag trio. Sweep binaries get it as
// part of Register; the fleet roles register it alone.
type CacheFlags struct {
	dir    *string
	off    *bool
	verify *float64
}

// RegisterCache installs -cache-dir, -no-cache and -cache-verify on fs.
func RegisterCache(fs *flag.FlagSet) *CacheFlags {
	return &CacheFlags{
		dir:    fs.String("cache-dir", "", "persistent result-cache directory (\"\" = in-process memory cache only)"),
		off:    fs.Bool("no-cache", false, "disable the result cache entirely (conflicts with -cache-dir and -cache-verify)"),
		verify: fs.Float64("cache-verify", 0, "fraction of cache hits to re-simulate and compare [0, 1]; a mismatch fails the run"),
	}
}

// Resolve validates the trio and opens the cache: the default is an
// in-process memory cache, -cache-dir adds the persistent tier, and
// -no-cache disables caching and conflicts with the other two.
func (c *CacheFlags) Resolve() (harness.CacheParams, error) {
	return harness.NewCacheParams(*c.dir, *c.off, *c.verify)
}
