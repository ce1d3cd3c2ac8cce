// Command fig3 regenerates Figure 3 of the paper: the execution time of
// Typhoon/Stache relative to the all-hardware DirNNB system across the
// five benchmarks and dataset/cache combinations.
//
// By default it runs the reduced-scale sweep (8 nodes, scaled data sets,
// seconds of wall time). Pass -scale paper for the full Table 3 sizes on
// 32 simulated nodes (minutes of wall time). Simulations fan out across
// -j worker goroutines (0 = all cores); the output is bit-identical at
// every worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/tempest-sim/tempest/internal/fleet"
	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/sim"
)

func main() {
	scaleFlag := flag.String("scale", "reduced", "workload scale: reduced or paper")
	appsFlag := flag.String("apps", "", "comma-separated benchmark subset (default: all five)")
	jobs := flag.Int("j", 0, "parallel simulations (0 = all cores)")
	linkBW := flag.Int("link-bw", 0, "link bandwidth in bytes/cycle (0 = infinite, the paper's model)")
	occupancy := flag.Int64("occupancy", 0, "protocol-agent occupancy in cycles per message (0 = unbounded concurrency)")
	noDedup := flag.Bool("no-dedup", false, "simulate every sweep point, even ones provably identical to a smaller-cache run")
	cacheDir := flag.String("cache-dir", "", "persistent result-cache directory (\"\" = in-process memory cache only)")
	noCache := flag.Bool("no-cache", false, "disable the result cache entirely (conflicts with -cache-dir and -cache-verify)")
	cacheVerify := flag.Float64("cache-verify", 0, "fraction of cache hits to re-simulate and compare [0, 1]; a mismatch fails the sweep")
	progress := flag.Bool("progress", false, "report sweep progress on stderr")
	fleetFlags := fleet.RegisterFlags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "fig3:", err)
		os.Exit(2)
	}
	scale, err := harness.ParseScale(*scaleFlag)
	if err != nil {
		fail(err)
	}
	if *jobs < 0 {
		fail(fmt.Errorf("-j %d: worker count must be >= 0", *jobs))
	}
	if *linkBW < 0 {
		fail(fmt.Errorf("-link-bw %d: link bandwidth must be >= 0 bytes/cycle", *linkBW))
	}
	if *occupancy < 0 {
		fail(fmt.Errorf("-occupancy %d: agent occupancy must be >= 0 cycles", *occupancy))
	}
	cp, err := harness.NewCacheParams(*cacheDir, *noCache, *cacheVerify)
	if err != nil {
		fail(err)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	exec, fleetClose, err := fleetFlags.Executor(cp, logf)
	if err != nil {
		fail(err)
	}
	defer fleetClose()
	opts := harness.Fig3Options{
		Scale:             scale,
		Workers:           *jobs,
		LinkBytesPerCycle: *linkBW,
		OccupancyCycles:   sim.Time(*occupancy),
		NoDedup:           *noDedup,
		Cache:             cp,
		Exec:              exec,
		PointTimeout:      *fleetFlags.PointTimeout,
		Logf:              logf,
	}
	if *appsFlag != "" {
		for _, name := range strings.Split(*appsFlag, ",") {
			name = strings.TrimSpace(name)
			if !harness.ValidBench(name) {
				fail(fmt.Errorf("unknown benchmark %q (want one of %s)",
					name, strings.Join(harness.BenchNames, ", ")))
			}
			opts.Apps = append(opts.Apps, name)
		}
	}
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rfig3: %d/%d benchmark/system sweeps", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	cells, err := harness.Figure3(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig3:", err)
		os.Exit(1)
	}
	if cp.Cache != nil && *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "fig3: cache %s: %s\n", *cacheDir, cp.Cache.Stats())
	}
	if err := harness.RenderFigure3(os.Stdout, cells); err != nil {
		fmt.Fprintln(os.Stderr, "fig3:", err)
		os.Exit(1)
	}
}
