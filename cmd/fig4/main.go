// Command fig4 regenerates Figure 4 of the paper: EM3D cycles per edge
// versus the percentage of non-local edges, comparing DirNNB,
// Typhoon/Stache, and the custom Typhoon delayed-update protocol.
// Simulations fan out across -j worker goroutines (0 = all cores); the
// output is bit-identical at every worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/tempest-sim/tempest/internal/fleet"
	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/sim"
)

func main() {
	scaleFlag := flag.String("scale", "reduced", "workload scale: reduced or paper")
	setFlag := flag.String("set", "large", "data set: small or large (the paper uses large)")
	pcts := flag.String("pcts", "", "comma-separated remote-edge percentages (default 0..50 step 10)")
	jobs := flag.Int("j", 0, "parallel simulations (0 = all cores)")
	linkBW := flag.Int("link-bw", 0, "link bandwidth in bytes/cycle (0 = infinite, the paper's model)")
	occupancy := flag.Int64("occupancy", 0, "protocol-agent occupancy in cycles per message (0 = unbounded concurrency)")
	cacheDir := flag.String("cache-dir", "", "persistent result-cache directory (\"\" = in-process memory cache only)")
	noCache := flag.Bool("no-cache", false, "disable the result cache entirely (conflicts with -cache-dir and -cache-verify)")
	cacheVerify := flag.Float64("cache-verify", 0, "fraction of cache hits to re-simulate and compare [0, 1]; a mismatch fails the sweep")
	progress := flag.Bool("progress", false, "report sweep progress on stderr")
	fleetFlags := fleet.RegisterFlags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "fig4:", err)
		os.Exit(2)
	}
	scale, err := harness.ParseScale(*scaleFlag)
	if err != nil {
		fail(err)
	}
	set, err := harness.ParseDataSet(*setFlag)
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
	opts := harness.Fig4Options{
		Scale: scale, Set: set, Workers: *jobs,
		LinkBytesPerCycle: *linkBW,
		OccupancyCycles:   sim.Time(*occupancy),
		Cache:             cp,
		Exec:              exec,
		PointTimeout:      *fleetFlags.PointTimeout,
	}
	if *pcts != "" {
		for _, s := range strings.Split(*pcts, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fail(fmt.Errorf("bad percentage %q", s))
			}
			if v < 0 || v > 100 {
				fail(fmt.Errorf("percentage %d outside [0, 100]", v))
			}
			opts.Pcts = append(opts.Pcts, v)
		}
	}
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rfig4: %d/%d simulations", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	pts, err := harness.Figure4(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig4:", err)
		os.Exit(1)
	}
	if cp.Cache != nil && *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "fig4: cache %s: %s\n", *cacheDir, cp.Cache.Stats())
	}
	if err := harness.RenderFigure4(os.Stdout, pts); err != nil {
		fmt.Fprintln(os.Stderr, "fig4:", err)
		os.Exit(1)
	}
}
