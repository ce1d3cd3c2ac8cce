// Command typhoon-sim runs one or more benchmarks on one simulated
// target system and reports execution time and event counters. A
// comma-separated -app list fans out across -j worker goroutines
// (0 = all cores); results print in the order the apps were named.
//
// Examples:
//
//	typhoon-sim -app ocean -system typhoon-stache
//	typhoon-sim -app em3d -system typhoon-update -set large -scale paper
//	typhoon-sim -app barnes -system dirnnb -counters
//	typhoon-sim -app appbt,barnes,mp3d,ocean,em3d -j 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/tempest-sim/tempest/internal/fleet"
	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/sim"
	"github.com/tempest-sim/tempest/internal/stats"
)

func main() {
	appFlag := flag.String("app", "ocean", "benchmark, or comma-separated list: appbt, barnes, mp3d, ocean, em3d")
	system := flag.String("system", "typhoon-stache", "target: dirnnb, typhoon-stache, typhoon-update (em3d only)")
	setFlag := flag.String("set", "small", "data set: small or large (Table 3)")
	scaleFlag := flag.String("scale", "reduced", "workload scale: reduced or paper")
	cacheKB := flag.Int("cache", 0, "CPU cache size in KB (0 = Table 2 default)")
	nodes := flag.Int("nodes", 0, "node count (0 = scale default)")
	linkBW := flag.Int("link-bw", 0, "link bandwidth in bytes/cycle (0 = infinite, the paper's model)")
	occupancy := flag.Int64("occupancy", 0, "protocol-agent occupancy in cycles per message (0 = unbounded concurrency)")
	counters := flag.Bool("counters", false, "dump all event counters")
	jobs := flag.Int("j", 0, "parallel simulations (0 = all cores)")
	cacheDir := flag.String("cache-dir", "", "persistent result-cache directory (\"\" = in-process memory cache only)")
	noCache := flag.Bool("no-cache", false, "disable the result cache entirely (conflicts with -cache-dir and -cache-verify)")
	cacheVerify := flag.Float64("cache-verify", 0, "fraction of cache hits to re-simulate and compare [0, 1]; a mismatch fails the run")
	fleetFlags := fleet.RegisterFlags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "typhoon-sim:", err)
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
	sys := harness.System(*system)
	switch sys {
	case harness.SysDirNNB, harness.SysStache, harness.SysUpdate:
	default:
		fail(fmt.Errorf("unknown system %q (want dirnnb, typhoon-stache, or typhoon-update)", *system))
	}
	if *jobs < 0 {
		fail(fmt.Errorf("-j %d: worker count must be >= 0", *jobs))
	}
	var names []string
	for _, name := range strings.Split(*appFlag, ",") {
		name = strings.TrimSpace(name)
		if !harness.ValidBench(name) {
			fail(fmt.Errorf("unknown benchmark %q (want one of %s)",
				name, strings.Join(harness.BenchNames, ", ")))
		}
		if sys == harness.SysUpdate && name != "em3d" {
			fail(fmt.Errorf("the update protocol only runs em3d, not %q", name))
		}
		names = append(names, name)
	}

	mcfg := harness.MachineConfig(scale, *cacheKB<<10)
	if *nodes > 0 {
		mcfg.Nodes = *nodes
	}
	if *linkBW < 0 {
		fail(fmt.Errorf("-link-bw %d: link bandwidth must be >= 0 bytes/cycle", *linkBW))
	}
	if *occupancy < 0 {
		fail(fmt.Errorf("-occupancy %d: agent occupancy must be >= 0 cycles", *occupancy))
	}
	mcfg.LinkBytesPerCycle = *linkBW
	mcfg.OccupancyCycles = sim.Time(*occupancy)
	cp, err := harness.NewCacheParams(*cacheDir, *noCache, *cacheVerify)
	if err != nil {
		fail(err)
	}

	exec, fleetClose, err := fleetFlags.Executor(cp, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "typhoon-sim: "+format+"\n", args...)
	})
	if err != nil {
		fail(err)
	}
	defer fleetClose()
	if exec == nil {
		exec = harness.LocalExecutor{Workers: *jobs, Cache: cp}
	}

	var points []harness.Point
	for _, name := range names {
		pt := harness.Point{Cfg: mcfg, System: sys}
		if sys == harness.SysUpdate {
			ec := harness.EM3DConfig(scale, set)
			pt.EM3D = &ec
		} else {
			pt.Bench, pt.Scale, pt.Set = name, scale, set
		}
		points = append(points, pt)
	}
	results, err := exec.Submit(context.Background(), harness.Batch{
		Points:       points,
		PointTimeout: *fleetFlags.PointTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "typhoon-sim:", err)
		os.Exit(1)
	}

	if cp.Cache != nil && *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "typhoon-sim: cache %s: %s\n", *cacheDir, cp.Cache.Stats())
	}
	for i, rr := range results {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("%s on %s (%s/%s): %d nodes, %d KB caches\n",
			rr.App, rr.System, scale, set, mcfg.Nodes, mcfg.CacheSize>>10)
		fmt.Printf("  total cycles:    %d\n", rr.Res.Cycles)
		fmt.Printf("  measured region: %d\n", rr.Res.ROICycles)
		fmt.Printf("  result verified against sequential reference: ok (at simulation time; cached results are reused verified)\n")
		if *counters {
			t := &stats.Table{Title: "event counters", Header: []string{"counter", "value"}}
			for _, name := range rr.Res.Counters.Names() {
				if v := rr.Res.Counters.Get(name); v > 0 {
					t.AddRow(name, stats.D(v))
				}
			}
			fmt.Println()
			if err := t.Render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "typhoon-sim:", err)
				os.Exit(1)
			}
		}
	}
	// The result-cache telemetry rides the same counter plumbing as the
	// simulation events (cache.hits, cache.misses, ...).
	if *counters && cp.Cache != nil {
		t := &stats.Table{Title: "result-cache counters", Header: []string{"counter", "value"}}
		ctr := cp.Cache.Counters()
		for _, name := range ctr.Names() {
			t.AddRow(name, stats.D(ctr.Get(name)))
		}
		fmt.Println()
		if err := t.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "typhoon-sim:", err)
			os.Exit(1)
		}
	}
}
