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
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/stats"
)

func main() {
	appFlag := flag.String("app", "ocean", "benchmark, or comma-separated list: appbt, barnes, mp3d, ocean, em3d")
	system := flag.String("system", "typhoon-stache", "target: dirnnb, typhoon-stache, blizzard, typhoon-update (em3d only)")
	setFlag := flag.String("set", "small", "data set: small or large (Table 3)")
	cacheKB := flag.Int("cache", 0, "CPU cache size in KB (0 = Table 2 default)")
	nodes := flag.Int("nodes", 0, "node count (0 = scale default)")
	counters := flag.Bool("counters", false, "dump all event counters")
	shared := harness.RegisterFlags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "typhoon-sim:", err)
		os.Exit(2)
	}
	set, err := harness.ParseDataSet(*setFlag)
	if err != nil {
		fail(fmt.Errorf("-set: %w", err))
	}
	if *cacheKB < 0 {
		fail(fmt.Errorf("-cache %d: cache size must be >= 0 KB (0 = Table 2 default)", *cacheKB))
	}
	if *nodes < 0 {
		fail(fmt.Errorf("-nodes %d: node count must be >= 0 (0 = scale default)", *nodes))
	}
	sp, err := shared.Resolve()
	if err != nil {
		fail(err)
	}
	scale, sys := shared.Scale, harness.System(*system)

	// One point per named app, validated as a point: the same rules the
	// sweeps apply, not a private copy of them.
	mcfg := harness.MachineConfig(scale, *cacheKB<<10)
	if *nodes > 0 {
		mcfg.Nodes = *nodes
	}
	sp.Apply(&mcfg)
	var points []harness.Point
	for _, name := range strings.Split(*appFlag, ",") {
		pt := harness.Point{Cfg: mcfg, System: sys, Bench: strings.TrimSpace(name), Scale: scale, Set: set}
		if sys == harness.SysUpdate {
			if pt.Bench != "em3d" {
				fail(fmt.Errorf("-app: the update protocol only runs em3d, not %q", pt.Bench))
			}
			ec := harness.EM3DConfig(scale, set)
			pt.EM3D = &ec
		}
		if err := pt.Validate(); err != nil {
			fail(err)
		}
		points = append(points, pt)
	}
	results, err := harness.SubmitPoints(sp, points)
	if err != nil {
		fmt.Fprintln(os.Stderr, "typhoon-sim:", err)
		os.Exit(1)
	}

	for i, rr := range results {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("%s on %s (%s/%s): %d nodes, %d KB caches\n",
			rr.App, rr.System, scale, set, mcfg.Nodes, mcfg.CacheSize>>10)
		fmt.Printf("  total cycles:    %d\n", rr.Res.Cycles)
		fmt.Printf("  measured region: %d\n", rr.Res.ROICycles)
		fmt.Println("  result verified against sequential reference: ok")
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
}
