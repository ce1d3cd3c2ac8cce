// Command ablations runs the design-choice sweeps DESIGN.md catalogues:
// coherence-block size, data placement, stache page budget, network
// latency, first-touch placement, migratory sharing, the EM3D protocol
// chain (invalidate vs. check-in vs. update), the software-Tempest
// comparison, and the contention sweep (finite link bandwidth and agent
// occupancy, DESIGN.md §9). Each sweep's points fan out across -j worker
// goroutines (0 = all cores); row order and values are identical at
// every count.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/tempest-sim/tempest/internal/fleet"
	"github.com/tempest-sim/tempest/internal/harness"
	"github.com/tempest-sim/tempest/internal/sim"
)

func main() {
	scaleFlag := flag.String("scale", "reduced", "workload scale: reduced or paper")
	only := flag.String("only", "", "run a single ablation: blocksize, placement, budget, netlatency, firsttouch, migratory, em3d, software, contention")
	jobs := flag.Int("j", 0, "parallel simulations per sweep (0 = all cores)")
	linkBW := flag.Int("link-bw", 0, "link bandwidth in bytes/cycle for every sweep (0 = infinite, the paper's model; the contention sweep uses its own grid)")
	occupancy := flag.Int64("occupancy", 0, "protocol-agent occupancy in cycles per message for every sweep (0 = unbounded concurrency; the contention sweep uses its own grid)")
	cacheDir := flag.String("cache-dir", "", "persistent result-cache directory (\"\" = in-process memory cache only)")
	noCache := flag.Bool("no-cache", false, "disable the result cache entirely (conflicts with -cache-dir and -cache-verify)")
	cacheVerify := flag.Float64("cache-verify", 0, "fraction of cache hits to re-simulate and compare [0, 1]; a mismatch fails the sweep")
	fleetFlags := fleet.RegisterFlags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ablations:", err)
		os.Exit(2)
	}
	sc, err := harness.ParseScale(*scaleFlag)
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
	j := *jobs
	sp := harness.SimParams{
		LinkBytesPerCycle: *linkBW,
		OccupancyCycles:   sim.Time(*occupancy),
		Cache:             cp,
		Exec:              exec,
		PointTimeout:      *fleetFlags.PointTimeout,
	}

	type ab struct {
		key   string
		title string
		run   func() ([]harness.AblationRow, error)
	}
	all := []ab{
		{"blocksize", "Coherence-block size (Typhoon/Stache, EM3D small)",
			func() ([]harness.AblationRow, error) { return harness.AblationBlockSize(sc, sp, j) }},
		{"placement", "Data placement (Ocean small, 4 KB caches)",
			func() ([]harness.AblationRow, error) { return harness.AblationPlacement(sc, sp, j) }},
		{"budget", "Stache page budget (EM3D small)",
			func() ([]harness.AblationRow, error) { return harness.AblationStacheBudget(sc, sp, j) }},
		{"netlatency", "Network latency sensitivity (Ocean small, 4 KB caches)",
			func() ([]harness.AblationRow, error) { return harness.AblationNetLatency(sc, sp, j) }},
		{"firsttouch", "First-touch page placement (Ocean small, 4 KB caches)",
			func() ([]harness.AblationRow, error) { return harness.AblationFirstTouch(sc, sp, j) }},
		{"migratory", "Migratory-sharing extension (MP3D small)",
			func() ([]harness.AblationRow, error) { return harness.AblationMigratory(sc, sp, j) }},
		{"em3d", "EM3D protocol chain at 30% remote edges (paper section 4)",
			func() ([]harness.AblationRow, error) { return harness.AblationEM3DProtocols(sc, 30, sp, j) }},
		{"software", "Software Tempest (Blizzard) vs. Typhoon hardware",
			func() ([]harness.AblationRow, error) { return harness.AblationSoftwareTempest(sc, sp, j) }},
	}

	// Validate -only before running anything, not after the full sweep.
	if *only != "" {
		known := *only == "contention"
		for _, a := range all {
			if a.key == *only {
				known = true
				break
			}
		}
		if !known {
			fail(fmt.Errorf("unknown ablation %q", *only))
		}
	}
	for _, a := range all {
		if *only != "" && a.key != *only {
			continue
		}
		rows, err := a.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ablations: %s: %v\n", a.key, err)
			os.Exit(1)
		}
		if err := harness.RenderAblation(os.Stdout, a.title, rows); err != nil {
			fmt.Fprintln(os.Stderr, "ablations:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	// The contention sweep renders its own richer table (ratios and
	// queueing counters per cell) and sweeps its own config grid, so it
	// ignores -link-bw/-occupancy.
	if *only == "" || *only == "contention" {
		cells, err := harness.ContentionSweep(harness.ContentionOptions{
			Scale: sc, Workers: j, Cache: cp,
			Exec: exec, PointTimeout: *fleetFlags.PointTimeout,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ablations: contention:", err)
			os.Exit(1)
		}
		if err := harness.RenderContention(os.Stdout, cells); err != nil {
			fmt.Fprintln(os.Stderr, "ablations:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if cp.Cache != nil && *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "ablations: cache %s: %s\n", *cacheDir, cp.Cache.Stats())
	}
}
