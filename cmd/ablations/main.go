// Command ablations runs the design-choice sweeps DESIGN.md catalogues:
// coherence-block size, data placement (its owner-placed DirNNB row is
// first-touch placement's steady state), stache page budget, network
// latency, migratory sharing, the EM3D protocol chain (invalidate vs.
// check-in vs. update), the software-Tempest comparison, and the
// contention sweep (finite link bandwidth and agent occupancy,
// DESIGN.md §9). Each sweep's points fan out across -j worker goroutines
// (0 = all cores); row order and values are identical at every count.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/tempest-sim/tempest/internal/harness"
)

func main() {
	only := flag.String("only", "", "run a single ablation: blocksize, placement, budget, netlatency, migratory, em3d, software, contention")
	shared := harness.RegisterFlags(flag.CommandLine, harness.FlagDefaults{})
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ablations:", err)
		os.Exit(2)
	}
	all := []struct {
		key   string
		title string
		run   func(harness.Scale, harness.SimParams) ([]harness.AblationRow, error)
	}{
		{"blocksize", "Coherence-block size (Typhoon/Stache, EM3D small)", harness.AblationBlockSize},
		{"placement", "Data placement (Ocean small, 4 KB caches)", harness.AblationPlacement},
		{"budget", "Stache page budget (EM3D small)", harness.AblationStacheBudget},
		{"netlatency", "Network latency sensitivity (Ocean small, 4 KB caches)", harness.AblationNetLatency},
		{"migratory", "Migratory-sharing extension (MP3D small)", harness.AblationMigratory},
		{"em3d", "EM3D protocol chain at 30% remote edges (paper section 4)",
			func(sc harness.Scale, sp harness.SimParams) ([]harness.AblationRow, error) {
				return harness.AblationEM3DProtocols(sc, 30, sp)
			}},
		{"software", "Software Tempest (Blizzard) vs. Typhoon hardware", harness.AblationSoftwareTempest},
	}
	// Validate -only before running anything, not after the full sweep.
	if *only != "" {
		known := *only == "contention"
		for _, a := range all {
			known = known || a.key == *only
		}
		if !known {
			fail(fmt.Errorf("-only: unknown ablation %q", *only))
		}
	}
	sp, done, err := shared.Resolve()
	if err != nil {
		fail(err)
	}
	defer done()

	for _, a := range all {
		if *only != "" && a.key != *only {
			continue
		}
		rows, err := a.run(shared.Scale, sp)
		if err == nil {
			err = harness.RenderAblation(os.Stdout, a.title, rows)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ablations: %s: %v\n", a.key, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	// The contention sweep renders its own richer table (ratios and
	// queueing counters per cell) and sweeps its own config grid, so it
	// ignores -link-bw/-occupancy.
	if *only == "" || *only == "contention" {
		cells, err := harness.ContentionSweep(harness.ContentionOptions{Scale: shared.Scale, SimParams: sp})
		if err == nil {
			err = harness.RenderContention(os.Stdout, cells)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ablations: contention:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
