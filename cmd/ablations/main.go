// Command ablations runs the design-choice sweeps DESIGN.md catalogues:
// coherence-block size, data placement (its owner-placed DirNNB row is
// first-touch placement's steady state), stache page budget, network
// latency, migratory sharing, the EM3D protocol chain (invalidate vs.
// check-in vs. update), the software-Tempest comparison, and the
// contention sweep (finite link bandwidth and agent occupancy,
// DESIGN.md §9). Every selected sweep's points are one batch on -j
// worker goroutines (0 = all cores), in which a point two sweeps share
// simulates once; row order and values are identical at every count.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/tempest-sim/tempest/internal/harness"
)

func main() {
	keys := harness.AblationKeys()
	only := flag.String("only", "", "run a single ablation: "+strings.Join(keys, ", "))
	shared := harness.RegisterFlags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ablations:", err)
		os.Exit(2)
	}
	// Validate -only before running anything, not after the full sweep.
	if *only != "" && !slices.Contains(keys, *only) {
		fail(fmt.Errorf("-only: unknown ablation %q", *only))
	}
	sp, err := shared.Resolve()
	if err != nil {
		fail(err)
	}
	if err := harness.RunAblations(os.Stdout, shared.Scale, sp, *only); err != nil {
		fmt.Fprintln(os.Stderr, "ablations:", err)
		os.Exit(1)
	}
}
