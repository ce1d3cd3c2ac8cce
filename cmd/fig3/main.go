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

	"github.com/tempest-sim/tempest/internal/harness"
)

func main() {
	appsFlag := flag.String("apps", "", "comma-separated benchmark subset (default: all five)")
	progress := flag.Bool("progress", false, "report sweep progress on stderr")
	shared := harness.RegisterFlags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "fig3:", err)
		os.Exit(2)
	}
	var apps []string
	if *appsFlag != "" {
		for _, name := range strings.Split(*appsFlag, ",") {
			name = strings.TrimSpace(name)
			if !harness.ValidBench(name) {
				fail(fmt.Errorf("-apps: unknown benchmark %q (want one of %s)",
					name, strings.Join(harness.BenchNames, ", ")))
			}
			apps = append(apps, name)
		}
	}
	sp, err := shared.Resolve()
	if err != nil {
		fail(err)
	}
	opts := harness.Fig3Options{
		Scale:     shared.Scale,
		Apps:      apps,
		SimParams: sp,
	}
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rfig3: %d/%d points", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	cells, err := harness.Figure3(opts)
	if err == nil {
		err = harness.RenderFigure3(os.Stdout, cells)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig3:", err)
		os.Exit(1)
	}
}
