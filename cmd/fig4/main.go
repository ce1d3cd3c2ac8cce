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

	"github.com/tempest-sim/tempest/internal/harness"
)

func main() {
	setFlag := flag.String("set", "large", "data set: small or large (the paper uses large)")
	pctsFlag := flag.String("pcts", "", "comma-separated remote-edge percentages (default 0..50 step 10)")
	progress := flag.Bool("progress", false, "report sweep progress on stderr")
	shared := harness.RegisterFlags(flag.CommandLine, harness.FlagDefaults{})
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "fig4:", err)
		os.Exit(2)
	}
	set, err := harness.ParseDataSet(*setFlag)
	if err != nil {
		fail(fmt.Errorf("-set: %w", err))
	}
	var pcts []int
	if *pctsFlag != "" {
		for _, s := range strings.Split(*pctsFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fail(fmt.Errorf("-pcts: bad percentage %q", s))
			}
			if v < 0 || v > 100 {
				fail(fmt.Errorf("-pcts: percentage %d outside [0, 100]", v))
			}
			pcts = append(pcts, v)
		}
	}
	sp, done, err := shared.Resolve()
	if err != nil {
		fail(err)
	}
	defer done()
	opts := harness.Fig4Options{Scale: shared.Scale, Set: set, Pcts: pcts, SimParams: sp}
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rfig4: %d/%d simulations", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	pts, err := harness.Figure4(opts)
	if err == nil {
		err = harness.RenderFigure4(os.Stdout, pts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig4:", err)
		os.Exit(1)
	}
}
